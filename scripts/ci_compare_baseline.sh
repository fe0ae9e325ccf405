#!/usr/bin/env bash
# Regression gate shared by the CI jobs that own a committed baseline:
# rerun one benchmark file into a fresh directory and compare the
# BENCH_*.json it writes against benchmarks/results (tolerance bands,
# direction-aware; fingerprints differ on CI runners, so a mismatch is
# a note, not a failure).
#
# Fails closed: a benchmark that exits non-zero, or writes no baseline,
# fails the job instead of silently skipping its own gate.
#
#   scripts/ci_compare_baseline.sh benchmarks/bench_cache.py
set -euo pipefail

bench="${1:?usage: $0 <benchmark file>}"
REPRO_RESULTS_DIR="$(mktemp -d)"
export REPRO_RESULTS_DIR
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
trap 'rm -rf "$REPRO_RESULTS_DIR"' EXIT

python -m pytest -q "$bench"

if ! ls "$REPRO_RESULTS_DIR"/BENCH_*.json >/dev/null 2>&1; then
  echo "error: $bench wrote no BENCH_*.json into $REPRO_RESULTS_DIR" >&2
  exit 1
fi

python -m repro.experiments.baseline compare \
  benchmarks/results "$REPRO_RESULTS_DIR" \
  --tolerance 0.5 --fingerprint-policy warn
