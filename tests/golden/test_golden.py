"""Every seeded simulated output stays what the corpus pinned.

One command checks a refactor that claims bit-identity: the four
sim-only figures' stdout byte for byte, and ~50 runs' fingerprints,
virtual times and per-replica queue snapshots (see ``corpus.py``, which
also re-pins them).
"""

import pytest

from .corpus import FIGURES, decode, figure_path, figure_stdout, load_runs, observe

RUNS = load_runs()


@pytest.mark.parametrize("entry", RUNS, ids=[e["name"] for e in RUNS])
def test_run_is_unchanged(entry):
    assert observe(decode(entry["config"])) == entry["observed"]


@pytest.mark.parametrize("name", FIGURES)
def test_figure_stdout_is_unchanged(name):
    assert figure_stdout(name) == figure_path(name).read_text()
