"""vsearch recall/latency frontier: the nprobe knob, measured.

IVF search probes the ``nprobe`` posting lists nearest the query, so
per-request work — and with it the latency distribution — scales with
probed mass while recall@10 climbs toward the brute-force ground
truth. This benchmark sweeps nprobe over the unsharded app, measuring
recall directly against brute force and tail latency through the real
harness at a per-point calibrated moderate load.

Recall is fully deterministic (seeded corpus, seeded k-means), so it
is pinned exactly (``PINNED_RECALL``); wall-clock latency figures land
in the rendered report and are judged only for shape.

Run:  pytest benchmarks/bench_vsearch.py --benchmark-only
The rendered table lands in benchmarks/results/vsearch_frontier.txt.
"""

import time

import pytest

from repro.apps.vsearch import VsearchApp
from repro.core import HarnessConfig, run_harness
from repro.stats import quantile

NPROBES = (1, 2, 4, 8)
LOAD = 0.4
MEASURE_REQUESTS = 1500

#: nprobe -> recall@10 over 128 sampled queries of the seed-0 corpus.
PINNED_RECALL = {1: 0.94296875, 2: 0.9734375, 4: 0.99453125, 8: 1.0}


def _mean_service(app, nprobe, n=96):
    client = app.make_client(seed=0)
    payloads = [client.next_request() for _ in range(n)]
    index, queries = app.index, app.corpus.queries
    for payload in payloads[:8]:
        index.search(queries[payload], k=app.top_k, nprobe=nprobe)
    start = time.perf_counter()
    for payload in payloads:
        index.search(queries[payload], k=app.top_k, nprobe=nprobe)
    return (time.perf_counter() - start) / n


def test_vsearch_frontier(benchmark, save_result):
    """Recall@10 vs p99 across the nprobe sweep."""
    app = VsearchApp(n_vectors=4096, n_lists=32, n_queries=256, seed=0)
    app.setup()

    rows = []
    recalls = {}
    for nprobe in NPROBES:
        recall = app.recall_at_k(nprobe=nprobe, sample=128)
        mean = _mean_service(app, nprobe)
        sweep_app = VsearchApp(
            n_vectors=4096, n_lists=32, nprobe=nprobe, n_queries=256, seed=0
        )
        sweep_app.setup()
        result = run_harness(
            sweep_app,
            HarnessConfig(
                configuration="integrated",
                qps=LOAD / mean,
                n_threads=1,
                warmup_requests=150,
                measure_requests=MEASURE_REQUESTS,
                seed=0,
            ),
        )
        p99 = quantile(result.stats.samples(), 0.99)
        recalls[nprobe] = recall
        rows.append((nprobe, recall, mean, p99, result))

    lines = ["vsearch recall/latency frontier (nprobe sweep, 40% load):"]
    for nprobe, recall, mean, p99, _ in rows:
        lines.append(
            f"  nprobe={nprobe}: recall@10={recall:.3f}  "
            f"service={mean * 1e6:.0f}us  p99={p99 * 1e3:.2f}ms"
        )
    report = "\n".join(lines)
    print(report)
    save_result("vsearch_frontier", report)

    benchmark(lambda: None)  # timing lives in the sweep above

    # Sanity: every run completed cleanly.
    for _, _, _, _, result in rows:
        assert result.stats.count == MEASURE_REQUESTS
        assert not result.server_errors
    # Recall climbs monotonically with probed mass and is near-exact
    # by nprobe=8 (a quarter of the 32 lists probed).
    recall_values = [recalls[n] for n in NPROBES]
    assert all(
        a <= b + 1e-9 for a, b in zip(recall_values, recall_values[1:])
    )
    assert recalls[1] > 0.5
    assert recalls[8] > 0.95
    assert recalls == pytest.approx(PINNED_RECALL, abs=1e-9)
    # Work grows with nprobe: the widest probe costs measurably more.
    assert rows[-1][2] > rows[0][2]
