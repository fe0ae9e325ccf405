"""Dynamic-batching gain: repeated A/B runs on the real img-dnn app.

Measures what adaptive batching buys on an actually vectorizable
workload: img-dnn's ``handle_batch`` stacks the batch into one
``(batch, pixels)`` matrix, so every layer's matmul runs once per batch
instead of once per request. At a saturating offered load the achieved
throughput is the server's service capacity, so the A/B ratio is the
end-to-end amortization factor — BLAS batching plus the per-dequeue
overhead the batched worker loop pays once per batch.

The disabled arm runs the untouched single-request worker loop
(structurally zero batching cost); the enabled arm forms
size-or-deadline batches of up to 16.

Run:  pytest benchmarks/bench_batching.py --benchmark-only
The rendered table lands in benchmarks/results/batching_gain.txt.
"""

import statistics

from repro.apps.img_dnn import ImgDnnApp
from repro.batching import BatchingConfig
from repro.core import HarnessConfig, run_harness

REPEATS = 3
#: Offered well past both arms' capacity so achieved == service rate.
CONFIG = dict(qps=25_000, warmup_requests=200, measure_requests=4000,
              n_threads=1)

BATCHING_ON = BatchingConfig(
    enabled=True, max_batch_size=16, max_batch_delay=0.002
)


def _runs(batching, seeds):
    results = []
    for seed in seeds:
        app = ImgDnnApp(train_samples=300, epochs=4, seed=0)
        app.setup()
        config = HarnessConfig(seed=seed, batching=batching, **CONFIG)
        results.append(run_harness(app, config))
    return results


def test_batching_gain(benchmark, save_result):
    """Median achieved-throughput ratio, batching on vs off."""
    seeds = list(range(REPEATS))
    off = _runs(BatchingConfig(), seeds)
    on = _runs(BATCHING_ON, seeds)

    off_qps = statistics.median(r.achieved_qps for r in off)
    on_qps = statistics.median(r.achieved_qps for r in on)
    ratio = on_qps / off_qps
    occupancy = statistics.median(r.stats.mean_batch_size for r in on)
    lines = [
        "dynamic-batching gain (img-dnn, saturating load, medians of "
        f"{REPEATS} runs):",
        f"  off: {off_qps:.0f}/s  "
        f"p99={statistics.median(r.sojourn.p99 for r in off) * 1e3:.1f}ms",
        f"  on : {on_qps:.0f}/s  "
        f"p99={statistics.median(r.sojourn.p99 for r in on) * 1e3:.1f}ms  "
        f"occupancy={occupancy:.1f}",
        f"  throughput ratio: {ratio:.2f}x",
    ]
    report = "\n".join(lines)
    print(report)
    save_result("batching_gain", report)

    benchmark(lambda: None)  # timing lives in the A/B above
    # Sanity: every request completed in both arms, and batches formed.
    for result in off + on:
        assert result.stats.count == CONFIG["measure_requests"]
        assert not result.server_errors
    assert occupancy > 4.0
    # The acceptance bar: vectorized batching is a >=1.3x capacity win
    # at the chosen operating point (observed ~1.6x; margin for CI).
    assert ratio >= 1.3
