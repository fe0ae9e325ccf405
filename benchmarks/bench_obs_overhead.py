"""Observability overhead: repeated A/B runs on the integrated config.

Quantifies what the tracing/metrics layer costs:

- tracing **disabled** (the default): structurally zero — each hot
  point guards with one ``is None`` test and nothing is allocated;
  A/B deltas are indistinguishable from run-to-run noise (<1%).
- tracing **enabled**: full lifecycle tracing (~6 ring events per
  request), the send-delay histogram, and the 50 ms sampler thread.
  Cost is a fixed few microseconds per request, so the relative
  overhead depends on service time: ~3% of p50 at ~300 us service
  times, ~10% in an adversarial ~30 us microbenchmark. p99 deltas
  are dominated by scheduler noise at this scale, so the assertion
  bounds the (stable) p50.
- streaming SLO engine **on top of tracing**: windowed HdrHistogram
  sketches, burn-rate accounting, and exemplar capture add two more
  hook calls per request (one at send, one at completion). The third
  arm measures that *incremental* cost against the tracing arm.

Run:  pytest benchmarks/bench_obs_overhead.py --benchmark-only
The rendered table lands in benchmarks/results/obs_overhead.txt; the
medians here are the numbers DESIGN.md quotes.
"""

import statistics

from repro.core import HarnessConfig, ObservabilityConfig
from repro.core.harness import run_harness

REPEATS = 5
#: ~300us of busy-work per request at 60% load: large enough that the
#: per-request tracing cost is realistic, small enough to finish fast.
CONFIG = dict(qps=1200, warmup_requests=50, measure_requests=800)


class ConstantApp:
    def __init__(self, iterations=3000):
        self.iterations = iterations

    def setup(self):
        pass

    def process(self, payload):
        acc = 0
        for i in range(self.iterations):
            acc += i * i
        return acc

    def make_client(self, seed=0):
        class _Client:
            def next_request(self):
                return None

        return _Client()


def _runs(observability, seeds, app):
    results = []
    for seed in seeds:
        config = HarnessConfig(
            seed=seed, observability=observability, **CONFIG
        )
        results.append(run_harness(app, config))
    return results


def test_obs_overhead(benchmark, save_result):
    """Median p50/p99 deltas: tracing vs off, SLO engine vs tracing."""
    from repro.core.config import SloConfig

    app = ConstantApp()
    seeds = list(range(REPEATS))
    off = _runs(ObservabilityConfig(), seeds, app)
    on = _runs(ObservabilityConfig(tracing=True), seeds, app)
    slo = ObservabilityConfig(
        tracing=True,
        slo=SloConfig(enabled=True, target=0.01, objective=0.99,
                      window=0.25),
    )
    live = _runs(slo, seeds, app)

    def med(results, pct):
        return statistics.median(getattr(r.sojourn, pct) for r in results)

    lines = [
        "observability overhead (integrated, 1200 qps, ~300us service, "
        f"medians of {REPEATS} runs):"
    ]
    deltas = {}
    for label, base_results, arm_results in (
        ("tracing", off, on),
        ("slo", on, live),
    ):
        for pct in ("p50", "p99"):
            base, armed = med(base_results, pct), med(arm_results, pct)
            delta = 100.0 * (armed - base) / base if base else 0.0
            deltas[f"{label}_{pct}"] = delta
            lines.append(
                f"  {label} {pct}: base={base * 1e6:.1f}us "
                f"on={armed * 1e6:.1f}us delta={delta:+.2f}%"
            )
    lines.append(f"  events per run: {len(on[0].obs.events)}")
    lines.append(
        f"  slo windows per run: {len(live[0].obs.live.windows)}"
    )
    report = "\n".join(lines)
    print(report)
    save_result("obs_overhead", report)

    benchmark(lambda: None)  # timing lives in the A/B above
    # The issue's <2% bar applies to the DISABLED path, which is
    # structurally free (see tests/obs/test_overhead.py). Enabled
    # tracing pays a few us per request; bound the stable p50 metric
    # with headroom for noisy CI containers. The SLO engine's target
    # is <=5% incremental p50 over tracing (two sketch updates per
    # request), with the same noise headroom.
    assert deltas["tracing_p50"] < 15.0
    assert deltas["slo_p50"] < 12.0
