"""Control-plane overhead: repeated A/B runs on the integrated config.

Quantifies what the closed-loop control plane costs on the hot path:

- control **disabled** (the default): structurally zero — the queue's
  gate/buffer hooks are ``None``, the transport's classify/observe
  hooks are one ``is None`` test each, and no control thread exists;
  A/B deltas are indistinguishable from run-to-run noise.
- control **enabled** (admission + priority + autoscaler at a healthy
  operating point): each send takes one seeded-RNG classification and
  one gate decision under a lock, each completion appends one float to
  the AIMD window, and a 20 ms control loop reads snapshots in the
  background. The run is sized so no controller *acts* (no sheds, no
  scaling), isolating pure mechanism cost from policy effects.

Run:  pytest benchmarks/bench_control_overhead.py --benchmark-only
The rendered table lands in benchmarks/results/control_overhead.txt.
"""

import statistics

from repro.control import (
    AdmissionConfig,
    AutoscalerConfig,
    ControlPlaneConfig,
    NO_CONTROL,
    PriorityConfig,
    RequestClassSpec,
)
from repro.core import HarnessConfig
from repro.core.harness import run_harness

REPEATS = 5
#: ~300us of busy-work per request at 60% load, far from every control
#: threshold so the A/B measures mechanism, not shedding or scaling.
CONFIG = dict(qps=1200, warmup_requests=50, measure_requests=800)

CONTROL_ON = ControlPlaneConfig(
    enabled=True,
    tick_interval=0.02,
    admission=AdmissionConfig(target_p99=0.5, initial_limit=4096),
    priority=PriorityConfig(
        classes=(
            RequestClassSpec("interactive", priority=1, fraction=0.9),
            RequestClassSpec("batch", priority=0, fraction=0.1),
        ),
        mode="strict",
    ),
    autoscaler=AutoscalerConfig(
        min_servers=1, max_servers=2, scale_up_depth=1e9,
        scale_down_util=0.0,
    ),
)


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


def _runs(control, seeds, app):
    results = []
    for seed in seeds:
        config = HarnessConfig(seed=seed, control=control, **CONFIG)
        results.append(run_harness(app, config))
    return results


def test_control_overhead(benchmark, save_result):
    """Median p50/p99 delta, control plane enabled vs disabled."""
    app = ConstantApp()
    seeds = list(range(REPEATS))
    off = _runs(NO_CONTROL, seeds, app)
    on = _runs(CONTROL_ON, seeds, app)

    def med(results, pct):
        return statistics.median(getattr(r.sojourn, pct) for r in results)

    lines = [
        "control-plane overhead (integrated, 1200 qps, ~300us service, "
        f"medians of {REPEATS} runs):"
    ]
    deltas = {}
    for pct in ("p50", "p99"):
        base, controlled = med(off, pct), med(on, pct)
        delta = 100.0 * (controlled - base) / base if base else 0.0
        deltas[pct] = delta
        lines.append(
            f"  {pct}: off={base * 1e6:.1f}us on={controlled * 1e6:.1f}us "
            f"delta={delta:+.2f}%"
        )
    counts = on[0].control_counts
    lines.append(
        f"  controlled run: ticks={counts['ticks']} "
        f"admitted={counts['admitted']} sheds="
        f"{counts['codel_dropped'] + counts['limit_dropped']} "
        f"scale_actions={counts['scale_ups'] + counts['scale_downs']}"
    )
    report = "\n".join(lines)
    print(report)
    save_result("control_overhead", report)

    benchmark(lambda: None)  # timing lives in the A/B above
    # Every controlled run must have admitted everything: the A/B is
    # invalid if policy (shedding/scaling) contaminated it.
    for result in on:
        assert result.outcomes.get("shed", 0) == 0
        assert result.control_counts["scale_ups"] == 0
    # The enabled path costs a few us per request (classify + gate +
    # window append); bound the stable p50 with CI-container headroom.
    assert deltas["p50"] < 15.0
