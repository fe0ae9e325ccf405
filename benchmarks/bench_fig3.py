"""Fig. 3: mean/p95/p99 latency vs. request rate, single thread.

Shape criteria: latencies rise with load for every app; tails blow up
near saturation much faster than means; saturation rates sit near the
per-app analytic capacity.
"""

import pytest

from repro.experiments.fig3 import render_fig3, run_fig3
from repro.sim import network_model_for, paper_profile

MEASURE_REQUESTS = 6000


def test_fig3(benchmark, save_result):
    curves = benchmark.pedantic(
        run_fig3,
        kwargs={"measure_requests": MEASURE_REQUESTS},
        rounds=1,
        iterations=1,
    )
    text = render_fig3(curves)
    print("\n" + text)
    save_result("fig3", text)

    occupancy = network_model_for("networked").server_occupancy
    for name, curve in curves.items():
        # Latency ordering within every point: mean <= p95 <= p99.
        for m, a, b in zip(curve.mean, curve.p95, curve.p99):
            assert m <= a <= b
        # Monotone-ish in load (tails rise overall).
        assert curve.p95[-1] > 3 * curve.p95[0], name
        assert curve.mean[-1] > curve.mean[0], name
        # Tail blow-up: in absolute terms the p99 opens a much larger
        # gap than the mean as load approaches saturation.
        p99_gap = curve.p99[-1] - curve.p99[0]
        mean_gap = curve.mean[-1] - curve.mean[0]
        assert p99_gap > 1.5 * mean_gap, name
        # Saturation sits at the analytic capacity for this config.
        capacity = 1.0 / (paper_profile(name).service.mean + occupancy)
        assert curve.qps[-1] == pytest.approx(0.95 * capacity, rel=1e-6), name
    benchmark.extra_info["apps"] = len(curves)
