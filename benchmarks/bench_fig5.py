"""Fig. 5: harness-configuration validation, single-threaded.

Shape criteria (the paper's annotations): networked/loopback saturate
~39% (silo) and ~23% (specjbb) below integrated; the six long-request
apps agree across configurations; simulation differs from integrated by
each app's constant speed factor (red annotations: 10-32%).
"""

import pytest

from repro.experiments.fig5 import render_fig5, run_fig5

MEASURE_REQUESTS = 4000

#: Fig. 5's red annotations: simulation-vs-integrated saturation gap.
PAPER_SIM_ERROR = {
    "xapian": 0.10, "masstree": 0.16, "moses": 0.20, "sphinx": 0.16,
    "img-dnn": 0.31, "shore": 0.32,
}


def test_fig5(benchmark, save_result):
    results = benchmark.pedantic(
        run_fig5,
        kwargs={"measure_requests": MEASURE_REQUESTS},
        rounds=1,
        iterations=1,
    )
    text = render_fig5(results)
    print("\n" + text)
    save_result("fig5", text)

    # Green annotations: short-request apps lose capacity on the wire.
    assert results["silo"].saturation_drop("networked") == pytest.approx(
        0.39, abs=0.08
    )
    assert results["specjbb"].saturation_drop("networked") == pytest.approx(
        0.23, abs=0.08
    )

    # Long-request apps: all three real-system configurations agree.
    # masstree's ~200 us requests sit between the extremes: the ~100 us
    # wire RTT is visible at low load (as in Table I's masstree row)
    # but still far from silo/specjbb's capacity loss.
    for name in ("xapian", "masstree", "moses", "sphinx", "img-dnn", "shore"):
        comparison = results[name]
        assert comparison.saturation_drop("networked") < 0.07, name
        # p95 curves nearly coincide at moderate loads.
        tolerance = 0.6 if name == "masstree" else 0.25
        for i in range(5):  # loads 10%..50%
            values = [
                comparison.curves[setup].p95[i]
                for setup in ("networked", "loopback", "integrated")
            ]
            spread = (max(values) - min(values)) / min(values)
            assert spread < tolerance, (name, i)

    # Red annotations: simulated system faster by the per-app factor.
    for name, gap in PAPER_SIM_ERROR.items():
        drop = results[name].saturation_drop("simulation")
        assert drop == pytest.approx(-gap, abs=0.05), name
    benchmark.extra_info["apps"] = len(results)
