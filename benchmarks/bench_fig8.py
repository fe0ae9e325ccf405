"""Fig. 8: the Sec. VII case study — moses vs silo thread scaling.

Shape criteria: moses's ideal-memory simulation tracks the M/G/n
queueing model at both thread counts (its real-system collapse was
memory contention); silo's 4-thread ideal-memory curve stays above
M/G/4 (synchronization overheads survive ideal memory).
"""

from repro.experiments.fig8 import render_fig8, run_fig8

MEASURE_REQUESTS = 12_000


def test_fig8(benchmark, save_result):
    results = benchmark.pedantic(
        run_fig8,
        kwargs={"measure_requests": MEASURE_REQUESTS},
        rounds=1,
        iterations=1,
    )
    text = render_fig8(results)
    print("\n" + text)
    save_result("fig8", text)

    # The paper's headline conclusions.
    assert results["moses"].ideal_tracks_mgn(1)
    assert results["moses"].ideal_tracks_mgn(4)
    assert not results["silo"].ideal_tracks_mgn(4)

    # silo's divergence is one-sided: ideal memory >= model everywhere
    # at moderate loads (sync overhead only ever hurts).
    silo = results["silo"]
    for i, load in enumerate(silo.load_points):
        if load > 0.75:
            continue
        assert (
            silo.series["ideal-mem 4T"][i] >= silo.series["M/G/4"][i] * 0.99
        )

    # Normalization anchor: 1-thread low-load point sits near 1x.
    for result in results.values():
        assert 0.5 < result.series["M/G/1"][0] < 2.0
    benchmark.extra_info["apps"] = len(results)
