"""Fig. 4: p95 vs per-thread load at 1/2/4 threads.

Shape criteria: masstree and xapian keep per-thread saturation roughly
constant as threads grow; silo's per-thread saturation degrades at
every step (synchronization); moses is fine at 2 threads but collapses
below its single-thread rate at 4 (memory contention).
"""

from repro.experiments.fig4 import render_fig4, run_fig4

MEASURE_REQUESTS = 5000


def test_fig4(benchmark, save_result):
    results = benchmark.pedantic(
        run_fig4,
        kwargs={"measure_requests": MEASURE_REQUESTS},
        rounds=1,
        iterations=1,
    )
    text = render_fig4(results)
    print("\n" + text)
    save_result("fig4", text)

    def per_thread_sat(name, k):
        return results[name].per_thread_saturation(k)

    # Well-scaling apps: 4-thread per-thread saturation within ~12% of
    # single-thread.
    for name in ("masstree", "xapian"):
        assert per_thread_sat(name, 4) > 0.85 * per_thread_sat(name, 1), name

    # silo: monotone degradation with thread count (Fig. 4).
    assert per_thread_sat("silo", 2) < 0.97 * per_thread_sat("silo", 1)
    assert per_thread_sat("silo", 4) < per_thread_sat("silo", 2)

    # moses: fine at 2 threads, collapses below 1-thread rate at 4.
    assert per_thread_sat("moses", 2) > 0.8 * per_thread_sat("moses", 1)
    assert per_thread_sat("moses", 4) < 0.75 * per_thread_sat("moses", 1)
    benchmark.extra_info["apps"] = len(results)
