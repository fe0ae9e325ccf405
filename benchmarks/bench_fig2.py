"""Fig. 2: service-time CDFs for all eight applications.

Shape criteria: masstree/img-dnn near-constant; xapian/moses broad;
specjbb/shore narrow body with a long tail; sphinx seconds-scale.
"""

from repro.experiments.fig2 import render_fig2, run_fig2

N_SAMPLES = 20_000


def test_fig2(benchmark, save_result):
    cdfs = benchmark.pedantic(
        run_fig2, kwargs={"n_samples": N_SAMPLES}, rounds=1, iterations=1
    )
    text = render_fig2(cdfs)
    print("\n" + text)
    save_result("fig2", text)

    q = {name: cdf.quantiles() for name, cdf in cdfs.items()}

    # Near-constant service times (tight p5-p95 spread).
    assert q["masstree"][0.95] / q["masstree"][0.05] < 3.0
    assert q["img-dnn"][0.95] / q["img-dnn"][0.05] < 3.0
    # Broad distributions.
    assert q["xapian"][0.95] / q["xapian"][0.05] > 5.0
    # Long-tailed: p99 well beyond p75 relative to body width.
    for name in ("specjbb", "shore", "silo"):
        body = q[name][0.75] / q[name][0.25]
        tail = q[name][0.99] / q[name][0.75]
        assert tail > body, name
    # Timescale span: sphinx requests take seconds, silo microseconds.
    assert q["sphinx"][0.5] > 0.1
    assert q["silo"][0.5] < 100e-6
    # Fig. 2 x-axis ranges (rough absolute anchors, in seconds).
    assert 0.0002 < q["xapian"][0.95] < 0.006
    assert 0.0005 < q["moses"][0.95] < 0.008
    benchmark.extra_info["apps"] = len(cdfs)
