"""Guards on the cost of observability.

The acceptance bar is structural plus statistical:

- disabled runs must construct NOTHING — no tracer, no registry, no
  sampler thread; a disabled feature is absent from the transport's
  feed lists, so the hot path has nothing of it to skip;
- the virtual-time simulator must produce bit-identical latency
  results with tracing on (instrumentation cannot perturb virtual
  time), which pins the *logical* overhead at zero;
- a live A/B run bounds the wall-clock p99 regression of the disabled
  path. The issue's <2% bar was measured offline over repeated runs
  (see DESIGN.md); a single CI sample is too noisy to assert 2%, so
  the guard here uses a generous multiple that still catches
  accidental always-on instrumentation.
"""

import sys

from repro.core import HarnessConfig, ObservabilityConfig
from repro.core.harness import run_harness
from repro.sim import SimConfig, simulate_app

TRACING = ObservabilityConfig(tracing=True)


class ConstantApp:
    def __init__(self, iterations=150):
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


class TestDisabledPathIsFree:
    def test_no_obs_objects_constructed(self):
        result = run_harness(
            ConstantApp(),
            HarnessConfig(qps=2000, warmup_requests=5, measure_requests=50),
        )
        assert result.obs is None

    def test_transport_holds_no_tracer_when_disabled(self):
        from repro.core.clock import WallClock
        from repro.core.transport import make_transport

        transport = make_transport("integrated", WallClock())
        assert transport._tracer is None
        assert transport.on_send == transport.on_complete == ()

    def test_obs_package_not_imported_by_default_path(self):
        # The lazy-import contract: a plain run must never pull in the
        # obs package. Guard via a subprocess-free check — the modules
        # must not have been (re)imported as a side effect of the
        # disabled-path run above in THIS process only if nothing else
        # imported them; instead verify the import is confined to the
        # shared assembly's enabled branches by source inspection.
        import inspect

        from repro.core import harness, run

        for module in (harness, run):
            top_level = [
                line for line in inspect.getsource(module).splitlines()
                if line.startswith(("from ", "import "))
            ]
            assert not any("obs" in line for line in top_level)
        # ... only inside the assembly, behind the tracing switch.
        assert "from ..obs import" in inspect.getsource(run.RunParts)

    def test_sim_disabled_has_no_obs(self):
        result = simulate_app(
            "masstree", SimConfig(qps=2000, warmup_requests=5,
                                  measure_requests=100)
        )
        assert result.obs is None


class TestOverheadBound:
    def test_sim_latencies_bit_identical_with_tracing(self):
        base = SimConfig(qps=2000, warmup_requests=20, measure_requests=400)
        plain = simulate_app("masstree", base)
        traced = simulate_app("masstree", base.replace(observability=TRACING))
        assert plain.sojourn.p50 == traced.sojourn.p50
        assert plain.sojourn.p99 == traced.sojourn.p99
        assert plain.queue.mean == traced.queue.mean

    def test_live_enabled_overhead_bounded(self):
        # A/B on the integrated config. p99 of a single short run
        # swings 2x with scheduler noise, so the asserted bound is on
        # the stable p50 (median of 3), and deliberately loose (2x);
        # the measured overhead is benchmarks/bench_obs_overhead.py's
        # repeated A/B and hotpath's obs.tracing_overhead_p50_pct
        # (ROADMAP item 3). This guard catches
        # order-of-magnitude regressions in the enabled path, e.g. a
        # lock or an unbounded log on the emit path.
        import statistics

        app = ConstantApp()

        def median_p50(observability):
            p50s = []
            for seed in (1, 2, 3):
                result = run_harness(
                    app,
                    HarnessConfig(
                        qps=2000, warmup_requests=50, measure_requests=300,
                        seed=seed, observability=observability,
                    ),
                )
                p50s.append(result.sojourn.p50)
            return statistics.median(p50s)

        median_p50(ObservabilityConfig())  # warm the code paths
        base = median_p50(ObservabilityConfig())
        traced = median_p50(TRACING)
        if sys.platform.startswith("linux"):
            assert traced <= 2.0 * base
