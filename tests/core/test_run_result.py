"""RunResult.fingerprint(): the bit-identity triple."""

from repro.core.config import ObservabilityConfig
from repro.sim import SimConfig, simulate_app


def _run(seed=0, **kwargs):
    config = SimConfig(
        qps=600.0,
        n_servers=2,
        balancer="round_robin",
        warmup_requests=50,
        measure_requests=400,
        seed=seed,
        **kwargs,
    )
    return simulate_app("xapian", config)


class TestFingerprint:
    def test_is_the_plain_triple(self):
        result = _run()
        samples, outcomes, routed = result.fingerprint()
        assert type(samples) is tuple and len(samples) == 400
        assert samples == tuple(round(x, 12) for x in result.stats.samples())
        assert type(outcomes) is dict and outcomes == result.outcomes
        assert outcomes is not result.outcomes
        assert type(routed) is tuple and routed == tuple(result.routed_counts)

    def test_equal_for_one_seed_differs_across_seeds(self):
        assert _run(seed=1).fingerprint() == _run(seed=1).fingerprint()
        assert _run(seed=1).fingerprint() != _run(seed=2).fingerprint()

    def test_tracing_is_observation_only_in_the_simulator(self):
        traced = _run(observability=ObservabilityConfig(tracing=True))
        assert traced.obs is not None
        assert traced.fingerprint() == _run().fingerprint()
