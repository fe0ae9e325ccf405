"""Simulator fan-out: K=1 bit-identity, determinism, tail prediction."""

import pytest

from repro.core import FanoutConfig
from repro.core.config import ObservabilityConfig
from repro.sim import SimConfig, simulate_app
from repro.stats import quantile


def _config(k, **kwargs):
    return SimConfig(
        qps=600.0,
        n_threads=1,
        configuration="integrated",
        n_servers=k,
        warmup_requests=50,
        measure_requests=1500,
        seed=5,
        fanout=FanoutConfig(enabled=True, shards=k),
        **kwargs,
    )


class TestK1BitIdentity:
    def test_k1_sharded_equals_unsharded(self):
        sharded = simulate_app("xapian", _config(1))
        plain = simulate_app(
            "xapian",
            SimConfig(
                qps=600.0,
                n_threads=1,
                configuration="integrated",
                n_servers=1,
                warmup_requests=50,
                measure_requests=1500,
                seed=5,
            ),
        )
        assert sharded.fingerprint() == plain.fingerprint()

    def test_k1_fanout_stats_match_e2e(self):
        result = simulate_app("xapian", _config(1))
        assert result.fanout.leaf_samples() == pytest.approx(
            list(result.stats.samples())
        )
        assert result.fanout.critical_counts == [1500]


class TestSimFanout:
    @pytest.fixture(scope="class")
    def result(self):
        return simulate_app("vsearch", _config(4))

    def test_deterministic_per_seed(self, result):
        again = simulate_app("vsearch", _config(4))
        assert result.fingerprint() == again.fingerprint()
        assert result.fanout.critical_counts == again.fanout.critical_counts

    def test_every_gather_completes(self, result):
        assert result.fanout.completed == 1550
        assert result.fanout.failed == 0
        assert result.stats.count == 1500
        for shard in range(4):
            assert len(result.fanout.shard_samples[shard]) == 1500

    def test_scatter_amplification(self, result):
        assert result.outcomes["offered"] == 1550
        assert result.outcomes["attempts"] == 6200

    def test_e2e_p99_at_least_any_shard_p99(self, result):
        e2e = quantile(result.stats.samples(), 0.99)
        for shard in range(4):
            assert e2e >= result.fanout.shard_p99(shard) - 1e-12

    def test_prediction_matches_measured(self, result):
        # Moderate utilization: the iid order-statistic prediction
        # should land within ~12% of the measured e2e p99 (the shards
        # share the arrival stream, so exactness is not expected).
        measured = quantile(result.stats.samples(), 0.99)
        predicted = result.fanout.predicted_quantile(0.99)
        assert measured == pytest.approx(predicted, rel=0.12)

    def test_e2e_tail_climbs_with_fanout(self):
        p99 = {}
        for k in (1, 2, 8):
            r = simulate_app("vsearch", _config(k))
            p99[k] = quantile(r.stats.samples(), 0.99)
        assert p99[1] < p99[2] < p99[8]

    def test_trace_events(self):
        result = simulate_app(
            "vsearch",
            _config(
                2,
                observability=ObservabilityConfig(tracing=True,
                                                  trace_capacity=50_000),
            ),
        )
        kinds = [e.kind for e in result.obs.events]
        assert kinds.count("fanout_send") == 3100
        assert kinds.count("fanout_gather") == 1550
