"""Simulator integration: bit-identity, hit economics, composition."""

import dataclasses

import pytest

from repro.cache import predicted_hit_rate
from repro.control import AutoscalerConfig, ControlPlaneConfig
from repro.core import CacheConfig, ResilienceConfig
from repro.sim import SimConfig, simulate_load
from repro.sim.calibration import paper_profile

PROFILE = paper_profile("xapian")


def _fingerprint(result):
    return (
        tuple(round(x, 12) for x in result.stats.samples()),
        dict(result.outcomes),
        tuple(result.routed_counts),
    )


def _base(seed=0, **kwargs):
    defaults = dict(
        qps=0.5 / PROFILE.service.mean,
        n_threads=1,
        configuration="integrated",
        warmup_requests=100,
        measure_requests=1500,
        seed=seed,
    )
    defaults.update(kwargs)
    return SimConfig(**defaults)


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_disabled_equals_unconfigured(self, seed):
        # A config that never mentions the cache and one that names it
        # disabled must produce byte-identical runs: the subsystem off
        # is the subsystem absent.
        plain = simulate_load(PROFILE, _base(seed=seed))
        explicit = simulate_load(
            PROFILE,
            _base(seed=seed, cache=CacheConfig(enabled=False)),
        )
        assert _fingerprint(plain) == _fingerprint(explicit)

    def test_enabled_run_is_deterministic(self):
        config = _base(cache=CacheConfig(enabled=True, capacity=64))
        a = simulate_load(PROFILE, config)
        b = simulate_load(PROFILE, config)
        assert _fingerprint(a) == _fingerprint(b)
        assert a.cache_counts == b.cache_counts

    def test_enabled_differs_but_off_unaffected(self):
        # Running a cached sim must not perturb a later disabled run.
        before = _fingerprint(simulate_load(PROFILE, _base()))
        simulate_load(
            PROFILE, _base(cache=CacheConfig(enabled=True, capacity=64))
        )
        after = _fingerprint(simulate_load(PROFILE, _base()))
        assert before == after


class TestHitEconomics:
    def test_hits_are_cheap_and_counted(self):
        result = simulate_load(
            PROFILE,
            _base(
                measure_requests=3000,
                cache=CacheConfig(
                    enabled=True, policy="lfu", capacity=102,
                    sim_keyspace=512, sim_theta=0.9,
                ),
            ),
        )
        counts = result.cache_counts
        rate = counts["hits"] / (counts["hits"] + counts["misses"])
        predicted = predicted_hit_rate(512, 0.9, 102)
        assert abs(rate - predicted) <= 0.05
        # cached load completes the same requests with less busy time
        baseline = simulate_load(PROFILE, _base(measure_requests=3000))
        assert result.utilization < baseline.utilization
        assert "cache:" in result.describe()

    def test_ttl_expires_in_virtual_time(self):
        result = simulate_load(
            PROFILE,
            _base(cache=CacheConfig(
                enabled=True, capacity=512, ttl=0.25,
            )),
        )
        assert result.cache_counts["expirations"] > 0

    def test_cold_restart_clears_midrun(self):
        warm_cfg = _base(cache=CacheConfig(enabled=True, capacity=102))
        cold_cfg = _base(cache=CacheConfig(
            enabled=True, capacity=102, clear_at=1.0,
        ))
        warm = simulate_load(PROFILE, warm_cfg)
        cold = simulate_load(PROFILE, cold_cfg)
        # the wiped cache re-pays misses it had already absorbed
        assert cold.cache_counts["misses"] > warm.cache_counts["misses"]

    def test_routed_multiserver_path_feeds_keys(self):
        result = simulate_load(
            PROFILE,
            _base(
                n_servers=2,
                cache=CacheConfig(enabled=True, capacity=64),
            ),
        )
        assert result.cache_counts["hits"] > 0


class TestControlComposition:
    def test_autoscaler_reacts_to_cold_cache_overload(self):
        # Warm cache carries the load on one replica; wiping it pushes
        # effective utilization past 1 and queue depth up, which is the
        # signal the autoscaler scales on — the tentpole's
        # cached-steady-state -> cold restart -> overload -> recovery
        # composition, in one assertion.
        qps = 1.3 / PROFILE.service.mean
        span = 3000 / qps
        control = ControlPlaneConfig(
            enabled=True,
            tick_interval=0.05,
            autoscaler=AutoscalerConfig(
                min_servers=1, max_servers=3,
                scale_up_depth=4.0, scale_down_util=0.1,
                hysteresis_ticks=2, cooldown=0.2,
            ),
        )
        base = dict(
            qps=qps, n_threads=1, configuration="integrated",
            warmup_requests=200, measure_requests=2800, seed=0,
            control=control,
        )
        warm = simulate_load(PROFILE, SimConfig(
            cache=CacheConfig(enabled=True, policy="lfu", capacity=102),
            **base,
        ))
        cold = simulate_load(PROFILE, SimConfig(
            cache=CacheConfig(
                enabled=True, policy="lfu", capacity=102,
                clear_at=0.5 * span,
            ),
            **base,
        ))
        assert cold.control_counts["scale_ups"] >= warm.control_counts[
            "scale_ups"
        ]
        assert cold.cache_counts["misses"] > warm.cache_counts["misses"]


class TestComposition:
    def test_rejects_resilience(self):
        with pytest.raises(ValueError):
            _base(
                cache=CacheConfig(enabled=True),
                resilience=ResilienceConfig(deadline=0.05, max_retries=2),
            )
