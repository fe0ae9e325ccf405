"""Simulator integration: bit-identity, hit economics, composition."""

import pytest

from repro.cache import RequestCache, predicted_hit_rate
from repro.control import AutoscalerConfig, ControlPlaneConfig
from repro.core import CacheConfig, ResilienceConfig
from repro.faults import FaultPlan
from repro.sim import SimConfig, simulate_load
from repro.sim.calibration import paper_profile

PROFILE = paper_profile("xapian")


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
        assert plain.fingerprint() == explicit.fingerprint()

    def test_enabled_run_is_deterministic(self):
        config = _base(cache=CacheConfig(enabled=True, capacity=64))
        a = simulate_load(PROFILE, config)
        b = simulate_load(PROFILE, config)
        assert a.fingerprint() == b.fingerprint()
        assert a.cache_counts == b.cache_counts

    def test_enabled_differs_but_off_unaffected(self):
        # Running a cached sim must not perturb a later disabled run.
        before = simulate_load(PROFILE, _base()).fingerprint()
        simulate_load(
            PROFILE, _base(cache=CacheConfig(enabled=True, capacity=64))
        )
        after = simulate_load(PROFILE, _base()).fingerprint()
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
    """Cache x resilience x faults: the key rides the one wire."""

    def test_every_attempt_of_a_request_carries_its_key(self, monkeypatch):
        lookups = []
        real_lookup = RequestCache.lookup

        def spy(cache, key, now, logical_id=None, attempt=None, **ids):
            lookups.append((logical_id, attempt, key))
            return real_lookup(
                cache, key, now, logical_id=logical_id, attempt=attempt, **ids
            )

        monkeypatch.setattr(RequestCache, "lookup", spy)
        mean = PROFILE.service.mean
        result = simulate_load(PROFILE, _base(
            n_servers=2,
            balancer="power_of_two",
            cache=CacheConfig(enabled=True, capacity=64),
            resilience=ResilienceConfig(
                deadline=400 * mean, attempt_timeout=40 * mean, max_retries=2,
                hedge_after=10 * mean,
            ),
            faults=FaultPlan(
                drop_rate=0.05, duplicate_rate=0.05, error_rate=0.1
            ),
        ))
        outcomes, faults = result.outcomes, result.fault_counts
        assert outcomes["offered"] == 1600 == (
            outcomes["succeeded"] + outcomes["failed"] + outcomes["timed_out"]
        )
        # Every attempt the wire delivered — duplicates included, drops
        # excluded — reached a worker, and each did exactly one lookup.
        reached = (
            outcomes["attempts"] - faults["drops"] + faults["duplicates"]
        )
        assert sum(result.routed_counts) == reached == len(lookups)
        counts = result.cache_counts
        assert counts["hits"] + counts["misses"] == reached
        assert counts["hits"] > 0
        # A retried or hedged request looks the same key up again ...
        keys = {}
        for logical_id, _, key in lookups:
            keys.setdefault(logical_id, set()).add(key)
        assert all(len(seen) == 1 for seen in keys.values())
        assert outcomes["retries"] and outcomes["hedges"]
        assert any(attempt > 1 for _, attempt, _ in lookups)
        # ... and it is the key the cache-only run gives that arrival:
        # one draw per arrival, in schedule order, from the same stream.
        del lookups[:]
        simulate_load(PROFILE, _base(
            cache=CacheConfig(enabled=True, capacity=64)
        ))
        # A bare send carries no logical id; arrival order is lookup
        # order on an unbatched single server fed in schedule order.
        assert len(lookups) == 1600
        assert all(
            keys.get(i, {key}) == {key}
            for i, (_, _, key) in enumerate(lookups)
        )
