"""HealthManager: EWMA tracking, ejection, probation, routing."""

import pytest

from repro.health import HealthConfig, HealthManager
from repro.health.config import NO_HEALTH


def make_manager(**overrides):
    defaults = dict(
        enabled=True,
        min_samples=5,
        failure_rate_threshold=0.5,
        probe_interval=4,
        readmit_successes=2,
        breaker_failures=100,  # keep the breaker out of ejection tests
    )
    defaults.update(overrides)
    return HealthManager(HealthConfig(**defaults))


def feed_failures(manager, server_id, n, t0=0.0):
    for i in range(n):
        manager.record_attempt(server_id, None, False, t0 + i * 0.01)


def feed_successes(manager, server_id, n, latency=0.01, t0=0.0):
    for i in range(n):
        manager.record_attempt(server_id, latency, True, t0 + i * 0.01)


class TestConfig:
    def test_disabled_default_is_no_health(self):
        assert not NO_HEALTH.enabled
        assert NO_HEALTH == HealthConfig()

    def test_manager_rejects_disabled_config(self):
        with pytest.raises(ValueError):
            HealthManager(NO_HEALTH)

    def test_validation(self):
        with pytest.raises(TypeError):  # a constant of the tracker, not a knob
            HealthConfig(ewma_alpha=0.5)
        with pytest.raises(ValueError):
            HealthConfig(failure_rate_threshold=1.5)
        with pytest.raises(ValueError):
            HealthConfig(latency_factor=1.0)
        with pytest.raises(ValueError):
            HealthConfig(max_ejected_fraction=1.0)
        with pytest.raises(ValueError):
            HealthConfig(retry_budget_cap=1.0, retry_budget_reserve=5.0)


class TestEjection:
    def test_failing_replica_is_ejected(self):
        manager = make_manager()
        feed_successes(manager, 0, 10)
        feed_successes(manager, 1, 10)
        feed_failures(manager, 2, 10)
        view = manager.view()
        assert view.replica(2).ejected
        assert not view.replica(0).ejected
        assert manager.counts()["ejections"] == 1

    def test_min_samples_protects_cold_replicas(self):
        manager = make_manager(min_samples=10)
        feed_successes(manager, 1, 10)  # healthy peer
        feed_failures(manager, 0, 9)
        assert not manager.view().replica(0).ejected
        feed_failures(manager, 0, 1, t0=1.0)
        assert manager.view().replica(0).ejected

    def test_max_ejected_fraction_caps_mass_ejection(self):
        # Global fault: every replica fails. Only floor(0.5 * 3) = 1
        # may be ejected; the other two stay routable.
        manager = make_manager(max_ejected_fraction=0.5)
        for server_id in (0, 1, 2):
            feed_failures(manager, server_id, 10)
        ejected = [v.server_id for v in manager.view().replicas if v.ejected]
        assert len(ejected) == 1

    def test_latency_outlier_ejected_against_peer_median(self):
        # The slow replica is ejected at min_samples; its *successful*
        # probes then readmit it (slowness is not failure) — so assert
        # the ejection event, not the final flag.
        manager = make_manager(latency_factor=3.0, breaker_failures=100)
        feed_successes(manager, 0, 10, latency=0.010)
        feed_successes(manager, 1, 10, latency=0.011)
        feed_successes(manager, 2, 10, latency=0.200)  # 20x the median
        assert manager.counts()["ejections"] >= 1

    def test_latency_criterion_off_by_default(self):
        manager = make_manager()
        feed_successes(manager, 0, 10, latency=0.010)
        feed_successes(manager, 2, 10, latency=10.0)
        assert not manager.view().replica(2).ejected


class TestRouting:
    def test_route_filters_ejected_replica(self):
        manager = make_manager()
        feed_successes(manager, 0, 10)
        feed_successes(manager, 1, 10)
        feed_failures(manager, 2, 10)
        candidates, forced = manager.route([0, 1, 2], now=1.0)
        assert candidates == [0, 1]
        assert not forced

    def test_route_fails_open_when_everyone_is_unhealthy(self):
        # One ejected (the fraction cap blocks more), the others'
        # breakers open: the full set must come back, not an empty one.
        manager = make_manager(
            max_ejected_fraction=0.4, breaker_failures=3,
            breaker_reset_after=100.0,
        )
        for server_id in (0, 1, 2):
            feed_failures(manager, server_id, 10)
        candidates, forced = manager.route([0, 1, 2], now=1.0)
        assert candidates == [0, 1, 2]
        assert not forced

    def test_probation_probe_every_nth_decision(self):
        manager = make_manager(probe_interval=4)
        feed_successes(manager, 0, 10)
        feed_failures(manager, 1, 10)
        probes = 0
        for i in range(8):
            candidates, forced = manager.route([0, 1], now=2.0 + i)
            if forced:
                probes += 1
                assert candidates == [1]
            else:
                assert candidates == [0]
        assert probes == 2  # decisions 4 and 8
        assert manager.counts()["probes"] == 2

    def test_readmission_after_consecutive_probe_successes(self):
        manager = make_manager(readmit_successes=2)
        feed_successes(manager, 0, 10)
        feed_failures(manager, 1, 10)
        assert manager.view().replica(1).ejected
        manager.record_attempt(1, 0.01, True, 3.0)
        manager.record_attempt(1, None, False, 3.1)  # restarts the count
        manager.record_attempt(1, 0.01, True, 3.2)
        assert manager.view().replica(1).ejected
        manager.record_attempt(1, 0.01, True, 3.3)
        view = manager.view().replica(1)
        assert not view.ejected
        assert view.samples == 0  # clean slate
        assert manager.counts()["readmissions"] == 1

    def test_breaker_trip_skips_replica_then_half_open_probes(self):
        manager = make_manager(
            ejection=False, breaker_failures=2, breaker_reset_after=1.0
        )
        feed_successes(manager, 0, 10)
        manager.record_attempt(1, None, False, 0.0)
        manager.record_attempt(1, None, False, 0.1)
        assert manager.view().replica(1).breaker_state == "open"
        candidates, forced = manager.route([0, 1], now=0.5)
        assert candidates == [0] and not forced
        # Reset window elapsed: the trial is forced to the replica.
        candidates, forced = manager.route([0, 1], now=1.5)
        assert candidates == [1] and forced
        manager.record_attempt(1, 0.01, True, 1.6)
        assert manager.view().replica(1).breaker_state == "closed"
        counts = manager.counts()
        assert counts["breaker_opens"] == 1
        assert counts["breaker_half_opens"] == 1
        assert counts["breaker_closes"] == 1


class TestRetryBudgetPlumbing:
    def test_budget_denies_once_exhausted(self):
        manager = make_manager(
            retry_budget_ratio=0.1, retry_budget_reserve=1.0,
            retry_budget_cap=10.0,
        )
        assert manager.try_spend_retry(0.0)
        assert not manager.try_spend_retry(0.1)
        counts = manager.counts()
        assert counts["retries_budgeted"] == 1
        assert counts["retries_denied"] == 1

    def test_first_attempts_refill(self):
        manager = make_manager(
            retry_budget_ratio=0.5, retry_budget_reserve=0.0,
            retry_budget_cap=10.0,
        )
        assert not manager.try_spend_retry(0.0)
        manager.on_first_attempt()
        manager.on_first_attempt()
        assert manager.try_spend_retry(0.1)

    def test_budget_disabled_always_allows(self):
        manager = make_manager(retry_budget=False)
        for _ in range(100):
            assert manager.try_spend_retry(0.0)
        assert "retries_denied" not in manager.counts()
