"""Tests for top-level virtual-time load testing."""

import pytest

from repro.queueing import mean_sojourn
from repro.sim import (
    PAPER_PROFILES,
    AppProfile,
    SimConfig,
    paper_profile,
    simulate_app,
    simulate_load,
)
from repro.stats import Deterministic, Exponential


class TestSimConfig:
    def test_with_qps_and_seed(self):
        config = SimConfig(qps=100, seed=1, ideal_memory=True)
        assert config.with_qps(200).qps == 200
        assert config.with_qps(200).ideal_memory is True
        assert config.with_seed(9).seed == 9
        assert config.with_seed(9).qps == 100


class TestSimulateLoad:
    def test_deterministic_given_seed(self):
        config = SimConfig(qps=5000, measure_requests=2000)
        a = simulate_app("masstree", config)
        b = simulate_app("masstree", config)
        assert a.sojourn.p95 == b.sojourn.p95

    def test_different_seeds_differ(self):
        a = simulate_app("masstree", SimConfig(qps=5000, measure_requests=2000, seed=0))
        b = simulate_app("masstree", SimConfig(qps=5000, measure_requests=2000, seed=1))
        assert a.sojourn.p95 != b.sojourn.p95

    def test_mm1_matches_theory(self):
        # M/M/1 sanity anchor: mean sojourn = 1 / (mu - lambda).
        service = Exponential.from_mean(1e-3)
        profile = AppProfile(name="mm1", service=service)
        result = simulate_load(
            profile,
            SimConfig(qps=500.0, measure_requests=60_000, warmup_requests=5000),
        )
        expected = 1.0 / (1000.0 - 500.0)
        assert result.sojourn.mean == pytest.approx(expected, rel=0.08)

    def test_md1_matches_pollaczek_khinchine(self):
        service = Deterministic(1e-3)
        profile = AppProfile(name="md1", service=service)
        result = simulate_load(
            profile,
            SimConfig(qps=700.0, measure_requests=60_000, warmup_requests=5000),
        )
        expected = mean_sojourn(700.0, service)
        assert result.sojourn.mean == pytest.approx(expected, rel=0.08)

    def test_utilization_tracks_offered_load(self):
        result = simulate_app(
            "xapian", SimConfig(qps=0.5 / paper_profile("xapian").service.mean,
                                measure_requests=5000)
        )
        assert result.utilization == pytest.approx(0.5, abs=0.05)

    def test_tail_grows_faster_than_mean(self):
        # The central Fig. 3 observation, sharpest for near-constant
        # service times where queueing is the whole story (masstree):
        # relative p99 growth outpaces relative mean growth, and in
        # absolute terms the tail opens a far larger gap.
        prof = paper_profile("masstree")
        sat = 1.0 / prof.service.mean
        low = simulate_app(
            "masstree", SimConfig(qps=0.2 * sat, measure_requests=12000)
        )
        high = simulate_app(
            "masstree", SimConfig(qps=0.85 * sat, measure_requests=12000)
        )
        mean_growth = high.sojourn.mean / low.sojourn.mean
        p99_growth = high.sojourn.p99 / low.sojourn.p99
        assert p99_growth > mean_growth
        assert (high.sojourn.p99 - low.sojourn.p99) > (
            high.sojourn.mean - low.sojourn.mean
        )

    def test_saturated_flag(self):
        prof = paper_profile("masstree")
        sat = 1.0 / prof.service.mean
        over = simulate_app("masstree", SimConfig(qps=1.3 * sat, measure_requests=4000))
        under = simulate_app("masstree", SimConfig(qps=0.3 * sat, measure_requests=4000))
        assert over.saturated
        assert not under.saturated

    def test_warmup_requests_dropped(self):
        result = simulate_app(
            "silo", SimConfig(qps=1000, warmup_requests=500, measure_requests=1000)
        )
        assert result.stats.count == 1000
        assert result.stats.dropped_warmup == 500

    def test_describe(self):
        result = simulate_app("silo", SimConfig(qps=1000, measure_requests=1000))
        assert "silo" in result.describe()


class TestConfigurationEffects:
    def test_networked_slower_than_integrated(self):
        config = SimConfig(qps=2000, measure_requests=5000)
        integrated = simulate_app("silo", config)
        networked = simulate_app(
            "silo", SimConfig(qps=2000, measure_requests=5000,
                              configuration="networked")
        )
        assert networked.sojourn.p50 > integrated.sojourn.p50

    def test_simulated_system_speed_error(self):
        # sim_speed < 1 => faster service => lower latency at equal QPS.
        prof = paper_profile("shore")
        assert prof.sim_speed < 1.0
        config = SimConfig(qps=1000, measure_requests=5000)
        real = simulate_app("shore", config)
        simulated = simulate_app(
            "shore", SimConfig(qps=1000, measure_requests=5000,
                               simulated_system=True)
        )
        assert simulated.service.mean < real.service.mean

    def test_ideal_memory_removes_mem_contention_only(self):
        prof = paper_profile("moses")
        normal = prof.service_model(n_threads=4)
        ideal = prof.service_model(n_threads=4, ideal_memory=True)
        assert ideal.mean < normal.mean
        # silo is sync-bound: ideal memory barely helps.
        silo = paper_profile("silo")
        assert silo.service_model(n_threads=4, ideal_memory=True).mean == (
            pytest.approx(silo.service_model(n_threads=4).mean, rel=0.05)
        )


class TestPaperProfiles:
    def test_all_eight_apps_present(self):
        assert set(PAPER_PROFILES) == {
            "xapian", "masstree", "moses", "sphinx",
            "img-dnn", "specjbb", "silo", "shore",
        }

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError):
            paper_profile("redis")

    def test_service_time_ordering_matches_paper(self):
        # Fig. 2 / Fig. 3: silo < specjbb < masstree < shore < xapian
        # < img-dnn ~ moses << sphinx in mean service time.
        means = {name: p.service.mean for name, p in PAPER_PROFILES.items()}
        assert means["silo"] < means["specjbb"] < means["masstree"]
        assert means["masstree"] < means["shore"] < means["xapian"]
        assert means["xapian"] < means["img-dnn"] <= means["moses"]
        assert means["moses"] < means["sphinx"]

    def test_near_constant_apps_have_low_scv(self):
        assert PAPER_PROFILES["masstree"].service.scv < 0.15
        assert PAPER_PROFILES["img-dnn"].service.scv < 0.15

    def test_long_tail_apps_have_high_scv(self):
        assert PAPER_PROFILES["silo"].service.scv > 1.0
        assert PAPER_PROFILES["shore"].service.scv > 0.3


class TestAttemptTimeoutClamp:
    def test_attempt_timers_never_outlive_the_deadline(self):
        # Regression: every attempt is dropped, so attempt timeouts and
        # backoff alone drive the run. Unclamped, the final retry's
        # timer (scheduled after backoff sleeps ate the budget) fired
        # past the deadline and stretched virtual time beyond the last
        # request's resolution; clamped, the simulation ends exactly at
        # the last arrival + deadline.
        from repro.core.resilience import ResilienceConfig
        from repro.faults import FaultPlan

        profile = AppProfile(name="clamp", service=Deterministic(1e-3))
        config = SimConfig(
            qps=1000, warmup_requests=0, measure_requests=50, seed=3,
            deterministic_arrivals=True,
            faults=FaultPlan(drop_rate=1.0),
            resilience=ResilienceConfig(deadline=0.05, max_retries=3),
        )
        result = simulate_load(profile, config)
        assert result.outcomes["timed_out"] == 50
        last_arrival = 50 / 1000.0
        assert result.virtual_time <= last_arrival + 0.05 + 1e-9


class TestRunEndsAtLastResponse:
    def test_resolved_calls_do_not_stretch_virtual_time(self):
        # Regression: the simulated client never cancelled a resolved
        # call's deadline/hedge timers, so every deadline-bearing run
        # ended at last arrival + deadline instead of at its last
        # response, deflating goodput_qps and utilization. Every
        # request here succeeds two orders of magnitude inside its
        # deadline, so the run must end long before that timer.
        from repro.core.resilience import ResilienceConfig

        profile = AppProfile(name="fast", service=Deterministic(1e-4))
        deadline = 0.5
        config = SimConfig(
            qps=2000, warmup_requests=0, measure_requests=4000, seed=5,
            deterministic_arrivals=True,
            resilience=ResilienceConfig(
                deadline=deadline, max_retries=2, hedge_after=0.1
            ),
        )
        result = simulate_load(profile, config)
        assert result.outcomes["succeeded"] == 4000
        assert result.outcomes["hedges"] == result.outcomes["retries"] == 0
        last_arrival = 4000 / 2000.0
        assert result.virtual_time < last_arrival + deadline
        assert result.virtual_time == pytest.approx(last_arrival + 1e-4)
        assert result.goodput_qps == pytest.approx(
            result.offered_qps, rel=0.02
        )
