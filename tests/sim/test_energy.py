"""Tests for the energy package (power model, policies, simulation)."""

import pytest

from repro.batching import BatchingConfig
from repro.core import ObservabilityConfig
from repro.energy import (
    DeepSleep,
    EnergyAccount,
    NoSleep,
    PowerModel,
    PowerStage,
    QueueBoost,
    StaticFrequency,
    simulate_energy,
)
from repro.faults import FaultPlan
from repro.sim import AppProfile, SimConfig, simulate_load
from repro.stats import Deterministic, Exponential


class TestPowerModel:
    def test_nominal_power_is_one(self):
        assert PowerModel().active_power(1.0) == pytest.approx(1.0)

    def test_cubic_dynamic_scaling(self):
        model = PowerModel(static_fraction=0.0)
        assert model.active_power(0.5) == pytest.approx(0.125)

    def test_static_floor(self):
        model = PowerModel(static_fraction=0.3)
        assert model.active_power(0.01) == pytest.approx(0.3, abs=1e-4)

    def test_state_ordering(self):
        model = PowerModel()
        assert model.sleep_power < model.idle_power < model.active_power(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerModel(static_fraction=1.5)
        with pytest.raises(ValueError):
            PowerModel().active_power(0.0)


class TestEnergyAccount:
    def test_accumulates_by_state(self):
        account = EnergyAccount(PowerModel())
        account.add_active(1.0, 1.0)
        account.add_idle(2.0)
        account.add_sleep(4.0)
        assert account.busy_time == 1.0
        assert account.total_time == 7.0
        expected = 1.0 + 2.0 * 0.45 + 4.0 * 0.05
        assert account.total_energy == pytest.approx(expected)
        assert account.average_power == pytest.approx(expected / 7.0)

    def test_validation(self):
        account = EnergyAccount(PowerModel())
        with pytest.raises(ValueError):
            account.add_active(-1.0, 1.0)
        with pytest.raises(ValueError):
            account.average_power


class TestPolicies:
    def test_static_frequency(self):
        assert StaticFrequency(0.8).frequency(5, 1.0) == 0.8

    def test_queue_boost_reacts_to_pressure(self):
        policy = QueueBoost(low=0.6, high=1.0)
        assert policy.frequency(0, 0.0) == 0.6  # alone: slow
        assert policy.frequency(3, 0.0) == 1.0  # backlog: boost
        assert policy.frequency(0, 1e-3) == 1.0  # waited: boost

    def test_validation(self):
        with pytest.raises(ValueError):
            StaticFrequency(0.0)
        with pytest.raises(ValueError):
            QueueBoost(low=1.0, high=0.5)
        with pytest.raises(ValueError):
            DeepSleep(wakeup_latency=-1.0)


class TestSimulateEnergy:
    SERVICE = Exponential.from_mean(200e-6)

    def run(self, **kwargs):
        defaults = dict(
            service=self.SERVICE,
            qps=0.3 / 200e-6,
            measure_requests=6000,
            warmup_requests=500,
        )
        defaults.update(kwargs)
        return simulate_energy(**defaults)

    def test_lower_frequency_saves_energy_costs_latency(self):
        fast = self.run(frequency_policy=StaticFrequency(1.0))
        slow = self.run(frequency_policy=StaticFrequency(0.6))
        assert slow.energy_per_request < fast.energy_per_request
        assert slow.sojourn.p95 > fast.sojourn.p95

    def test_queue_boost_dominates_static_low(self):
        # Reactive DVFS must beat the static-low point on latency while
        # keeping most of the savings — the Rubik/Adrenaline result.
        fast = self.run(frequency_policy=StaticFrequency(1.0))
        slow = self.run(frequency_policy=StaticFrequency(0.6))
        boost = self.run(frequency_policy=QueueBoost(low=0.6, high=1.0))
        assert boost.sojourn.p95 < slow.sojourn.p95
        assert boost.energy_per_request < fast.energy_per_request

    def test_deep_sleep_saves_energy_adds_wakeup_to_tail(self):
        awake = self.run(sleep_policy=NoSleep())
        sleepy = self.run(sleep_policy=DeepSleep(wakeup_latency=300e-6))
        assert sleepy.energy.sleep_time > 0
        assert sleepy.average_power < awake.average_power
        # At low load, most requests wake a sleeping worker: the tail
        # shifts by roughly the transition latency.
        delta = sleepy.sojourn.p95 - awake.sojourn.p95
        assert 100e-6 < delta < 500e-6

    def test_sleep_never_entered_at_high_load(self):
        result = self.run(
            qps=0.95 / 200e-6,
            sleep_policy=DeepSleep(entry_threshold=100e-6),
        )
        # Busy servers rarely idle past the threshold.
        assert result.energy.sleep_time < 0.1 * result.energy.busy_time

    def test_memory_bound_work_does_not_scale_with_frequency(self):
        fast = self.run(
            frequency_policy=StaticFrequency(1.0), compute_fraction=0.0
        )
        slow = self.run(
            frequency_policy=StaticFrequency(0.5), compute_fraction=0.0
        )
        # Service times identical when nothing is compute-bound.
        assert slow.stats.summary("service").mean == pytest.approx(
            fast.stats.summary("service").mean, rel=0.05
        )

    def test_energy_time_accounting_consistent(self):
        result = self.run(n_threads=2)
        # Per-worker time sums to ~n_threads x virtual span.
        assert result.energy.total_time == pytest.approx(
            2 * result.virtual_time, rel=0.05
        )

    def test_deterministic_given_seed(self):
        a = self.run(seed=7)
        b = self.run(seed=7)
        assert a.sojourn.p95 == b.sojourn.p95
        assert a.energy.total_energy == b.energy.total_energy

    def test_validation(self):
        with pytest.raises(ValueError):
            self.run(qps=0.0)
        with pytest.raises(ValueError):
            self.run(n_threads=0)
        with pytest.raises(ValueError):
            self.run(compute_fraction=1.5)

class TestPowerStage:
    """An energy run is ``simulate_load`` with a power stage."""

    PROFILE = AppProfile("energy", Exponential.from_mean(200e-6))

    @staticmethod
    def worker_seconds(config, result):
        return config.n_servers * config.n_threads * result.virtual_time

    def test_hand_checked_wakeup_and_scaling(self):
        # One worker, arrivals every 10 ms, 200 us of all-compute work
        # at half clock = 400 us, and every arrival finds the worker
        # 100 us idle then asleep: + 300 us wakeup = 700 us, ten times.
        stage = PowerStage(
            StaticFrequency(0.5), DeepSleep(100e-6, 300e-6),
            compute_fraction=1.0,
        )
        result = simulate_load(
            AppProfile("constant", Deterministic(200e-6)),
            SimConfig(
                qps=100.0, warmup_requests=0, measure_requests=10,
                deterministic_arrivals=True,
            ),
            power=stage,
        )
        assert result.stats.samples("sojourn") == pytest.approx([700e-6] * 10)
        account = stage.account
        assert result.virtual_time == pytest.approx(0.1007)
        assert account.busy_time == pytest.approx(7e-3)
        assert account.idle_time == pytest.approx(1e-3)
        assert account.total_time == pytest.approx(result.virtual_time)

    def test_worker_time_conserved_under_topology_faults_and_tracing(self):
        config = SimConfig(
            qps=0.6 * 4 / 200e-6, n_servers=2, n_threads=2, balancer="jsq",
            warmup_requests=100, measure_requests=2000,
            faults=FaultPlan(worker_pause_rate=0.05, worker_pause=1e-3),
            observability=ObservabilityConfig(tracing=True),
        )
        stage = PowerStage(QueueBoost(low=0.6, high=1.0), DeepSleep())
        result = simulate_load(self.PROFILE, config, power=stage)
        assert result.fault_counts["pauses"] > 0
        assert result.obs.events
        assert stage.account.sleep_time > 0
        assert stage.account.total_time == pytest.approx(
            self.worker_seconds(config, result), rel=1e-9
        )

    def test_worker_time_conserved_under_crashes_and_batching(self):
        config = SimConfig(
            qps=0.5 * 6 / 200e-6, n_servers=2, n_threads=3,
            balancer="power_of_two", warmup_requests=100,
            measure_requests=2000,
            faults=FaultPlan(worker_crash_rate=0.001),
            batching=BatchingConfig(
                enabled=True, max_batch_size=4, max_batch_delay=100e-6
            ),
        )
        stage = PowerStage(StaticFrequency(0.8), DeepSleep())
        result = simulate_load(self.PROFILE, config, power=stage)
        assert 0 < result.fault_counts["crashes"]
        assert sum(result.alive_workers) > 0
        # A crashed worker idles (then sleeps) for the rest of the run.
        assert stage.account.total_time == pytest.approx(
            self.worker_seconds(config, result), rel=1e-9
        )

    def test_no_power_stage_is_the_default_run(self):
        config = SimConfig(
            qps=0.7 / 200e-6, warmup_requests=100, measure_requests=1500
        )
        default = simulate_load(self.PROFILE, config)
        spelled = simulate_load(self.PROFILE, config, power=None)
        assert default.stats.samples("sojourn") == (
            spelled.stats.samples("sojourn")
        )
        assert default.virtual_time == spelled.virtual_time
        assert default.utilization == spelled.utilization
