"""Failure-aware serving end to end: sim integration and live smoke.

The contract under test, in both execution modes:

- an enabled health layer changes outcomes under a chaos scenario
  (ejection routes around the degraded replica, the budget caps retry
  amplification);
- a *passive* health layer (enabled but every mechanism off) observes
  without perturbing — results stay bit-identical to no health at all,
  the structural form of the zero-disabled-cost requirement;
- scenario playback is deterministic per seed.
"""

import pytest

from repro.core import HarnessConfig, run_harness
from repro.core.resilience import ResilienceConfig
from repro.faults import error_burst, retry_storm
from repro.health import HealthConfig
from repro.sim import SimConfig, simulate_load
from repro.sim.calibration import AppProfile
from repro.stats import LogNormal

from ..core.test_harness import ConstantApp

_SERVICE = LogNormal(mean=1e-3, sigma=0.3)
_PROFILE = AppProfile(name="serving-test", service=_SERVICE)

#: One degraded replica of three, [0.5s, 1.5s), stalls far past the
#: attempt timeout — the metastable-failure recipe at miniature scale.
_STORM = retry_storm(server_id=2, start=0.5, duration=1.0, pause=0.05)
_RESILIENCE = ResilienceConfig(
    deadline=0.05, attempt_timeout=0.01, max_retries=3,
    backoff_base=0.0005, backoff_cap=0.002,
)


def _sim_config(**overrides):
    defaults = dict(
        configuration="integrated",
        n_threads=1,
        n_servers=3,
        balancer="round_robin",
        seed=0,
        load_profile=((3.0, 600.0),),
        resilience=_RESILIENCE,
        scenario=_STORM,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestSimIntegration:
    def test_defense_changes_the_outcome(self):
        undefended = simulate_load(_PROFILE, _sim_config())
        defended = simulate_load(
            _PROFILE,
            _sim_config(health=HealthConfig(enabled=True, min_samples=5,
                                            probe_interval=25)),
        )
        assert undefended.health_counts == {}
        counts = defended.health_counts
        assert counts["ejections"] >= 1
        assert counts["probes"] >= 1
        # Ejection routes around the stalled replica: far fewer
        # attempts time out, so far fewer logical deadlines blow.
        assert (
            defended.outcomes.get("timed_out", 0)
            < undefended.outcomes.get("timed_out", 0)
        )
        assert "health:" in defended.describe()
        assert "health:" not in undefended.describe()

    def test_passive_health_layer_is_bit_identical(self):
        bare = simulate_load(_PROFILE, _sim_config())
        passive = simulate_load(
            _PROFILE,
            _sim_config(health=HealthConfig(
                enabled=True, ejection=False, breaker=False,
                retry_budget=False,
            )),
        )
        assert passive.fingerprint() == bare.fingerprint()
        # It still observed: the per-replica records accumulated.
        assert passive.health_counts["ejections"] == 0

    def test_scenario_replay_is_deterministic_per_seed(self):
        config = _sim_config(
            health=HealthConfig(enabled=True, min_samples=5)
        )
        first = simulate_load(_PROFILE, config)
        second = simulate_load(_PROFILE, config)
        assert first.fingerprint() == second.fingerprint()
        assert first.health_counts == second.health_counts
        assert first.fault_counts == second.fault_counts
        other = simulate_load(_PROFILE, config.replace(seed=1))
        assert other.fingerprint() != first.fingerprint()

    def test_phase_boundaries_fire_in_virtual_time(self):
        result = simulate_load(_PROFILE, _sim_config())
        # One activation and one deactivation: the recovery window
        # stopped injection mid-run (pauses only while the phase ran).
        assert result.fault_counts["phase_changes"] == 2
        assert result.fault_counts["pauses"] >= 1

    def test_retry_budget_caps_amplification(self):
        # Unlimited-retry arm vs budgeted arm under the same storm.
        defended = simulate_load(
            _PROFILE,
            _sim_config(health=HealthConfig(
                enabled=True, ejection=False, breaker=False,
                retry_budget_ratio=0.1, retry_budget_reserve=5.0,
            )),
        )
        undefended = simulate_load(_PROFILE, _sim_config())
        assert defended.health_counts["retries_denied"] >= 1
        assert defended.retry_amplification < undefended.retry_amplification
        assert defended.retry_amplification == pytest.approx(1.1, abs=0.15)


class TestLiveIntegration:
    def test_scenario_and_health_run_live(self):
        # Short wall-clock run: one replica-scoped error burst; the
        # health layer must eject the erroring replica and the
        # scenario must heal mid-run (phase_changes == 2).
        config = HarnessConfig(
            configuration="integrated",
            n_threads=1,
            n_servers=2,
            balancer="round_robin",
            seed=0,
            load_profile=((1.2, 200.0),),
            resilience=ResilienceConfig(
                deadline=0.2, attempt_timeout=0.05, max_retries=2,
                backoff_base=0.001, backoff_cap=0.004,
            ),
            scenario=error_burst(
                start=0.2, duration=0.4, error_rate=1.0, server_ids=(1,)
            ),
            health=HealthConfig(
                enabled=True, min_samples=5, probe_interval=10,
                readmit_successes=2,
            ),
        )
        result = run_harness(ConstantApp(iterations=50), config)
        assert result.fault_counts["phase_changes"] == 2
        assert result.health_counts["ejections"] >= 1
        assert result.outcomes.get("succeeded", 0) > 0
        assert "health:" in result.describe()
