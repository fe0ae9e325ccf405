"""Control plane in the simulator: off = untouched, on = deterministic."""

import pytest

from repro.control import (
    NO_CONTROL,
    AdmissionConfig,
    AutoscalerConfig,
    ControlPlane,
    ControlPlaneConfig,
    PriorityConfig,
    RequestClassSpec,
)
from repro.core import FanoutConfig
from repro.sim import SimConfig, simulate_load
from repro.sim.calibration import AppProfile
from repro.stats import LogNormal

_PROFILE = AppProfile(
    name="synthetic-sleep", service=LogNormal(mean=1e-3, sigma=0.5)
)


def sim(**overrides):
    params = dict(
        configuration="integrated",
        qps=800,
        n_threads=1,
        warmup_requests=100,
        measure_requests=2000,
        seed=23,
    )
    params.update(overrides)
    return simulate_load(_PROFILE, SimConfig(**params))


def full_control(**overrides):
    params = dict(
        enabled=True,
        tick_interval=0.02,
        admission=AdmissionConfig(target_p99=0.05),
        priority=PriorityConfig(
            classes=(
                RequestClassSpec("interactive", priority=1, weight=3.0,
                                 fraction=0.9),
                RequestClassSpec("batch", priority=0, weight=1.0,
                                 fraction=0.1),
            ),
            mode="strict",
        ),
        autoscaler=AutoscalerConfig(max_servers=3, cooldown=0.2),
    )
    params.update(overrides)
    return ControlPlaneConfig(**params)


class TestDisabledIsUntouched:
    def test_default_config_equals_explicit_no_control(self):
        plain = sim()
        explicit = sim(control=NO_CONTROL)
        assert plain.sojourn.p99 == explicit.sojourn.p99
        assert plain.virtual_time == explicit.virtual_time
        assert plain.outcomes == explicit.outcomes

    def test_disabled_run_reports_no_control_counts(self):
        result = sim()
        assert result.control_counts == {}

    def test_multi_server_disabled_also_untouched(self):
        plain = sim(n_servers=2, balancer="jsq")
        explicit = sim(n_servers=2, balancer="jsq", control=NO_CONTROL)
        assert plain.sojourn.p99 == explicit.sojourn.p99
        assert plain.routed_counts == explicit.routed_counts


class TestEnabledDeterminism:
    def test_controlled_run_is_bit_identical_across_invocations(self):
        a = sim(qps=1500, control=full_control())
        b = sim(qps=1500, control=full_control())
        assert a.sojourn.p99 == b.sojourn.p99
        assert a.control_counts == b.control_counts
        assert a.outcomes == b.outcomes
        assert a.routed_counts == b.routed_counts
        assert a.server_activity == b.server_activity

    def test_control_counts_populated(self):
        result = sim(control=full_control())
        counts = result.control_counts
        assert counts["ticks"] > 0
        assert "admitted" in counts
        assert "final_limit" in counts
        assert "scale_ups" in counts
        assert counts["active_servers"] >= 1

    def test_seed_changes_the_controlled_run(self):
        a = sim(qps=1500, control=full_control(), seed=1)
        b = sim(qps=1500, control=full_control(), seed=2)
        assert a.sojourn.p99 != b.sojourn.p99


class TestControlledBehavior:
    def test_underload_admits_everything(self):
        result = sim(qps=300, control=full_control())
        counts = result.control_counts
        assert counts["codel_dropped"] == 0
        assert counts["limit_dropped"] == 0
        assert result.outcomes.get("shed", 0) == 0

    def test_sheds_are_accounted_not_lost(self):
        result = sim(
            qps=4000,
            warmup_requests=0,
            control=full_control(
                autoscaler=None,  # admission alone: must shed
                admission=AdmissionConfig(
                    target_p99=0.02, initial_limit=16, min_limit=2,
                    multiplicative_decrease=0.5,
                ),
            ),
        )
        shed = result.outcomes.get("shed", 0)
        assert shed > 0
        counts = result.control_counts
        assert shed == counts["codel_dropped"] + counts["limit_dropped"]
        # Offered = served + shed: nothing vanishes.
        assert result.stats.count + shed == 2000

    def test_a_shed_leg_fails_its_gather_and_nothing_else(self):
        """Admission × fan-out: every gather merges or has a shed leg."""
        result = sim(
            qps=2500,
            n_servers=3,
            fanout=FanoutConfig(enabled=True, shards=3),
            warmup_requests=0,
            control=full_control(
                autoscaler=None, priority=None,
                admission=AdmissionConfig(
                    target_p99=0.02, initial_limit=16, min_limit=2,
                    multiplicative_decrease=0.5,
                ),
            ),
        )
        shed, fanout = result.outcomes["shed"], result.fanout
        assert shed > 0
        counts = result.control_counts
        assert shed == counts["codel_dropped"] + counts["limit_dropped"]
        assert 0 < fanout.failed <= shed
        assert fanout.completed + fanout.failed == 2000
        assert result.stats.count == fanout.completed
        assert sum(result.routed_counts) == 3 * 2000

    def test_autoscaler_requires_n_servers_within_band(self):
        with pytest.raises(ValueError):
            SimConfig(
                n_servers=8,
                control=full_control(
                    autoscaler=AutoscalerConfig(max_servers=3)
                ),
            )


class TestAimdWindow:
    """Only the admission controller's tick drains the AIMD sojourn
    window, so only a run with admission may feed it."""

    @staticmethod
    def _bound_planes(monkeypatch):
        planes = []
        real_bind = ControlPlane.bind

        def bind(plane, target):
            planes.append(plane)
            real_bind(plane, target)

        monkeypatch.setattr(ControlPlane, "bind", bind)
        return planes

    @pytest.mark.parametrize("only", ["autoscaler", "priority"])
    def test_without_admission_nothing_fills_the_window(
        self, monkeypatch, only
    ):
        planes = self._bound_planes(monkeypatch)
        off = {"admission": None, "autoscaler": None, "priority": None}
        del off[only]
        result = sim(control=full_control(**off))
        (plane,) = planes
        assert result.control_counts["ticks"] > 0
        assert result.outcomes["succeeded"] == 2100
        assert plane._window == []

    def test_with_admission_every_tick_drains_the_window(self, monkeypatch):
        planes = self._bound_planes(monkeypatch)
        drained = []
        real_p99 = ControlPlane.window_p99

        def window_p99(plane):
            drained.append(len(plane._window))
            return real_p99(plane)

        monkeypatch.setattr(ControlPlane, "window_p99", window_p99)
        result = sim(control=full_control(autoscaler=None, priority=None))
        (plane,) = planes
        assert len(drained) == result.control_counts["ticks"] > 0
        # Every good answer went in once and came out at the next tick,
        # bar the ones after the last tick.
        assert sum(drained) + len(plane._window) == (
            result.outcomes["succeeded"]
        )
        assert len(plane._window) < max(drained)


class TestLiveControlSmoke:
    """One live run with the whole plane on: the wall-clock loop ticks,
    gates classify and admit, and accounting stays consistent."""

    def test_live_controlled_run(self):
        from repro.core import HarnessConfig, run_harness
        from tests.core.test_harness import ConstantApp

        result = run_harness(
            ConstantApp(),
            HarnessConfig(
                qps=500,
                warmup_requests=50,
                measure_requests=400,
                control=full_control(),
            ),
        )
        counts = result.control_counts
        assert counts["ticks"] > 0
        assert counts["admitted"] > 0
        assert result.stats.count + result.outcomes.get("shed", 0) == 400
