"""Chaos scenarios: plan composition, scoping, timed playback.

Satellite of the failure-aware-serving PR: :meth:`FaultPlan.merged`
with ``server_ids`` scoping, and the recovery-window contract — a
scenario phase that ends mid-run *stops injecting*. Timed playback on
the run's scheduler, under both clocks, is in
``tests/core/test_run_timers.py``.
"""

import pytest

from repro.faults import (
    FaultInjector,
    FaultPhase,
    FaultPlan,
    Scenario,
    StallWindow,
    crash_recover,
    error_burst,
    retry_storm,
    scenario_names,
    slow_replica,
)


class TestMergedScoping:
    def test_scoped_ids_union(self):
        a = FaultPlan(error_rate=0.1, server_ids=(0,))
        b = FaultPlan(error_rate=0.1, server_ids=(2, 1))
        assert a.merged(b).server_ids == (0, 1, 2)

    def test_unscoped_side_wins_the_union(self):
        scoped = FaultPlan(error_rate=0.1, server_ids=(0,))
        everywhere = FaultPlan(drop_rate=0.1)  # server_ids=None
        assert scoped.merged(everywhere).server_ids is None
        assert everywhere.merged(scoped).server_ids is None

    def test_applies_to(self):
        plan = FaultPlan(error_rate=0.5, server_ids=(1, 3))
        assert plan.applies_to(1)
        assert plan.applies_to(3)
        assert not plan.applies_to(0)
        assert FaultPlan(error_rate=0.5).applies_to(7)

    def test_server_ids_normalized(self):
        plan = FaultPlan(error_rate=0.5, server_ids=(3, 1, 3))
        assert plan.server_ids == (1, 3)

    def test_rejects_empty_or_negative_ids(self):
        with pytest.raises(ValueError):
            FaultPlan(error_rate=0.5, server_ids=())
        with pytest.raises(ValueError):
            FaultPlan(error_rate=0.5, server_ids=(-1,))


class TestScenarioData:
    def test_phases_sorted_and_horizon(self):
        scenario = Scenario(
            name="x",
            phases=(
                FaultPhase(5.0, 2.0, FaultPlan(error_rate=0.5)),
                FaultPhase(1.0, 1.0, FaultPlan(drop_rate=0.5)),
            ),
        )
        assert [p.start for p in scenario.phases] == [1.0, 5.0]
        assert scenario.horizon == 7.0
        assert scenario.boundaries() == (1.0, 2.0, 5.0, 7.0)

    def test_plan_at_inside_and_outside_windows(self):
        scenario = error_burst(start=2.0, duration=3.0, error_rate=0.8)
        assert scenario.plan_at(1.0).is_noop
        assert scenario.plan_at(2.0).error_rate == 0.8
        assert scenario.plan_at(4.999).error_rate == 0.8
        assert scenario.plan_at(5.0).is_noop  # end is exclusive

    def test_overlapping_phases_merge(self):
        scenario = Scenario(
            name="x",
            phases=(
                FaultPhase(0.0, 10.0, FaultPlan(error_rate=0.5,
                                                server_ids=(0,))),
                FaultPhase(5.0, 10.0, FaultPlan(error_rate=0.5,
                                                server_ids=(1,))),
            ),
        )
        assert scenario.plan_at(7.0).error_rate == pytest.approx(0.75)
        assert scenario.plan_at(7.0).server_ids == (0, 1)
        assert scenario.plan_at(12.0).server_ids == (1,)

    def test_standing_base_plan_overlaid(self):
        scenario = error_burst(start=1.0, duration=1.0, error_rate=0.5)
        base = FaultPlan(drop_rate=0.1)
        merged = scenario.plan_at(1.5, base)
        assert merged.drop_rate == pytest.approx(0.1)
        assert merged.error_rate == pytest.approx(0.5)
        # Outside the window only the standing plan remains.
        assert scenario.plan_at(3.0, base).drop_rate == pytest.approx(0.1)
        # A noop base is ignored so phase scoping survives.
        assert scenario.plan_at(1.5, FaultPlan()) == scenario.plan_at(1.5)

    def test_builtin_factories(self):
        assert set(scenario_names()) == {
            "slow_replica", "crash_recover", "error_burst", "retry_storm",
        }
        assert slow_replica(server_id=1).phases[0].plan.server_ids == (1,)
        assert crash_recover().phases[0].plan.worker_crash_rate == 1.0
        assert retry_storm(pause=0.4).phases[0].plan.worker_pause == 0.4


class TestScenarioInjector:
    def test_recovery_window_stops_injection(self):
        # Phase [0, 1): error_rate=1.0 on server 0 only. After
        # advance_to(1.0) the injector must stop injecting even though
        # the run continues — the recovery-window contract.
        scenario = error_burst(
            start=0.0, duration=1.0, error_rate=1.0, server_ids=(0,)
        )
        injector = FaultInjector(None, seed=3, scenario=scenario)
        injector.start_run(0.0)
        view0, view1 = injector.for_server(0), injector.for_server(1)
        assert view0.app_error()
        assert not view1.app_error()  # scoped out, consumes no draw
        injector.advance_to(1.0)
        assert injector.plan.is_noop
        assert not view0.app_error()
        assert injector.counts()["phase_changes"] == 1

    def test_scope_recheck_follows_phase_changes(self):
        # Target moves from replica 0 to replica 1 across phases; the
        # per-server views must follow without being rebuilt.
        scenario = Scenario(
            name="moving",
            phases=(
                FaultPhase(0.0, 1.0, FaultPlan(error_rate=1.0,
                                               server_ids=(0,))),
                FaultPhase(1.0, 1.0, FaultPlan(error_rate=1.0,
                                               server_ids=(1,))),
            ),
        )
        injector = FaultInjector(None, seed=3, scenario=scenario)
        injector.start_run(0.0)
        view0, view1 = injector.for_server(0), injector.for_server(1)
        assert view0.app_error() and not view1.app_error()
        injector.advance_to(1.0)
        assert not view0.app_error() and view1.app_error()

    def test_same_seed_same_decisions(self):
        scenario = error_burst(start=0.0, duration=1.0, error_rate=0.3)
        def draws(seed):
            injector = FaultInjector(None, seed=seed, scenario=scenario)
            injector.start_run(0.0)
            view = injector.for_server(0)
            return [view.app_error() for _ in range(200)]
        assert draws(11) == draws(11)
        assert draws(11) != draws(12)

    def test_base_plan_outside_all_phases(self):
        scenario = error_burst(start=5.0, duration=1.0, error_rate=1.0)
        injector = FaultInjector(
            FaultPlan(error_rate=1.0), seed=3, scenario=scenario
        )
        injector.start_run(0.0)
        assert injector.for_server(0).app_error()  # base active at t=0

    def test_static_scoped_plan_draws_nothing_out_of_scope(self):
        # No scenario: the targeted replica is handed the injector
        # itself, the other a view that answers "no fault" without a
        # draw — so server 0 decides exactly as if it were alone.
        plan = FaultPlan(
            error_rate=0.4, worker_pause_rate=0.4, worker_pause=0.01,
            worker_crash_rate=0.1, queue_stalls=(StallWindow(0.0, 1.0),),
            server_ids=(0,),
        )

        def decide(view):
            return (
                view.app_error(), view.worker_pause(), view.worker_crash(),
                view.queue_stall_remaining(0.5),
            )

        alone = FaultInjector(plan, seed=7).for_server(0)
        expected = [decide(alone) for _ in range(200)]
        assert len(set(expected)) > 4  # the plan does fire

        shared = FaultInjector(plan, seed=7)
        assert shared.boundaries() == ()
        in_scope, out_of_scope = shared.for_server(0), shared.for_server(1)
        assert in_scope is shared
        decided = []
        for _ in range(200):
            assert decide(out_of_scope) == (False, 0.0, False, 0.0)
            decided.append(decide(in_scope))
        assert decided == expected
        assert "phase_changes" not in shared.counts()
