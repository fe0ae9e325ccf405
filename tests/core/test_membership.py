"""Runtime replica membership: draining replicas never receive work.

With autoscaling, the instance list is append-only and removed
replicas drain in place — so every balancer policy must route around
them. The membership layer is ``Transport``'s, so one test class runs
it over the integrated transport (wall clock) and the simulated one
(virtual clock).
"""

import pytest

from repro.core import StatsCollector, WallClock
from repro.core.balancer import balancer_names, make_balancer, pick_active
from repro.core.transport import make_transport
from repro.sim import Engine, ServiceTimeModel, SimulatedTransport
from repro.sim.network_model import network_model_for
from repro.stats import Deterministic

from .test_harness import ConstantApp

ALL_POLICIES = balancer_names()


class TestPickActive:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_identity_when_all_active(self, policy):
        balancer = make_balancer(policy, seed=3)
        depths = [5, 0, 3, 1]
        picks = {
            pick_active(balancer, depths, [0, 1, 2, 3]) for _ in range(50)
        }
        assert picks <= {0, 1, 2, 3}

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_never_picks_inactive(self, policy):
        balancer = make_balancer(policy, seed=3)
        depths = [0, 0, 0, 0]  # the drained replica looks most tempting
        active = [0, 2]
        for _ in range(200):
            assert pick_active(balancer, depths, active) in active

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_single_active_short_circuits(self, policy):
        balancer = make_balancer(policy, seed=3)
        assert pick_active(balancer, [9, 9, 9], [1]) == 1

    def test_avoid_is_a_server_id(self):
        balancer = make_balancer("jsq")
        # Active {0, 2}; avoiding server 2 must leave only server 0,
        # even though 2's dense position is 1.
        for _ in range(20):
            assert pick_active(balancer, [5, 0, 0], [0, 2], avoid=2) == 0

    def test_avoiding_inactive_server_is_a_noop(self):
        balancer = make_balancer("jsq")
        assert pick_active(balancer, [5, 0, 0], [0, 2], avoid=1) == 2

    def test_empty_active_set_falls_back_to_full_set(self):
        # Over-filtering (avoid + draining + health ejection) must not
        # raise on the send path: the full set becomes the candidates.
        choice = pick_active(make_balancer("round_robin"), [1, 2], [])
        assert choice in (0, 1)

    def test_no_servers_at_all_raises(self):
        with pytest.raises(ValueError):
            pick_active(make_balancer("round_robin"), [], [])

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_empty_active_fallback_for_every_policy(self, policy):
        balancer = make_balancer(policy, seed=5)
        depths = [3, 1, 2]
        for _ in range(50):
            assert pick_active(balancer, depths, []) in (0, 1, 2)


def _start_live(policy, n_servers):
    clock = WallClock()
    transport = make_transport("integrated", clock)
    transport.start(
        ConstantApp(iterations=20),
        n_threads=1,
        collector=StatsCollector(),
        n_servers=n_servers,
        balancer=make_balancer(policy, seed=1),
    )
    return clock, transport, lambda: transport.drain(timeout=30.0)


def _start_simulated(policy, n_servers):
    engine = Engine()
    transport = SimulatedTransport(engine, network_model_for("integrated"))
    transport.start(
        ServiceTimeModel(Deterministic(0.01)),
        n_threads=1,
        collector=StatsCollector(),
        n_servers=n_servers,
        balancer=make_balancer(policy, seed=1),
    )
    return engine.clock, transport, engine.run


@pytest.mark.parametrize(
    "start", [_start_live, _start_simulated], ids=["live", "simulated"]
)
class TestTransportMembership:
    """One membership layer — ``Transport`` — under both clocks.

    ``settle`` lets outstanding work finish: it blocks on the wall
    clock and runs the event engine dry on the virtual one.
    """

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_no_sends_to_drained_replica(self, start, policy):
        clock, transport, settle = start(policy, 3)
        try:
            drained = transport.drain_server()
            assert drained == 2  # youngest active
            assert transport.active_server_ids() == [0, 1]
            routed = [
                transport.send(clock.now(), payload=None) for _ in range(60)
            ]
            settle()
            assert drained not in routed
        finally:
            transport.stop()

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_added_replica_becomes_routable(self, start, policy):
        clock, transport, settle = start(policy, 2)
        try:
            new_id = transport.add_server()
            assert new_id == 2
            assert transport.active_server_ids() == [0, 1, 2]
            # Saturating load: every depth-aware policy must spill onto
            # the new replica; round-robin reaches it by rotation.
            routed = [
                transport.send(clock.now(), payload=None) for _ in range(90)
            ]
            settle()
            assert new_id in routed
            if policy == "round_robin":
                assert set(routed) == {0, 1, 2}
        finally:
            transport.stop()

    def test_drain_keeps_last_replica(self, start):
        clock, transport, settle = start("round_robin", 2)
        try:
            assert transport.drain_server() == 1
            assert transport.drain_server() is None  # never below one
            assert transport.active_server_ids() == [0]
        finally:
            transport.stop()

    def test_drained_replica_still_answers_queued_work(self, start):
        clock, transport, settle = start("round_robin", 2)
        try:
            completed = []
            transport.sink = lambda request: completed.append(
                request.server_id
            )
            # Land work on replica 1, then drain it before it finishes.
            for _ in range(10):
                transport.send(clock.now(), payload=None)
            drained = transport.drain_server()
            settle()
            assert len(completed) == 10
            assert drained in completed  # its queued work completed anyway
        finally:
            transport.stop()

    def test_drain_stamps_membership_window(self, start):
        clock, transport, settle = start("round_robin", 2)
        try:
            transport.send(clock.now(), payload=None)
            settle()
            before = clock.now()
            drained = transport.drain_server()
            instance = transport.instances[drained]
            assert instance.draining
            # Virtual time stands still between the two reads, so there
            # the stamp is exactly the drain instant.
            assert before <= instance.drained_at <= clock.now()
            assert instance.started_at <= instance.drained_at
        finally:
            transport.stop()
