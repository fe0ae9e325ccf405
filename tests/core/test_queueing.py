"""Tests for the instrumented request queue."""

import heapq
import random
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.batching import BatchPolicy
from repro.control import AdmissionConfig, AdmissionGate
from repro.core import QueueClosed, Request, RequestQueue, VirtualClock, WallClock
from repro.core.queueing import (
    FifoBuffer,
    PriorityBuffer,
    QueueSnapshot,
)
from repro.faults import FaultInjector, FaultPlan, StallWindow
from repro.sim import Engine, ServiceTimeModel, SimulatedServer
from repro.sim.network_model import NETWORK_MODELS
from repro.stats import Deterministic


def make_request(priority=0):
    request = Request(payload=None, generated_at=0.0, priority=priority)
    request.sent_at = 0.0
    return request


class TestRequestQueue:
    def test_fifo_order(self):
        queue = RequestQueue(VirtualClock())
        first, second = make_request(), make_request()
        queue.put(first)
        queue.put(second)
        assert queue.get() is first
        assert queue.get() is second

    def test_put_stamps_enqueued_at(self):
        clock = VirtualClock(42.0)
        queue = RequestQueue(clock)
        request = make_request()
        queue.put(request)
        assert request.enqueued_at == 42.0

    def test_len_and_peak_depth(self):
        queue = RequestQueue(VirtualClock())
        for _ in range(3):
            queue.put(make_request())
        assert len(queue) == 3
        assert queue.peak_depth == 3
        queue.get()
        assert len(queue) == 2
        assert queue.peak_depth == 3  # peak is sticky

    def test_total_enqueued(self):
        queue = RequestQueue(VirtualClock())
        for _ in range(5):
            queue.put(make_request())
        assert queue.snapshot().total_enqueued == 5

    def test_get_blocks_until_put(self):
        queue = RequestQueue(WallClock())
        result = []

        def consumer():
            result.append(queue.get())

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.05)
        assert not result
        queue.put(make_request())
        thread.join(1.0)
        assert len(result) == 1

    def test_get_timeout(self):
        queue = RequestQueue(WallClock())
        with pytest.raises(TimeoutError):
            queue.get(timeout=0.05)

    def test_closed_queue_rejects_put(self):
        queue = RequestQueue(VirtualClock())
        queue.close()
        with pytest.raises(QueueClosed):
            queue.put(make_request())

    def test_close_drains_then_raises(self):
        queue = RequestQueue(VirtualClock())
        queue.put(make_request())
        queue.close()
        queue.get()  # existing item still retrievable
        with pytest.raises(QueueClosed):
            queue.get()

    def test_close_wakes_blocked_getters(self):
        queue = RequestQueue(WallClock())
        errors = []

        def consumer():
            try:
                queue.get()
            except QueueClosed:
                errors.append("closed")

        threads = [threading.Thread(target=consumer) for _ in range(3)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        queue.close()
        for t in threads:
            t.join(1.0)
        assert errors == ["closed"] * 3

    def test_sojourn_seconds_tracks_head_age(self):
        clock = VirtualClock(10.0)
        queue = RequestQueue(clock)
        assert queue.snapshot().head_sojourn == 0.0  # empty
        queue.put(make_request())
        clock.advance(0.25)
        queue.put(make_request())  # younger request: head age unchanged
        assert queue.snapshot().head_sojourn == pytest.approx(0.25)
        queue.get()
        assert queue.snapshot().head_sojourn == pytest.approx(0.0)

    def test_snapshot_is_consistent_view(self):
        clock = VirtualClock(5.0)
        queue = RequestQueue(clock, capacity=2)
        queue.put(make_request())
        clock.advance(0.1)
        queue.put(make_request())
        assert queue.put(make_request()) is False  # shed at capacity
        snap = queue.snapshot()
        assert isinstance(snap, QueueSnapshot)
        assert snap.depth == 2
        assert snap.peak_depth == 2
        assert snap.total_enqueued == 2
        assert snap.total_shed == 1
        assert snap.head_sojourn == pytest.approx(0.1)

    def test_shed_request_is_marked(self):
        queue = RequestQueue(VirtualClock(), capacity=1)
        queue.put(make_request())
        rejected = make_request()
        assert queue.put(rejected) is False
        assert rejected.shed
        assert queue.snapshot().total_shed == 1

    def test_snapshot_of_sim_server_has_same_shape(self):
        """Live queue and simulated server expose the same snapshot."""
        import random

        from repro.sim.engine import Engine
        from repro.sim.network_model import network_model_for
        from repro.sim.server_model import SimulatedServer
        from repro.sim.service_models import ServiceTimeModel
        from repro.stats import Deterministic

        engine = Engine()
        server = SimulatedServer(
            engine,
            ServiceTimeModel(Deterministic(0.05)),
            network_model_for("integrated"),
            n_threads=1,
            rng=random.Random(0),
            on_response=lambda request: None,
        )
        for i in range(3):
            server.submit(generated_at=i * 0.001)
        engine.run(until=0.01)  # one in service, two queued
        snap = server.queue.snapshot(engine.now)
        assert isinstance(snap, QueueSnapshot)
        assert snap.depth == 2
        assert snap.total_enqueued == 3
        assert snap.head_sojourn > 0.0

    def test_custom_buffer_is_used(self):
        buffer = FifoBuffer()
        queue = RequestQueue(VirtualClock(), buffer=buffer)
        queue.put(make_request())
        assert len(buffer) == 1

    def test_mixed_class_head_is_oldest_across_all_classes(self):
        # CoDel's signal is the oldest *waiting* request, regardless of
        # which class the discipline would actually serve next: a
        # starved low-priority head must still drive the sojourn.
        buffer = PriorityBuffer(mode="strict")
        old_low = make_request(priority=0)
        old_low.enqueued_at = 1.0
        young_high = make_request(priority=5)
        young_high.enqueued_at = 2.0
        buffer.push(old_low)
        buffer.push(young_high)
        assert buffer.head_enqueued_at() == 1.0
        # Strict service order disagrees with head age on purpose.
        assert buffer.pop() is young_high
        assert buffer.head_enqueued_at() == 1.0
        buffer.pop()
        assert buffer.head_enqueued_at() is None

    def test_priority_queue_snapshot_mixed_class_head_sojourn(self):
        clock = VirtualClock(10.0)
        queue = RequestQueue(clock, buffer=PriorityBuffer(mode="strict"))
        queue.put(make_request(priority=0))  # enqueued at 10.0
        clock.advance(0.3)
        queue.put(make_request(priority=9))  # enqueued at 10.3
        clock.advance(0.1)
        snap = queue.snapshot()
        assert snap.depth == 2
        # The low-priority request is older: 10.4 - 10.0 = 0.4, not the
        # 0.1 the high class' head would report.
        assert snap.head_sojourn == pytest.approx(0.4)
        assert queue.get().priority == 9  # service still strict
        assert queue.snapshot().head_sojourn == pytest.approx(0.4)

    def test_sim_server_snapshot_mixed_class_head_sojourn(self):
        """The simulated server's snapshot obeys the same oldest-across-
        classes rule when wired to a PriorityBuffer."""
        import random

        from repro.sim.engine import Engine
        from repro.sim.network_model import network_model_for
        from repro.sim.server_model import SimulatedServer
        from repro.sim.service_models import ServiceTimeModel
        from repro.stats import Deterministic

        engine = Engine()
        server = SimulatedServer(
            engine,
            ServiceTimeModel(Deterministic(0.05)),
            network_model_for("integrated"),
            n_threads=1,
            rng=random.Random(0),
            on_response=lambda request: None,
            buffer=PriorityBuffer(mode="strict"),
        )

        def submit(at, priority):
            request = Request(payload=None, generated_at=at, priority=priority)
            request.sent_at = at
            server.submit_request(request)

        submit(0.000, 0)  # taken by the single worker immediately
        submit(0.002, 0)  # waits: class 0, the oldest
        submit(0.004, 7)  # waits: class 7, younger but higher priority
        engine.run(until=0.01)
        snap = server.queue.snapshot(engine.now)
        assert snap.depth == 2
        assert snap.head_sojourn == pytest.approx(0.01 - 0.002)

    def test_concurrent_producers_consumers(self):
        queue = RequestQueue(WallClock())
        n_per_producer = 200
        consumed = []
        consumed_lock = threading.Lock()

        def producer():
            for _ in range(n_per_producer):
                queue.put(make_request())

        def consumer():
            while True:
                try:
                    item = queue.get(timeout=1.0)
                except (QueueClosed, TimeoutError):
                    return
                with consumed_lock:
                    consumed.append(item)

        producers = [threading.Thread(target=producer) for _ in range(4)]
        consumers = [threading.Thread(target=consumer) for _ in range(4)]
        for t in producers + consumers:
            t.start()
        for t in producers:
            t.join(5.0)
        queue.close()
        for t in consumers:
            t.join(5.0)
        assert len(consumed) == 4 * n_per_producer
        assert len({id(r) for r in consumed}) == len(consumed)


# -- only a waiting getter is woken -------------------------------------------

def _until(predicate, timeout=5.0):
    """Poll ``predicate`` until it holds; False if it never did."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


def _in_thread(fn, timeout=5.0):
    """Run ``fn`` on another thread; its result, or fail if it blocks."""
    out, errors = [], []

    def run():
        try:
            out.append(fn())
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "the call blocked"
    if errors:
        raise errors[0]
    return out[0]


class TestWakeOnlyAWaiter:
    """A put notifies only when a getter is blocked (the queue counts
    them under its lock); every path out of a wait uncounts it."""

    def test_one_put_wakes_a_blocked_getter(self):
        queue = RequestQueue(WallClock())
        taken = []
        thread = threading.Thread(
            target=lambda: taken.append(queue.get()), daemon=True
        )
        thread.start()
        assert _until(lambda: queue._waiting == 1)
        request = make_request()
        assert queue.put(request)
        thread.join(5.0)
        assert not thread.is_alive()
        assert taken == [request]
        assert queue._waiting == 0

    def test_a_put_with_no_waiter_notifies_nothing(self, monkeypatch):
        queue = RequestQueue(WallClock())
        notified = []
        monkeypatch.setattr(
            queue._not_empty, "notify", lambda n=1: notified.append(n)
        )
        for _ in range(3):
            queue.put(make_request())
        assert [queue.get(timeout=1.0) for _ in range(3)]
        assert notified == []

    def test_every_request_is_taken_once(self):
        queue = RequestQueue(WallClock())
        per_putter, taken, taken_lock = 1000, [], threading.Lock()

        def putter(tag):
            for i in range(per_putter):
                request = make_request()
                request.payload = (tag, i)
                queue.put(request)

        def getter(timeout):
            while True:
                try:
                    request = queue.get(timeout=timeout)
                except TimeoutError:
                    continue
                except QueueClosed:
                    return
                with taken_lock:
                    taken.append(request.payload)

        getters = [
            threading.Thread(target=getter, args=(timeout,), daemon=True)
            for timeout in (None, 0.002, None, 0.0005)
        ]
        putters = [
            threading.Thread(target=putter, args=(tag,), daemon=True)
            for tag in "ab"
        ]
        for thread in getters + putters:
            thread.start()
        for thread in putters:
            thread.join(30.0)
        assert _until(lambda: len(taken) == 2 * per_putter, timeout=30.0)
        queue.close()
        for thread in getters:
            thread.join(5.0)
            assert not thread.is_alive()
        assert sorted(taken) == sorted(
            (tag, i) for tag in "ab" for i in range(per_putter)
        )
        assert queue._waiting == 0

    def test_a_timed_out_getter_leaves_no_waiter(self):
        queue = RequestQueue(WallClock())
        with pytest.raises(TimeoutError):
            queue.get(timeout=0.01)
        assert queue._waiting == 0
        request = make_request()
        queue.put(request)
        assert _in_thread(queue.get) is request

    def test_close_wakes_every_blocked_getter(self):
        queue = RequestQueue(WallClock())
        closed = []

        def getter():
            try:
                queue.get()
            except QueueClosed:
                closed.append(True)

        threads = [
            threading.Thread(target=getter, daemon=True) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        assert _until(lambda: queue._waiting == 4)
        queue.close()
        for thread in threads:
            thread.join(5.0)
            assert not thread.is_alive()
        assert closed == [True] * 4
        assert queue._waiting == 0


class TestLockIsReleasedOnRaise:
    """The per-request lock is entered without ``with``: whatever the
    stage raises, the next put or get from another thread still runs."""

    def test_a_gate_that_raises_leaves_the_lock_free(self):
        class RaisingGate:
            def admit(self, now, depth, request=None):
                raise RuntimeError("gate failed")

        queue = RequestQueue(WallClock(), gate=RaisingGate())
        with pytest.raises(RuntimeError, match="gate failed"):
            queue.put(make_request())
        assert not queue._lock.locked()
        queue._stage.gate = None
        request = make_request()
        assert _in_thread(lambda: queue.put(request))
        assert _in_thread(queue.get) is request

    def test_a_batch_policy_that_raises_leaves_the_lock_free(self):
        class RaisingPolicy:
            def ready_at(self, buffer, now):
                raise RuntimeError("policy failed")

        queue = RequestQueue(WallClock())
        first, second = make_request(), make_request()
        queue.put(first)
        with pytest.raises(RuntimeError, match="policy failed"):
            queue.get_batch(RaisingPolicy(), timeout=1.0)
        assert not queue._lock.locked()
        assert queue._waiting == 0
        assert _in_thread(lambda: queue.put(second))
        assert _in_thread(queue.get) is first


# -- one queue stage, two executors ------------------------------------------
#
# The live queue is driven by hand on a virtual clock: free "workers"
# poll get(timeout=0) / get_batch(timeout=0) at every instant something
# may change, and each start occupies its worker for a constant SERVICE.
# The simulated server runs the same arrivals with the same constant
# service. Arrival instants are generic floats, so no arrival ties a
# completion, a stall's end or a batch's release; a stall window is no
# longer than its start, so its end reads back exactly on both clocks.

SERVICE = 1.0
N_ARRIVALS = 60


def _arrivals(scenario):
    """(instant, index, priority class) of every arrival."""
    rng = random.Random(scenario["seed"])
    rate = scenario["load"] * scenario["n_workers"] / SERVICE
    classes = 1 if scenario["priority"] is None else 3
    t, out = 0.0, []
    for i in range(N_ARRIVALS):
        t += rng.expovariate(rate)
        out.append((t, i, rng.randrange(classes)))
    return out


def _parts(scenario):
    """Fresh per-executor parts: injector, gate, buffer."""
    plan = scenario["plan"]
    gate = (
        None if scenario["limit"] is None
        else AdmissionGate(AdmissionConfig(
            initial_limit=scenario["limit"], max_limit=64,
            codel_interval=2 * SERVICE,
        ))
    )
    mode = scenario["priority"]
    buffer = (
        None if mode is None
        else PriorityBuffer(mode, {0: 1.0, 1: 2.0, 2: 3.0})
    )
    return (
        None if plan is None else FaultInjector(plan, seed=0), gate, buffer
    )


def _gate_moves(scenario):
    """(instant, gate method, argument): the control plane's moves, made
    at the same instants under both clocks."""
    if scenario["limit"] is None:
        return []
    first, second, third = scenario["moves"]
    return [
        (first, "set_dropping", True), (second, "set_dropping", False),
        (third, "set_limit", max(1, scenario["limit"] // 2)),
    ]


def _tallies(snapshot, gate, starts, shed):
    return {
        "starts": starts, "shed": sorted(shed),
        "total_enqueued": snapshot.total_enqueued,
        "total_shed": snapshot.total_shed,
        "depth": snapshot.depth,
        "gate": None if gate is None else gate.counts(),
    }, snapshot.peak_depth


def _live_run(scenario):
    clock = VirtualClock()
    injector, gate, buffer = _parts(scenario)
    queue = RequestQueue(
        clock, capacity=scenario["capacity"], injector=injector, gate=gate,
        buffer=buffer,
    )
    policy = scenario["batching"]
    arrivals = _arrivals(scenario)
    moves = _gate_moves(scenario)
    # Every instant, besides completions, at which what the stage
    # releases may change: arrivals, gate moves, stall ends and each
    # arrival's batch deadline.
    instants = {a for a, _, _ in arrivals} | {m[0] for m in moves}
    if injector is not None:
        instants |= {w.end for w in injector.plan.queue_stalls}
    if policy is not None:
        instants |= {a + policy.max_batch_delay for a, _, _ in arrivals}
    pending = sorted(instants)
    by_time = {}
    for a, i, p in arrivals:
        by_time.setdefault(a, []).append((i, p))
    completions, starts, shed = [], [], []
    free = scenario["n_workers"]

    def poll(now):
        nonlocal free
        while free:
            try:
                members = (
                    (queue.get(timeout=0),) if policy is None
                    else queue.get_batch(policy, timeout=0)
                )
            except TimeoutError:
                return
            free -= 1
            starts.append((now, tuple(r.payload for r in members)))
            heapq.heappush(completions, (now + SERVICE, len(starts)))

    while pending or completions:
        now = min(
            pending[0] if pending else float("inf"),
            completions[0][0] if completions else float("inf"),
        )
        clock.advance_to(now)
        if pending and pending[0] == now:
            pending.pop(0)
        # At one instant the engine runs arrivals (pushed first), then
        # the gate's moves, then completions.
        for i, priority in by_time.get(now, ()):
            request = Request(payload=i, generated_at=now, priority=priority)
            if not queue.put(request):
                shed.append(i)
            poll(now)
        for when, method, arg in moves:
            if when == now:
                getattr(gate, method)(arg, now)
        while completions and completions[0][0] == now:
            heapq.heappop(completions)
            free += 1
            poll(now)
        poll(now)
    return _tallies(queue.snapshot(), gate, starts, shed)


def _sim_run(scenario):
    engine = Engine()
    injector, gate, buffer = _parts(scenario)
    shed = []
    server = SimulatedServer(
        engine, ServiceTimeModel(Deterministic(SERVICE)),
        NETWORK_MODELS["integrated"], scenario["n_workers"], random.Random(0),
        lambda r: shed.append(r.payload) if r.shed else None,
        injector=injector, queue_capacity=scenario["capacity"], gate=gate,
        buffer=buffer, batching=scenario["batching"],
        batch_marginal_cost=0.0,  # a batch costs one SERVICE, as live
    )
    starts = []
    real_start = server._start

    def start(members, now):
        starts.append((now, tuple(r.payload for r in members)))
        real_start(members, now)

    server._start = start
    for a, i, p in _arrivals(scenario):
        request = Request(payload=i, generated_at=a, priority=p)
        request.sent_at = a
        server.submit_request(request)
    for when, method, arg in _gate_moves(scenario):
        engine.at(when, getattr(gate, method), arg, when)
    engine.run()
    return _tallies(server.queue.snapshot(engine.now), gate, starts, shed)


stall_windows = st.lists(
    st.floats(1.0, 30.0).flatmap(
        lambda start: st.builds(
            StallWindow, st.just(start), st.floats(0.5, min(8.0, start))
        )
    ),
    max_size=2,
).map(tuple)
scenarios = st.fixed_dictionaries(dict(
    n_workers=st.integers(1, 3),
    capacity=st.one_of(st.none(), st.integers(1, 6)),
    limit=st.one_of(st.none(), st.integers(2, 8)),
    moves=st.lists(
        st.floats(2.0, 40.0), min_size=3, max_size=3, unique=True,
    ).map(sorted),
    priority=st.sampled_from([None, "strict", "weighted"]),
    batching=st.one_of(
        st.none(),
        st.builds(
            BatchPolicy, st.integers(1, 4),
            st.sampled_from([0.0, 0.37 * SERVICE, 2.3 * SERVICE]),
        ),
    ),
    plan=st.one_of(
        st.none(), stall_windows.map(lambda w: FaultPlan(queue_stalls=w))
    ),
    seed=st.integers(0, 2**16),
    load=st.sampled_from([0.5, 1.2, 3.0]),
))


EVERYTHING = dict(
    n_workers=2, capacity=4, limit=5, moves=[6.0, 12.5, 14.25],
    priority="weighted", batching=BatchPolicy(3, 0.37 * SERVICE),
    plan=FaultPlan(queue_stalls=(
        StallWindow(4.5, 3.0), StallWindow(20.0, 6.5),
    )),
    seed=11, load=1.2,
)
#: Unbatched, one worker idle through a stall: only the stall's end
#: starts what arrived during it.
IDLE_THROUGH_A_STALL = dict(
    EVERYTHING, n_workers=1, capacity=None, limit=None, priority=None,
    batching=None, plan=FaultPlan(queue_stalls=(StallWindow(10.0, 8.0),)),
    load=0.5,
)


class TestOneQueueStage:
    """The live queue and the simulated server run one queue stage: the
    same arrivals give the same admit and shed tallies, dequeue order
    and batch compositions."""

    @given(scenario=scenarios)
    @example(scenario=EVERYTHING)
    @example(scenario=IDLE_THROUGH_A_STALL)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_both_executors_decide_the_same(self, scenario):
        live, live_peak = _live_run(scenario)
        simulated, sim_peak = _sim_run(scenario)
        assert live == simulated
        assert live["depth"] == 0
        assert sim_peak <= live_peak

    def test_the_scenarios_exercise_every_decision(self):
        live, _ = _live_run(EVERYTHING)
        gate = live["gate"]
        assert gate["codel_dropped"] and gate["limit_dropped"]
        assert live["total_shed"] > gate["codel_dropped"] + gate["limit_dropped"]
        stalled = [
            t for t, _ in live["starts"] if t in (7.5, 26.5)
        ]  # the two stall ends
        assert stalled
        assert {len(members) for _, members in live["starts"]} == {1, 2, 3}
        idle, _ = _live_run(IDLE_THROUGH_A_STALL)
        assert [t for t, _ in idle["starts"]].count(18.0) == 1

    def test_peak_depth_is_the_one_difference(self):
        """A request that finds a worker idle and nothing waiting: the
        simulated server starts it without a push, so only the live
        queue — whose worker is woken by the push — counts it in its
        peak depth. Everything else agrees. (At this seed every gap
        between arrivals is longer than a service.)"""
        scenario = dict(
            EVERYTHING, capacity=None, limit=None, priority=None,
            batching=None, plan=None, n_workers=1, seed=43, load=0.05,
        )
        live, live_peak = _live_run(scenario)
        simulated, sim_peak = _sim_run(scenario)
        assert live == simulated
        assert [len(m) for _, m in live["starts"]] == [1] * N_ARRIVALS
        assert live["total_enqueued"] == N_ARRIVALS
        assert (live_peak, sim_peak) == (1, 0)
