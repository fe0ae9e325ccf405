"""Tests for the discrete-event engine and event queue.

The simulator's heap holds only what is in flight: arrivals stream
from the schedule under seqs reserved up front, a client's timers wait
in lanes behind one head each, and a zero-delay response runs inside
its completion when nothing else is due. The references below are the
heap that held everything — each arrival pushed before the run, each
timer pushed on the heap, each response an event — and a run must not
be able to tell them apart.
"""

import contextlib
import random
import re
import time
import types
from unittest import mock

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.control import AutoscalerConfig, ControlPlaneConfig
from repro.core import (
    ObservabilityConfig,
    ResilienceConfig,
    Scheduler,
    WallClock,
)
from repro.faults import FaultPhase, FaultPlan, Scenario
from repro.sim import (
    Engine,
    Event,
    EventQueue,
    SimConfig,
    SimulatedServer,
    simulate_app,
    simulate_load,
)
from repro.sim.calibration import AppProfile
from repro.stats import Deterministic


def _push_every_arrival_up_front(queue, times, fn, args):
    # What simulate_load did before arrivals streamed.
    for generated_at, arguments in zip(times, args):
        queue.push(generated_at, fn, *arguments)


@contextlib.contextmanager
def arrivals_up_front():
    """Reference heap: the whole arrival schedule pushed before the run."""
    with mock.patch.object(
        EventQueue, "push_each", _push_every_arrival_up_front
    ):
        yield


@contextlib.contextmanager
def timers_on_the_heap():
    """Reference heap: a lane is no lane, every push goes to the heap."""
    with mock.patch.object(
        EventQueue, "lane", lambda queue: types.SimpleNamespace(push=queue.push)
    ):
        yield


@contextlib.contextmanager
def responses_always_scheduled():
    """Reference heap: every response is an event, never run inline."""
    with mock.patch.object(
        SimulatedServer, "_nothing_else_due", lambda self, now: False
    ):
        yield


def trace_stream(result) -> list:
    """The trace events as tuples, ids renumbered by first appearance
    (request ids come from one process-wide counter)."""
    renumbered = {}

    def ident(kind, value):
        if value is None:
            return None
        return renumbered.setdefault((kind, value), len(renumbered))

    return [
        (event.ts, event.kind, ident("logical", event.logical_id),
         ident("request", event.request_id), event.attempt,
         event.server_id, event.value)
        for event in result.obs.events
    ]


def observed(result) -> dict:
    """What an event-order change would show in (of a traced run): the
    bit-identity triple, the trace-event stream and the metric series."""
    return dict(
        fingerprint=result.fingerprint(),
        outcomes=dict(result.outcomes),
        events=trace_stream(result),
        series={
            name: [point.as_dict() for point in points]
            for name, points in result.obs.series.items()
        },
    )


#: Deterministic arrivals land on multiples of GAP exactly (a power of
#: two sums without rounding), and so does every cadence below: samples,
#: control ticks and scenario boundaries all tie with an arrival.
GAP = 2.0 ** -12
CONSTANT = AppProfile(name="constant", service=Deterministic(3 * GAP))


def tied_config(n_servers: int = 1, **overrides) -> SimConfig:
    fields = dict(
        qps=1.0 / GAP,
        deterministic_arrivals=True,
        warmup_requests=16,
        measure_requests=496,
        n_servers=n_servers,
        n_threads=2,
        seed=3,
        observability=ObservabilityConfig(
            tracing=True, metrics_interval=32 * GAP
        ),
        control=ControlPlaneConfig(
            enabled=True, tick_interval=64 * GAP,
            autoscaler=AutoscalerConfig(
                min_servers=1, max_servers=n_servers + 1
            ),
        ),
        scenario=Scenario(
            name="tied",
            phases=(
                FaultPhase(128 * GAP, 128 * GAP, FaultPlan(drop_rate=1.0),
                           label="drops"),
                FaultPhase(320 * GAP, 64 * GAP, FaultPlan(error_rate=1.0),
                           label="errors"),
            ),
        ),
    )
    fields.update(overrides)
    return SimConfig(**fields)


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.push(3.0, order.append, "c")
        queue.push(1.0, order.append, "a")
        queue.push(2.0, order.append, "b")
        while True:
            event = queue.pop()
            if event is None:
                break
            event[2](*event[3])
        assert order == ["a", "b", "c"]

    def test_fifo_at_equal_times(self):
        queue = EventQueue()
        order = []
        for label in ("first", "second", "third"):
            queue.push(1.0, order.append, label)
        while (event := queue.pop()) is not None:
            event[2](*event[3])
        assert order == ["first", "second", "third"]

    def test_cancellation(self):
        queue = EventQueue()
        fired = []
        event = queue.push(1.0, fired.append, "x")
        queue.cancel(event)
        assert queue.pop() is None
        assert not fired

    def test_len_ignores_cancelled(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        drop = queue.push(2.0, lambda: None)
        queue.cancel(drop)
        queue.cancel(drop)  # idempotent
        assert len(queue) == 1

    def test_cancelled_leader_is_skipped_and_not_counted(self):
        queue = EventQueue()
        leader = queue.push(1.0, lambda: None)
        follower = queue.push(2.0, lambda: None)
        queue.cancel(leader)
        assert len(queue) == 1 and queue
        assert queue.peek_time() == 2.0
        assert queue.pop() is follower
        assert len(queue) == 0 and not queue
        assert queue.pop() is None

    def test_cancelling_an_event_that_left_the_heap_changes_nothing(self):
        # A resolved call cancels all its timers, fired ones included.
        queue = EventQueue()
        fired = queue.push(1.0, lambda: None)
        same_instant = queue.push(1.0, lambda: None)
        assert queue.pop() is fired
        queue.cancel(fired)
        assert len(queue) == 1
        assert queue.pop() is same_instant

    def test_no_event_is_pushed_ahead_of_one_that_fired(self):
        queue = EventQueue()
        queue.push(5.0, lambda: None)
        queue.pop()
        overdue = queue.push(1.0, lambda: None)
        assert overdue[0] == 5.0
        queue.cancel(overdue)
        assert queue.pop() is None

    def test_a_dropped_future_timer_does_not_delay_earlier_pushes(self):
        # Pruning a cancelled leader due at 9.0 is not the clock
        # reaching 9.0: an event pushed for 2.0 afterwards is due at 2.0.
        queue = EventQueue()
        dead = queue.push(9.0, lambda: None)
        queue.cancel(dead)
        assert queue.peek_time() is None
        early = queue.push(2.0, lambda: None)
        assert early[0] == 2.0
        queue.cancel(early)
        assert len(queue) == 0 and queue.pop() is None

    def test_events_order_without_a_python_comparison(self):
        # The entry is the plain list heapq compares: no __lt__ of our
        # own, and cancelling it is one store over ``fn``.
        event = EventQueue().push(1.0, print, "x")
        assert type(event) is list and Event.__lt__ is list.__lt__
        assert event == [1.0, 0, print, ("x",)]
        EventQueue.cancel(event)
        assert event == [1.0, 0, None, ("x",)]

    def test_the_scheduler_drives_the_same_queue_class(self):
        scheduler = Scheduler(WallClock())
        try:
            assert type(scheduler._queue) is type(Engine()._queue) is EventQueue
            keep = scheduler.after(30.0, lambda: None)
            drop = scheduler.after(30.0, lambda: None)
            assert scheduler.pending() == 2
            scheduler.cancel(drop)
            assert scheduler.pending() == 1
            scheduler.cancel(keep)
            assert scheduler.pending() == 0
        finally:
            scheduler.stop()

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(5.0, lambda: None)
        assert queue.peek_time() == 5.0


def _drain(queue):
    fired = []
    while (event := queue.pop()) is not None:
        event[2](*event[3])
        fired.append(event[0])
    return fired


class TestSeries:
    """``push_each``: a sorted series numbered now, streamed one by one."""

    @staticmethod
    def _timeline(series_push):
        queue, order = EventQueue(), []
        queue.push(1.0, order.append, "before")
        series_push(queue, [1.0, 1.0, 2.0, 3.0], order.append,
                    [("s0",), ("s1",), ("s2",), ("s3",)])
        queue.push(1.0, order.append, "after")
        queue.push(2.0, order.append, "after2")
        times = _drain(queue)
        return order, times, next(queue._seq)

    def test_orders_as_if_every_event_were_pushed_now(self):
        streamed = self._timeline(EventQueue.push_each)
        assert streamed == self._timeline(_push_every_arrival_up_front)
        order, times, next_seq = streamed
        # Ties go to the series' reserved seqs: before the later pushes.
        assert order == ["before", "s0", "s1", "after", "s2", "after2", "s3"]
        assert times == [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0]
        assert next_seq == 7

    def test_the_heap_holds_one_event_of_the_series(self):
        queue, fired = EventQueue(), []
        queue.push_each([float(i) for i in range(1000)], fired.append,
                        ((i,) for i in range(1000)))
        assert len(queue) == 1
        peak = 0
        while (event := queue.pop()) is not None:
            event[2](*event[3])
            peak = max(peak, len(queue))
        assert fired == list(range(1000)) and peak == 1

    def test_a_series_fires_once_each_and_then_cancel_is_a_no_op(self):
        queue = EventQueue()
        queue.push_each([1.0, 2.0], lambda: None, [(), ()])
        first = queue.pop()
        first[2](*first[3])
        # The fired event is behind the split: cancelling records nothing.
        queue.cancel(first)
        assert len(queue) == 1
        second = queue.pop()
        second[2](*second[3])
        assert second[1] == first[1] + 1
        assert queue.pop() is None and len(queue) == 0

    def test_refuses_an_unsorted_series_or_one_in_the_past(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.push_each([2.0, 1.0], print, [(), ()])
        queue.push(5.0, lambda: None)
        queue.pop()
        with pytest.raises(ValueError):
            queue.push_each([4.0, 6.0], print, [(), ()])
        assert queue.pop() is None

    def test_an_empty_series_reserves_nothing(self):
        queue = EventQueue()
        queue.push_each([], print, [])
        assert queue.push(1.0, print)[1] == 0
        assert len(queue) == 1

    def test_engine_run_counts_series_events(self):
        engine = Engine()
        fired = []
        engine._queue.push_each(
            [0.5, 1.0, 1.0], lambda label: fired.append((engine.now, label)),
            [("a",), ("b",), ("c",)],
        )
        assert engine.run() == 3
        assert fired == [(0.5, "a"), (1.0, "b"), (1.0, "c")]


def _lane_script(seed: int, n_ops: int = 400) -> list:
    """Pushes to the heap and to three lanes — in order, tied, and now
    and then earlier than the lane's tail — with pops, peeks and
    cancels (of live, waiting and fired events; each event once, as a
    resolved call cancels its timers) in between."""
    rng = random.Random(seed)
    tails, ops, uncancelled, pushed = [0.0, 0.0, 0.0], [], [], 0
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.35:
            k = rng.randrange(3)
            step = rng.choice([0.0, 0.0, 0.5, 1.0])
            if rng.random() < 0.15:
                step = -rng.choice([0.5, 1.0, 2.0])
            tails[k] = max(tails[k] + step, 0.0)
            ops.append(("lane", k, tails[k]))
            uncancelled.append(pushed)
            pushed += 1
        elif roll < 0.5:
            ops.append(("heap", rng.choice([0.0, 0.5, 1.0, 3.0])))
            uncancelled.append(pushed)
            pushed += 1
        elif roll < 0.7 and uncancelled:
            ops.append(("cancel", uncancelled.pop(
                rng.randrange(len(uncancelled))
            )))
        elif roll < 0.8:
            ops.append(("peek",))
        else:
            ops.append(("pop",))
    return ops


def _play(queue: EventQueue, lanes: list, ops: list) -> list:
    """What the queue shows: every pop and peek, and ``len`` after
    each step."""
    seen, handles, now = [], [], 0.0
    for op in ops:
        if op[0] == "lane":
            handles.append(lanes[op[1]].push(op[2], print, len(handles)))
        elif op[0] == "heap":
            handles.append(queue.push(now + op[1], print, len(handles)))
        elif op[0] == "cancel":
            queue.cancel(handles[op[1]])
        elif op[0] == "peek":
            seen.append(("peek", queue.peek_time()))
        else:
            event = queue.pop()
            if event is not None:
                now = event[0]
                event = tuple(event)
            seen.append(("pop", event))
        seen.append(("len", len(queue)))
    while (event := queue.pop()) is not None:
        seen.append(("pop", tuple(event)))
    return seen


class TestLanes:
    """``EventQueue.lane``: a FIFO of timers with only its head on the
    heap pops exactly what the heap holding every timer pops."""

    @staticmethod
    def _reference_lanes(queue):
        with timers_on_the_heap():
            return [queue.lane() for _ in range(3)]

    @pytest.mark.parametrize("seed", range(40))
    def test_interleaved_with_the_heap_pops_as_the_heap_alone(self, seed):
        ops = _lane_script(seed)
        laned = EventQueue()
        reference = EventQueue()
        assert _play(laned, [laned.lane() for _ in range(3)], ops) == _play(
            reference, self._reference_lanes(reference), ops
        )

    def test_the_scripts_exercise_every_path(self):
        most_behind = earlier = 0
        for seed in range(40):
            queue = EventQueue()
            lanes = [queue.lane() for _ in range(3)]
            for op in _lane_script(seed):
                if op[0] == "lane":
                    lane = lanes[op[1]]
                    due = max(op[2], queue._fired_at)
                    earlier += lane._armed and due < lane._tail
                    lane.push(op[2], print)
                    most_behind = max(most_behind, len(lane._waiting))
                elif op[0] == "pop":
                    queue.pop()
        assert most_behind >= 5 and earlier > 0

    def test_ties_break_by_push_order_across_lane_and_heap(self):
        queue, order = EventQueue(), []
        lane = queue.lane()
        lane.push(1.0, order.append, "lane0")
        queue.push(1.0, order.append, "heap0")
        lane.push(1.0, order.append, "lane1")
        queue.push(1.0, order.append, "heap1")
        lane.push(2.0, order.append, "lane2")
        queue.push(1.5, order.append, "heap2")
        assert len(queue) == 6
        assert len(queue._heap) == 4 and len(lane._waiting) == 2
        _drain(queue)
        assert order == ["lane0", "heap0", "lane1", "heap1", "heap2", "lane2"]

    def test_only_the_head_is_on_the_heap(self):
        queue = EventQueue()
        lane = queue.lane()
        for t in range(100):
            lane.push(float(t), print)
        assert len(queue._heap) == 1 and len(queue) == 100
        assert [event[0] for event in (queue.pop(), queue.pop())] == [0.0, 1.0]
        assert len(queue._heap) == 1 and len(queue) == 98

    def test_an_earlier_push_goes_to_the_heap(self):
        queue, order = EventQueue(), []
        lane = queue.lane()
        lane.push(5.0, order.append, "tail")
        early = lane.push(3.0, order.append, "early")
        # Not behind the head: on the heap beside it.
        assert not lane._waiting and early in queue._heap
        lane.push(6.0, order.append, "after")
        assert len(lane._waiting) == 1 and len(queue) == 3
        _drain(queue)
        assert order == ["early", "tail", "after"]

    def test_a_cancelled_waiting_event_never_reaches_the_heap(self):
        queue, order = EventQueue(), []
        lane = queue.lane()
        lane.push(1.0, order.append, "a")
        dead = lane.push(2.0, order.append, "b")
        lane.push(3.0, order.append, "c")
        queue.cancel(dead)
        assert len(queue) == 2
        queue.pop()
        assert [event[0] for event in queue._heap] == [3.0]
        assert len(queue) == 1
        _drain(queue)
        assert order == ["c"]

    def test_pop_rearms_past_a_cancelled_head(self):
        queue = EventQueue()
        lane = queue.lane()
        dead = lane.push(1.0, print)
        lane.push(2.0, print)
        queue.cancel(dead)
        assert len(queue) == 1
        assert queue.pop()[0] == 2.0
        assert len(queue) == 0 and queue.pop() is None
        # Run dry, the lane takes its next push as its head.
        lane.push(2.5, print)
        assert len(queue._heap) == 1 and queue.pop()[0] == 2.5

    def test_peek_time_rearms_past_a_cancelled_head(self):
        queue = EventQueue()
        lane = queue.lane()
        dead = lane.push(1.0, print)
        lane.push(4.0, print)
        queue.cancel(dead)
        assert queue.peek_time() == 4.0
        assert [event[0] for event in queue._heap] == [4.0]
        assert len(queue) == 1

    def test_a_bounded_run_rearms_past_a_cancelled_head(self):
        engine = Engine()
        lane, fired = engine.lane(), []
        dead = lane.at(1.0, fired.append, "cancelled")
        lane.at(2.0, fired.append, "kept")
        engine.cancel(dead)
        assert engine.run(until=1.5) == 0
        assert engine.now == 1.5 and not fired
        assert [event[0] for event in engine._queue._heap] == [2.0]
        assert engine.run() == 1 and fired == ["kept"]

    def test_cancelling_the_event_that_is_firing_is_a_no_op(self):
        # A call resolving on its own deadline cancels that deadline
        # while it runs.
        engine = Engine()
        lane, fired, handles = engine.lane(), [], []

        def resolve():
            for handle in handles:
                engine.cancel(handle)
            fired.append(engine.now)

        handles.append(lane.at(1.0, resolve))
        lane.at(2.0, fired.append, "next")
        assert engine.run() == 2
        assert fired == [1.0, "next"] and len(engine._queue) == 0

    def test_the_engine_lane_has_the_engines_surface(self):
        engine = Engine(start_time=1.0)
        lane, fired = engine.lane(), []
        lane.after(2.0, lambda: fired.append(engine.now))
        lane.at(4.0, lambda: fired.append(engine.now))
        with pytest.raises(ValueError):
            lane.at(0.5, print)
        with pytest.raises(ValueError):
            lane.after(-1.0, print)
        assert engine.run() == 2 and fired == [3.0, 4.0]

    def test_the_scheduler_lane_has_the_schedulers_surface(self):
        scheduler = Scheduler(WallClock())
        try:
            lane = scheduler.lane()
            keep = lane.after(30.0, lambda: None)
            drop = lane.after(30.0, lambda: None)
            assert scheduler.pending() == 2
            scheduler.cancel(drop)
            assert scheduler.pending() == 1
            scheduler.cancel(keep)
            assert scheduler.pending() == 0
            done = []
            lane.after(0.0, done.append, "fired")
            for _ in range(500):
                if done:
                    break
                time.sleep(0.01)
            assert done == ["fired"]
        finally:
            scheduler.stop()


class TestCancelTwice:
    """Every cancel after the first is a no-op, whatever happened to
    the event in between — without the queue keeping every cancelled
    ``seq`` for the rest of the run."""

    def test_after_pop_dropped_it(self):
        queue = EventQueue()
        dead = queue.push(1.0, print)
        later = queue.push(2.0, print)
        queue.cancel(dead)
        assert queue.pop() is later  # dropped ``dead`` on the way
        queue.cancel(dead)
        assert len(queue) == 0 and queue.pop() is None

    def test_after_peek_time_dropped_it(self):
        queue = EventQueue()
        dead = queue.push(1.0, print)
        queue.push(2.0, print)
        queue.cancel(dead)
        assert queue.peek_time() == 2.0
        queue.cancel(dead)
        assert len(queue) == 1

    def test_after_a_lane_rearmed_past_it(self):
        queue = EventQueue()
        lane = queue.lane()
        lane.push(1.0, print)
        dead = lane.push(2.0, print)
        lane.push(3.0, print)
        queue.cancel(dead)
        assert queue.pop()[0] == 1.0  # the lane re-arms past ``dead``
        for _ in range(3):
            queue.cancel(dead)
        assert len(queue) == 1
        assert queue.pop()[0] == 3.0 and len(queue) == 0

    def test_what_is_remembered_stays_bounded(self):
        # A timer per event, cancelled before it is due and cancelled
        # again after it was dropped: the queue keeps nothing to
        # recognise the second cancel, and holds only what is pending.
        queue = EventQueue()
        lane = queue.lane()
        now = 0.0
        for i in range(20_000):
            queue.push(now + 0.5, print)
            timer = lane.push(now + 1.0, print)
            queue.cancel(timer)
            now = queue.pop()[0]
            queue.cancel(timer)
        assert len(queue) == 0 and len(queue._heap) <= 1
        assert not queue._heads and not lane._waiting


class _CancelModel(RuleBasedStateMachine):
    """An engine's queue, pushed on the heap and on three lanes, popped,
    peeked, run to a bound and cancelled — any handle, any number of
    times — against a sorted list of what is pending."""

    def __init__(self):
        super().__init__()
        self.engine = Engine()
        self.queue = self.engine._queue
        self.lanes = [self.queue.lane() for _ in range(3)]
        self.pending = []  # sorted (time, seq, label)
        self.handles = []
        self.fired = []
        self.last = float("-inf")

    def _push(self, push, offset):
        time = max(self.engine.now + offset, self.last)
        label = len(self.handles)
        event = push(self.engine.now + offset, self.fired.append, label)
        assert (event[0], event[1]) == (time, label)
        self.handles.append(event)
        self.pending.append((time, label, label))
        self.pending.sort()

    @rule(offset=st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    def push_heap(self, offset):
        self._push(self.queue.push, offset)

    @rule(lane=st.integers(0, 2), offset=st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    def push_lane(self, lane, offset):
        self._push(self.lanes[lane].push, offset)

    @rule()
    def pop(self):
        event = self.queue.pop()
        if not self.pending:
            assert event is None
            return
        expected = self.pending.pop(0)
        assert (event[0], event[1], event[3]) == (
            expected[0], expected[1], (expected[2],)
        )
        self.last = event[0]

    @rule()
    def peek(self):
        expected = self.pending[0][0] if self.pending else None
        assert self.queue.peek_time() == expected

    @rule(span=st.sampled_from([0.0, 0.5, 1.5]))
    def run_until(self, span):
        until = max(self.engine.now, self.last) + span
        due = [entry for entry in self.pending if entry[0] <= until]
        del self.pending[:len(due)]
        self.fired.clear()
        assert self.engine.run(until=until) == len(due)
        assert self.fired == [label for _, _, label in due]
        if due:
            self.last = due[-1][0]

    @precondition(lambda self: self.handles)
    @rule(pick=st.integers(0, 10**6), times=st.integers(1, 3))
    def cancel(self, pick, times):
        handle = self.handles[pick % len(self.handles)]
        for _ in range(times):
            self.engine.cancel(handle)
        self.pending = [e for e in self.pending if e[1] != handle[1]]

    @invariant()
    def counts_what_is_pending(self):
        assert len(self.queue) == len(self.pending)


TestCancelModel = _CancelModel.TestCase
TestCancelModel.settings = settings(
    max_examples=150, stateful_step_count=60, deadline=None,
    derandomize=True,
)


class TestStreamedArrivals:
    """A run whose arrivals stream equals the run that pushed them all."""

    @pytest.mark.parametrize("n_servers", [1, 3])
    def test_ties_with_samples_ticks_and_boundaries_keep_their_order(
        self, n_servers
    ):
        config = tied_config(n_servers)
        streamed = simulate_load(CONSTANT, config)
        with arrivals_up_front():
            reference = simulate_load(CONSTANT, config)
        assert observed(streamed) == observed(reference)
        # The ties were there to break: every sample and tick instant is
        # an arrival instant, and both phases changed something.
        assert streamed.fault_counts["phase_changes"] == 4
        assert streamed.fault_counts["drops"] > 0
        assert streamed.outcomes["errors"] > 0
        assert streamed.control_counts["ticks"] >= 7


class TestHeapHoldsWhatIsInFlight:
    def test_a_long_run_never_holds_its_schedule(self, monkeypatch):
        # A sim-plain-shaped run: one masstree server at 4 000 qps. The
        # heap only grows between pops, so its peak is seen by one.
        peak = [0]
        real_pop = EventQueue.pop

        def pop(queue):
            peak[0] = max(peak[0], len(queue))
            return real_pop(queue)

        monkeypatch.setattr(EventQueue, "pop", pop)
        result = simulate_app("masstree", SimConfig(
            qps=4000.0, warmup_requests=3_000, measure_requests=27_000,
        ))
        assert result.outcomes["offered"] == 30_000
        assert 1 <= peak[0] <= 64

    def test_a_resilient_run_keeps_its_timers_off_the_heap(self, monkeypatch):
        # The sim-resilient heavy phase: 8 replicas at 20 000 qps, a
        # deadline, retries and a hedge on every call, and faults. With
        # every timer on the heap, it peaked at 1 534 entries, almost
        # all of them cancelled timers.
        peak = [0]
        real_pop = EventQueue.pop

        def pop(queue):
            peak[0] = max(peak[0], len(queue._heap))
            return real_pop(queue)

        monkeypatch.setattr(EventQueue, "pop", pop)
        result = simulate_app("masstree", SimConfig(
            qps=20_000.0, warmup_requests=1_200, measure_requests=12_000,
            seed=1, n_servers=8, balancer="power_of_two",
            resilience=ResilienceConfig(
                deadline=0.05, max_retries=2, hedge_after=0.002,
            ),
            faults=FaultPlan(
                drop_rate=0.01, error_rate=0.01,
                worker_pause_rate=0.005, worker_pause=0.002,
            ),
        ))
        assert result.outcomes["offered"] == 13_200
        assert result.outcomes["hedges"] > 0 and result.outcomes["retries"] > 0
        assert 1 <= peak[0] <= 32


class TestEngine:
    def test_clock_advances_through_events(self):
        engine = Engine()
        times = []
        engine.at(1.0, lambda: times.append(engine.now))
        engine.at(2.5, lambda: times.append(engine.now))
        engine.run()
        assert times == [1.0, 2.5]
        assert engine.now == 2.5

    def test_after_is_relative(self):
        engine = Engine(start_time=10.0)
        fired = []
        engine.after(5.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [15.0]

    def test_events_can_schedule_events(self):
        engine = Engine()
        log = []

        def chain(n):
            log.append((engine.now, n))
            if n > 0:
                engine.after(1.0, chain, n - 1)

        engine.at(0.0, chain, 3)
        engine.run()
        assert log == [(0.0, 3), (1.0, 2), (2.0, 1), (3.0, 0)]

    def test_run_until_stops_midway(self):
        engine = Engine()
        fired = []
        engine.at(1.0, fired.append, "early")
        engine.at(10.0, fired.append, "late")
        engine.run(until=5.0)
        assert fired == ["early"]
        assert engine.now == 5.0
        engine.run()
        assert fired == ["early", "late"]

    def test_cancel(self):
        engine = Engine()
        fired = []
        event = engine.at(1.0, fired.append, "x")
        engine.cancel(event)
        engine.run()
        assert not fired

    def test_scheduling_in_past_rejected(self):
        engine = Engine()
        engine.at(5.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.at(1.0, lambda: None)
        with pytest.raises(ValueError):
            engine.after(-1.0, lambda: None)

    def test_runaway_guard(self):
        engine = Engine()
        ran = []

        def forever():
            ran.append(engine.now)
            engine.after(0.001, forever)

        engine.at(0.0, forever)
        with pytest.raises(RuntimeError):
            engine.run(max_events=1000)
        # The budget is the number of callbacks run: the 1001st never is.
        assert len(ran) == 1000

    def test_a_run_of_exactly_max_events_does_not_raise(self):
        engine = Engine()
        ran = []
        for i in range(1000):
            engine.at(float(i), ran.append, i)
        assert engine.run(max_events=1000) == 1000
        assert len(ran) == 1000
        # One more event than the budget: it stays on the heap, unrun.
        for i in range(1001):
            engine.after(float(i), ran.append, i)
        with pytest.raises(RuntimeError):
            engine.run(max_events=1000)
        assert len(ran) == 2000
        assert engine.run() == 1 and len(ran) == 2001

    def test_run_until_pops_nothing_beyond_the_bound(self):
        # The bounded run is the one path that peeks before it pops.
        engine = Engine()
        fired = []
        dead = engine.at(1.0, fired.append, "cancelled")
        engine.at(2.0, fired.append, "kept")
        engine.cancel(dead)
        assert engine.run(until=1.5) == 0
        assert engine.now == 1.5 and not fired
        assert engine.run(until=1.5, max_events=0) == 0
        assert engine.run() == 1 and fired == ["kept"]

    def test_the_clock_refuses_to_go_back(self):
        # A series pushed after a bounded run stopped the clock at 5.0
        # starts behind it: the engine stores popped times itself, and
        # refuses this one as VirtualClock.advance_to would.
        engine = Engine()
        engine.at(10.0, lambda: None)
        engine.run(until=5.0)
        engine._queue.push_each([2.0, 3.0], lambda: None, [(), ()])
        with pytest.raises(ValueError, match=re.escape(
            "virtual time cannot go backwards (2.0 < 5.0)"
        )):
            engine.run()
        assert engine.now == 5.0

    def test_executed_events_counted(self):
        engine = Engine()
        for i in range(5):
            engine.at(float(i), lambda: None)
        assert engine.run() == 5
