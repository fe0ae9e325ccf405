"""Tests for the discrete-event engine and event queue.

The simulator's heap holds only what is in flight: arrivals stream
from the schedule under seqs reserved up front, and a zero-delay
response runs inside its completion when nothing else is due. The
references below are the heap that held everything — each arrival
pushed before the run, each response an event — and a run must not be
able to tell them apart.
"""

import contextlib
from unittest import mock

import pytest

from repro.control import AutoscalerConfig, ControlPlaneConfig
from repro.core import ObservabilityConfig, Scheduler, WallClock
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
            event.fn(*event.args)
        assert order == ["a", "b", "c"]

    def test_fifo_at_equal_times(self):
        queue = EventQueue()
        order = []
        for label in ("first", "second", "third"):
            queue.push(1.0, order.append, label)
        while (event := queue.pop()) is not None:
            event.fn(*event.args)
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
        assert overdue.time == 5.0
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
        assert early.time == 2.0
        queue.cancel(early)
        assert len(queue) == 0 and queue.pop() is None

    def test_events_order_without_a_python_comparison(self):
        # The entry is the tuple heapq compares: no __lt__ of our own.
        assert Event.__lt__ is tuple.__lt__
        event = EventQueue().push(1.0, print, "x")
        assert event == (1.0, 0, print, ("x",))
        assert (event.time, event.seq, event.fn, event.args) == tuple(event)

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
        event.fn(*event.args)
        fired.append(event.time)
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
            event.fn(*event.args)
            peak = max(peak, len(queue))
        assert fired == list(range(1000)) and peak == 1

    def test_a_series_fires_once_each_and_then_cancel_is_a_no_op(self):
        queue = EventQueue()
        queue.push_each([1.0, 2.0], lambda: None, [(), ()])
        first = queue.pop()
        first.fn(*first.args)
        # The fired event is behind the split: cancelling records nothing.
        queue.cancel(first)
        assert len(queue) == 1
        second = queue.pop()
        second.fn(*second.args)
        assert second.seq == first.seq + 1
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
        assert queue.push(1.0, print).seq == 0
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

    def test_executed_events_counted(self):
        engine = Engine()
        for i in range(5):
            engine.at(float(i), lambda: None)
        assert engine.run() == 5
