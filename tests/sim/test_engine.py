"""Tests for the discrete-event engine and event queue."""

import pytest

from repro.core import Scheduler, WallClock
from repro.sim import Engine, Event, EventQueue


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
