"""Tests for the clock abstraction."""

import statistics
import sys
import threading
import time

import pytest

from repro.core import VirtualClock, WallClock


class TestWallClock:
    def test_monotone(self):
        clock = WallClock()
        a = clock.now()
        b = clock.now()
        assert b >= a

    def test_now_reads_perf_counter_and_never_decreases(self):
        # ``now`` is ``time.perf_counter`` itself: its domain, no frame.
        clock = WallClock()
        before = time.perf_counter()
        reads = [clock.now() for _ in range(10000)]
        after = time.perf_counter()
        assert before <= reads[0] and reads[-1] <= after
        assert all(a <= b for a, b in zip(reads, reads[1:]))
        assert WallClock.now is time.perf_counter

    def test_sleep_until_reaches_deadline(self):
        clock = WallClock()
        deadline = clock.now() + 0.005
        clock.sleep_until(deadline)
        assert clock.now() >= deadline

    def test_sleep_until_precision(self):
        # The yield loop of the last millisecond should keep overshoot
        # small even on noisy shared machines (generous bound for CI).
        clock = WallClock()
        overshoots = []
        for _ in range(5):
            deadline = clock.now() + 0.002
            clock.sleep_until(deadline)
            overshoots.append(clock.now() - deadline)
        assert min(overshoots) < 2e-3

    def test_sleep_until_short_wait_is_not_a_timer_sleep(self):
        # Uncontended, a sub-millisecond wait ends within ~1 us of its
        # deadline (median of 20 trials: 0.4-0.9 us, pinned or not); a
        # loop of timer sleeps such as time.sleep(0) overshoots by the
        # kernel's timer slack (27-42 us here), which this bound rejects.
        clock = WallClock()
        overshoots = []
        for _ in range(50):
            deadline = clock.now() + 300e-6
            clock.sleep_until(deadline)
            overshoots.append(clock.now() - deadline)
        assert statistics.median(overshoots) < 15e-6

    def test_sleep_until_lets_a_woken_thread_run(self):
        # The shaper's case: it wakes the worker, then waits for its next
        # arrival. A wait that holds the GIL keeps the woken thread from
        # running until the wait is over; this one hands it over.
        clock = WallClock()
        go = threading.Event()
        stamped = threading.Event()
        stamp = [0.0]
        done = False

        def waiter():
            while go.wait(timeout=10.0) and not done:
                go.clear()
                stamp[0] = time.perf_counter()
                stamped.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        ran_first = 0
        try:
            for _ in range(200):
                stamped.clear()
                go.set()
                clock.sleep_until(clock.now() + 150e-6)
                returned = time.perf_counter()
                assert stamped.wait(timeout=5.0)
                ran_first += stamp[0] < returned
        finally:
            done = True
            go.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert ran_first >= 180

    def test_sleep_past_deadline_returns_immediately(self):
        clock = WallClock()
        start = clock.now()
        clock.sleep_until(start - 1.0)
        assert clock.now() - start < 0.01

    def test_sleep_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            WallClock().sleep(-0.1)


class TestVirtualClock:
    def test_starts_at_given_time(self):
        assert VirtualClock(5.0).now() == 5.0

    def test_advance(self):
        clock = VirtualClock()
        clock.advance(2.5)
        assert clock.now() == 2.5

    def test_advance_to(self):
        clock = VirtualClock()
        clock.advance_to(10.0)
        assert clock.now() == 10.0

    def test_cannot_go_backwards(self):
        clock = VirtualClock(10.0)
        with pytest.raises(
            ValueError, match=r"^virtual time cannot go backwards \(5\.0 < 10\.0\)$"
        ):
            clock.advance_to(5.0)
        assert clock.now() == 10.0
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_sleep_until_advances_without_waiting(self):
        clock = VirtualClock()
        wall_start = time.perf_counter()
        clock.sleep_until(1000.0)
        assert time.perf_counter() - wall_start < 0.5
        assert clock.now() == 1000.0

    def test_sleep_until_past_is_noop(self):
        clock = VirtualClock(100.0)
        clock.sleep_until(50.0)
        assert clock.now() == 100.0


class _NoLock:
    """Stands in for ``clock._lock``: entering it is the failure."""

    def __enter__(self):
        raise AssertionError("the clock's lock was taken")

    def __exit__(self, *exc):
        return False


class TestVirtualClockUnderThreads:
    def test_now_takes_no_lock(self):
        clock = VirtualClock(3.0)
        clock._lock = _NoLock()
        assert clock.now() == 3.0
        # ... and the writers still do.
        for write in (
            lambda: clock.advance_to(4.0),
            lambda: clock.advance(1.0),
            lambda: clock.sleep_until(9.0),
        ):
            with pytest.raises(AssertionError, match="lock was taken"):
                write()
        assert clock.now() == 3.0

    def test_readers_see_only_written_values_in_order(self):
        # One writer walks the clock through 50 000 increasing instants
        # while two readers poll it: a reader never sees time decrease
        # and never sees a value the writer did not store.
        instants = [i * 0.25 for i in range(1, 50_001)]
        written = set(instants) | {0.0}
        clock = VirtualClock()
        done = threading.Event()
        seen = [[], []]

        def write():
            try:
                for t in instants:
                    clock.advance_to(t)
            finally:
                done.set()

        def read(into):
            now = clock.now
            while not done.is_set():
                into.append(now())
            into.append(now())

        threads = [threading.Thread(target=write)] + [
            threading.Thread(target=read, args=(into,)) for into in seen
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert clock.now() == instants[-1]
        for values in seen:
            assert values[-1] == instants[-1]
            assert all(a <= b for a, b in zip(values, values[1:]))
            assert set(values) <= written
