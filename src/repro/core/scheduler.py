"""Who advances time: one timer heap, one ``at / after / cancel`` surface.

Everything in a run that happens *later* — a deadline, a retry backoff,
a hedge, a fault-delayed send, a scenario phase boundary, a metrics
sample, a control tick — is a callback on the run's :class:`EventQueue`.
Two drivers pop it: under the wall clock one :class:`Scheduler` timer
thread, in virtual time the simulator's :class:`repro.sim.Engine`; both
expose the same three methods. :func:`every` is the one way a cadence
is kept under both.

Callbacks run on the timer thread, so they must not block: whatever
one of them waits for, every other timer of the run waits for too.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from operator import itemgetter
from typing import Any, Callable, Iterable, Optional, Sequence, Set

from .clock import Clock

__all__ = ["Event", "EventQueue", "Scheduler", "every"]


class Event(tuple):
    """One scheduled callback: the tuple ``(time, seq, fn, args)``.

    The event *is* its heap entry, so ``heapq`` orders entries by
    ``(time, seq)`` with the C tuple comparison — ``seq`` is unique, so
    a comparison never reaches ``fn`` — and an entry costs one object.
    It is also the handle ``at`` / ``after`` return and ``cancel`` takes.
    """

    __slots__ = ()
    time = property(itemgetter(0))
    seq = property(itemgetter(1))
    fn = property(itemgetter(2))
    args = property(itemgetter(3))


class EventQueue:
    """Min-heap of events, FIFO among equal times.

    Events fire in ``(time, seq)`` order and none can be pushed ahead
    of one that already fired (its time is raised to that one's), so
    the last fired event splits the events ever pushed into those that
    fired and those still on the heap. :meth:`cancel` uses that to
    record only entries that are still on the heap — a resolved call
    cancels all its timers, fired ones included — which keeps ``len``
    exact at no cost per entry.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = itertools.count()
        #: ``seq`` of every cancelled entry still on the heap.
        self._cancelled: Set[int] = set()
        #: The event :meth:`pop` returned last.
        self._fired = Event((float("-inf"), -1, None, ()))

    def push(self, time: float, fn: Callable, *args: Any) -> Event:
        if time < self._fired[0]:
            time = self._fired[0]
        event = Event((time, next(self._seq), fn, args))
        heapq.heappush(self._heap, event)
        return event

    def push_each(
        self, times: Sequence[float], fn: Callable, args: Iterable[tuple]
    ) -> None:
        """Push ``fn(*args[i])`` at ``times[i]`` for a sorted series.

        The series takes its block of ``seq`` numbers now, so it orders
        against every other event exactly as ``len(times)`` :meth:`push`
        calls made here would, ties included. Only its next event is on
        the heap, and firing it pushes the one after: every event of the
        series not yet pushed has a larger key than the one that is, so
        each pop returns what it would with the whole series on the
        heap. The heap then holds what is in flight, not the series.
        """
        n = len(times)
        if not n:
            return
        if times[0] < self._fired[0] or any(
            b < a for a, b in zip(times, times[1:])
        ):
            raise ValueError("a series must be sorted and not start in the past")
        base = next(self._seq)
        self._seq = itertools.count(base + n)
        heap = self._heap

        def fire(*event_args: Any) -> None:
            following = next(events, None)
            if following is not None:
                heapq.heappush(heap, following)
            fn(*event_args)

        events = map(Event, zip(
            times, itertools.count(base), itertools.repeat(fire), args
        ))
        heapq.heappush(heap, next(events))

    def cancel(self, event: Event) -> None:
        """Make ``event`` never fire; a no-op once it has."""
        if event > self._fired:
            self._cancelled.add(event[1])

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event (None when empty)."""
        heap, cancelled = self._heap, self._cancelled
        while heap:
            event = heapq.heappop(heap)
            if event[1] not in cancelled:
                self._fired = event
                return event
            cancelled.remove(event[1])
        return None

    def peek_time(self) -> Optional[float]:
        """When the earliest live event is due (None when empty).

        Cancelled leaders are dropped on the way, whenever they were
        due, so a dead timer neither wakes the timer thread nor moves
        the virtual clock.
        """
        heap, cancelled = self._heap, self._cancelled
        while heap and heap[0][1] in cancelled:
            cancelled.remove(heapq.heappop(heap)[1])
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return len(self._heap) - len(self._cancelled)


class Scheduler:
    """Wall-clock driver of an :class:`EventQueue`.

    One daemon thread — started by the first :meth:`at`, so a run that
    schedules nothing starts none — sleeps until the earliest event;
    callbacks run outside the internal lock so they may schedule
    further events. :meth:`at`/:meth:`after` return the event, which
    :meth:`cancel` takes off the timeline, so a resolved call's
    outstanding deadline/hedge/timeout entries stop costing wakeups at
    high QPS.

    A callback that raises does not take the other timers with it: the
    thread keeps serving, and :meth:`stop` re-raises the first such
    exception. Events pending at stop, or scheduled after it, never
    fire.
    """

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self._queue = EventQueue()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._stopped = False
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[Exception] = None

    def at(self, when: float, fn: Callable, *args) -> Event:
        with self._wakeup:
            event = self._queue.push(when, fn, *args)
            if self._thread is None and not self._stopped:
                self._thread = threading.Thread(
                    target=self._loop, name="tb-timer", daemon=True
                )
                self._thread.start()
            self._wakeup.notify()
        return event

    def after(self, delay: float, fn: Callable, *args) -> Event:
        return self.at(self._clock.now() + max(delay, 0.0), fn, *args)

    def cancel(self, event: Event) -> None:
        with self._lock:
            self._queue.cancel(event)

    def pending(self) -> int:
        """Live (uncancelled) entries still on the heap (test hook)."""
        with self._lock:
            return len(self._queue)

    def _loop(self) -> None:
        queue = self._queue
        while True:
            with self._wakeup:
                if self._stopped:
                    return
                # Cancelled leaders are pruned here, so they neither
                # schedule a wakeup nor count as work.
                when = queue.peek_time()
                if when is None:
                    self._wakeup.wait()
                    continue
                now = self._clock.now()
                if when > now:
                    self._wakeup.wait(when - now)
                    continue
                _, _, fn, args = queue.pop()
            try:
                fn(*args)
            except Exception as exc:  # noqa: BLE001 - re-raised by stop()
                if self._error is None:
                    self._error = exc

    def stop(self) -> None:
        """Discard pending events, join the thread, surface a failure.

        Returns in bounded time whatever is pending; raises the first
        exception a callback raised, if any did.
        """
        with self._wakeup:
            self._stopped = True
            self._wakeup.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join(5.0)
        error, self._error = self._error, None
        if error is not None:
            raise error


def every(
    scheduler,
    interval: float,
    first: float,
    fn: Callable[[], None],
    until: Optional[float] = None,
) -> None:
    """Call ``fn()`` at ``first``, ``first + interval``, ... on ``scheduler``.

    Each firing schedules the next from its own *scheduled* instant, so
    the cadence does not drift with callback latency. ``until`` bounds
    the series (the simulator passes its arrival horizon, so the event
    heap still drains); unbounded, it ends when the scheduler stops.
    """

    def tick(when: float) -> None:
        fn()
        following = when + interval
        if until is None or following <= until:
            scheduler.at(following, tick, following)

    scheduler.at(first, tick, first)
