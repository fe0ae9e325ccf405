"""Who advances time: one timer heap, one ``at / after / cancel`` surface.

Everything in a run that happens *later* — a deadline, a retry backoff,
a hedge, a fault-delayed send, a scenario phase boundary, a metrics
sample, a control tick — is a callback on the run's :class:`EventQueue`.
Two drivers pop it: under the wall clock one :class:`Scheduler` timer
thread, in virtual time the simulator's :class:`repro.sim.Engine`; both
expose the same three methods, and a ``lane()`` with the same ``at`` /
``after``: a :class:`Lane` for timers pushed in time order, of which
only the head is on the heap (a client arms each kind of its timers
through one). :func:`every` is the one way a cadence is kept under both.
Each driver also says whether what its callbacks touch is shared with
other threads: :func:`lock_for` gets a lock from it, or None.

Callbacks run on the timer thread, so they must not block: whatever
one of them waits for, every other timer of the run waits for too.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from contextlib import nullcontext
from collections import deque
from operator import gt
from typing import (
    Any, Callable, Deque, Dict, Iterable, Iterator, Optional, Sequence,
)

from .clock import Clock

__all__ = [
    "Event", "EventQueue", "Lane", "NO_LOCK", "Scheduler", "every", "locked",
    "lock_for",
]


class Event(list):
    """The shape of one scheduled callback: ``[time, seq, fn, args]``.

    An entry is a plain list of that shape — this class names it in
    signatures; no entry is an instance of it — so ``heapq`` orders
    entries by ``(time, seq)`` with the C list comparison (``seq`` is
    unique, so a comparison never reaches ``fn``) and an entry costs
    one object. It is also the handle ``at`` / ``after`` return and
    ``cancel`` takes: cancelling stores ``None`` over ``fn``, and
    whoever meets a cleared entry drops it.
    """

    __slots__ = ()


class EventQueue:
    """Min-heap of events, FIFO among equal times.

    Events fire in ``(time, seq)`` order and none can be pushed ahead
    of one that already fired (its time is raised to that one's).
    :meth:`cancel` clears the entry's ``fn`` and nothing else: the
    queue remembers no cancellation, :meth:`pop`, :meth:`peek_time`
    and a lane's re-arm drop a cleared entry when they meet it, and
    ``len`` counts the entries that are not cleared.

    A :meth:`lane` keeps events pushed in time order behind its head,
    and only the head is on the heap; so does a :meth:`push_each`
    series. Every event still draws its ``seq`` from the one counter
    when it is pushed, and keys increase along a lane, so the minimum
    of the heap is the minimum of everything pending: each pop returns
    the event a heap that held them all would. When a lane's head
    leaves the heap — popped, or dropped as cancelled by :meth:`pop` or
    :meth:`peek_time` — its next live event takes its place.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = itertools.count()
        #: When the event :meth:`pop` returned last is due.
        self._fired_at = float("-inf")
        #: ``seq`` of each lane head on the heap -> its lane.
        self._heads: Dict[int, Any] = {}

    def push(self, time: float, fn: Callable, *args: Any) -> Event:
        if time < self._fired_at:
            time = self._fired_at
        event = [time, next(self._seq), fn, args]
        heapq.heappush(self._heap, event)
        return event

    def lane(self) -> "Lane":
        """A new FIFO lane of this queue (see :class:`Lane`)."""
        return Lane(self)

    def push_each(
        self, times: Sequence[float], fn: Callable, args: Iterable[tuple]
    ) -> None:
        """Push ``fn(*args[i])`` at ``times[i]`` for a sorted series.

        The series takes its block of ``seq`` numbers now, so it orders
        against every other event exactly as ``len(times)`` :meth:`push`
        calls made here would, ties included. It is a lane whose events
        are made from the series as they become its head, so the heap
        holds what is in flight, not the series, and ``len`` counts
        only the series' next event.
        """
        n = len(times)
        if not n:
            return
        if times[0] < self._fired_at or any(map(gt, times, times[1:])):
            raise ValueError("a series must be sorted and not start in the past")
        base = next(self._seq)
        self._seq = itertools.count(base + n)
        _Series(self, map(list, zip(
            times, itertools.count(base), itertools.repeat(fn), args
        ))).rearm()

    @staticmethod
    def cancel(event: Event) -> None:
        """Make ``event`` never fire: one store, so cancelling one that
        fired, or one cancelled before, changes nothing, and any thread
        may cancel without a lock."""
        event[2] = None

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event (None when empty)."""
        heap, heads = self._heap, self._heads
        while heap:
            event = heapq.heappop(heap)
            if event[1] in heads:
                heads.pop(event[1]).rearm()
            if event[2] is not None:
                self._fired_at = event[0]
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """When the earliest live event is due (None when empty).

        Cancelled leaders are dropped on the way, whenever they were
        due, so a dead timer neither wakes the timer thread nor moves
        the virtual clock.
        """
        heap, heads = self._heap, self._heads
        while heap and heap[0][2] is None:
            seq = heapq.heappop(heap)[1]
            if seq in heads:
                heads.pop(seq).rearm()
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        # Only a lane whose head is on the heap has events waiting.
        live = sum(event[2] is not None for event in self._heap)
        for lane in self._heads.values():
            live += sum(event[2] is not None for event in lane._waiting)
        return live


class Lane:
    """A FIFO of one queue's events whose times do not decrease.

    Only its head is on the heap; the others wait in push order, each
    holding the ``seq`` it drew when pushed, so its keys increase from
    head to tail. A push earlier than the tail would break that order:
    it goes to the heap, exactly as :meth:`EventQueue.push` puts it. A
    cancelled event never reaches the heap from here: it is dropped
    when the lane re-arms past it. A lane suits timers that are pushed
    in time order and mostly cancelled — a client's deadlines, hedges
    and attempt timeouts — and keeps them off the heap's depth.
    """

    __slots__ = ("_queue", "_waiting", "_tail", "_armed")

    def __init__(self, queue: EventQueue) -> None:
        self._queue = queue
        self._waiting: Deque[Event] = deque()
        self._tail = float("-inf")
        #: Whether the lane's head is on the heap.
        self._armed = False

    def push(self, time: float, fn: Callable, *args: Any) -> Event:
        queue = self._queue
        if time < queue._fired_at:
            time = queue._fired_at
        event = [time, next(queue._seq), fn, args]
        if not self._armed:
            self._armed = True
            self._tail = time
            heapq.heappush(queue._heap, event)
            queue._heads[event[1]] = self
        elif time >= self._tail:
            self._tail = time
            self._waiting.append(event)
        else:
            heapq.heappush(queue._heap, event)
        return event

    def rearm(self) -> None:
        """The head left the heap: put the next live event there."""
        waiting = self._waiting
        while waiting:
            event = waiting.popleft()
            if event[2] is not None:
                heapq.heappush(self._queue._heap, event)
                self._queue._heads[event[1]] = self
                return
        self._armed = False


class _Series:
    """The lane of one :meth:`EventQueue.push_each`: its events come
    from the series, under their reserved ``seq``s, one at a time."""

    __slots__ = ("_queue", "_events")
    #: Its events are made as they are due, so none waits (or counts).
    _waiting = ()

    def __init__(self, queue: EventQueue, events: Iterator[Event]) -> None:
        self._queue = queue
        self._events = events

    def rearm(self) -> None:
        event = next(self._events, None)
        if event is not None:
            heapq.heappush(self._queue._heap, event)
            self._queue._heads[event[1]] = self


def lock_for(scheduler) -> Optional[threading.Lock]:
    """A lock for state that ``scheduler``'s callbacks share with other
    threads, or None when there are none to share it with.

    The run's driver decides (DESIGN.md §4 "Who shares state"): a
    :class:`Scheduler` hands out a new lock, the simulator's engine —
    which runs every callback of a run on its one thread — None. A
    scheduler that does not say gets a lock.
    """
    lock = getattr(scheduler, "lock", None)
    return threading.Lock() if lock is None else lock()


#: What a ``with`` enters in place of a :func:`lock_for` lock that is
#: None, on paths not taken per request.
NO_LOCK = nullcontext()


def locked(lock: Optional[threading.Lock], fn, *args):
    """``fn(*args)`` under ``lock`` — or bare when it is None.

    For a lock entered per request: acquire + try/finally release, not
    ``with`` (DESIGN.md §4 "Who shares state").
    """
    if lock is None:
        return fn(*args)
    lock.acquire()
    try:
        return fn(*args)
    finally:
        lock.release()


class Scheduler:
    """Wall-clock driver of an :class:`EventQueue`.

    One daemon thread — started by the first :meth:`at`, so a run that
    schedules nothing starts none — sleeps until the earliest event;
    callbacks run outside the internal lock so they may schedule
    further events. A push wakes the thread only when it becomes the
    earliest entry: the thread sleeps until the earliest one, and
    wakes for whatever is due by then. :meth:`at`/:meth:`after` return
    the event, which :meth:`cancel` takes off the timeline, so a
    resolved call's outstanding deadline/hedge/timeout entries stop
    costing wakeups at high QPS.

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
        return self._schedule(self._queue.push, when, fn, args)

    def after(self, delay: float, fn: Callable, *args) -> Event:
        return self.at(self._clock.now() + max(delay, 0.0), fn, *args)

    def lane(self) -> "_SchedulerLane":
        """``at`` / ``after`` onto one new :class:`Lane` of the queue."""
        return _SchedulerLane(self, self._queue.lane().push)

    def lock(self) -> threading.Lock:
        """A new lock (see :func:`lock_for`): callbacks run on the
        timer thread, beside the run's other threads."""
        return threading.Lock()

    def _schedule(self, push: Callable, when: float, fn: Callable,
                  args: tuple) -> Event:
        with self._wakeup:
            event = push(when, fn, *args)
            if self._thread is None:
                if not self._stopped:
                    self._thread = threading.Thread(
                        target=self._loop, name="tb-timer", daemon=True
                    )
                    self._thread.start()
            elif self._queue._heap[0] is event:
                # The new earliest entry: the thread may be sleeping
                # past it. A later one (a lane's appends, always) is
                # found when the thread wakes for the earliest.
                self._wakeup.notify()
        return event

    cancel = staticmethod(EventQueue.cancel)

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
            if fn is None:
                # Cancelled after the pop chose it: it never fires.
                continue
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


class _SchedulerLane:
    """A :meth:`Scheduler.lane`: the scheduler's ``at`` / ``after``,
    pushing onto one lane; :meth:`Scheduler.cancel` takes its events."""

    __slots__ = ("_scheduler", "_push")

    def __init__(self, scheduler: Scheduler, push: Callable) -> None:
        self._scheduler = scheduler
        self._push = push

    def at(self, when: float, fn: Callable, *args) -> Event:
        return self._scheduler._schedule(self._push, when, fn, args)

    def after(self, delay: float, fn: Callable, *args) -> Event:
        scheduler = self._scheduler
        return scheduler._schedule(
            self._push, scheduler._clock.now() + max(delay, 0.0), fn, args
        )


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
