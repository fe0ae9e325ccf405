"""Who advances time: one ``at / after / cancel`` scheduler per run.

Everything in a run that happens *later* — a deadline, a retry backoff,
a hedge, a fault-delayed send, a scenario phase boundary, a metrics
sample, a control tick — is a callback handed to the run's scheduler.
Under the wall clock that is one :class:`Scheduler` timer thread; in
virtual time it is the simulator's :class:`repro.sim.Engine`, which has
the same three methods. :func:`every` is the one way a cadence is kept
under both.

Callbacks run on the timer thread, so they must not block: whatever
one of them waits for, every other timer of the run waits for too.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import Callable, Optional

from .clock import Clock

__all__ = ["Scheduler", "every"]


class _TimerHandle:
    """One scheduled callback; ``cancel`` makes firing a no-op."""

    __slots__ = ("fn", "args", "cancelled")

    def __init__(self, fn: Callable, args: tuple) -> None:
        self.fn = fn
        self.args = args
        self.cancelled = False


class Scheduler:
    """Wall-clock timer heap: run callables at absolute clock instants.

    One daemon thread — started by the first :meth:`at`, so a run that
    schedules nothing starts none — sleeps until the earliest event;
    callbacks run outside the internal lock so they may schedule
    further events. :meth:`at`/:meth:`after` return a handle that
    :meth:`cancel` turns into a no-op, so a resolved call's outstanding
    deadline/hedge/timeout entries stop costing wakeups at high QPS.

    A callback that raises does not take the other timers with it: the
    thread keeps serving, and :meth:`stop` re-raises the first such
    exception. Pending events are discarded on stop.
    """

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self._heap: list = []
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._stopped = False
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[Exception] = None

    def at(self, when: float, fn: Callable, *args) -> _TimerHandle:
        handle = _TimerHandle(fn, args)
        with self._wakeup:
            if self._stopped:
                handle.cancelled = True
                return handle
            heapq.heappush(self._heap, (when, next(self._seq), handle))
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="tb-timer", daemon=True
                )
                self._thread.start()
            self._wakeup.notify()
        return handle

    def after(self, delay: float, fn: Callable, *args) -> _TimerHandle:
        return self.at(self._clock.now() + max(delay, 0.0), fn, *args)

    @staticmethod
    def cancel(handle: _TimerHandle) -> None:
        handle.cancelled = True

    def pending(self) -> int:
        """Live (uncancelled) entries still on the heap (test hook)."""
        with self._lock:
            return sum(1 for _, _, h in self._heap if not h.cancelled)

    def _loop(self) -> None:
        while True:
            with self._wakeup:
                # Prune cancelled leaders so they neither schedule a
                # wakeup nor count as work.
                while self._heap and self._heap[0][2].cancelled:
                    heapq.heappop(self._heap)
                if self._stopped:
                    return
                if not self._heap:
                    self._wakeup.wait()
                    continue
                when, _, handle = self._heap[0]
                now = self._clock.now()
                if when > now:
                    self._wakeup.wait(when - now)
                    continue
                heapq.heappop(self._heap)
                if handle.cancelled:
                    continue
            try:
                handle.fn(*handle.args)
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
