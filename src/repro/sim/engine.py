"""Discrete-event simulation engine.

A minimal execution-driven core in the spirit of the user-level
simulators the paper targets (zsim, Graphite): a virtual clock and the
run's event heap. The heap is :class:`repro.core.scheduler.EventQueue`,
the same class the wall-clock :class:`~repro.core.scheduler.Scheduler`
drives from a timer thread; here :meth:`Engine.run` pops it in
timestamp order — one ``pop()`` per event, which skips cancelled
leaders itself; only a bounded ``run(until=...)`` peeks first —
advancing the shared :class:`~repro.core.clock.VirtualClock`, which is
exactly the clock the harness components read, so harness logic is
unchanged between live and simulated runs. The engine owns that clock:
during a run it stores each popped time itself. The heap holds what is
in flight: a run's arrivals stream onto it one at a time
(:meth:`~repro.core.scheduler.EventQueue.push_each`), and a client's
timers wait in lanes behind one head each (:meth:`Engine.lane`).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..core.clock import VirtualClock
from ..core.scheduler import Event, EventQueue

__all__ = ["Engine"]


class _Timeline:
    """``at`` / ``after`` against a virtual clock, over one push: the
    engine's heap, or one lane of it (:meth:`Engine.lane`)."""

    def __init__(self, clock: VirtualClock, push: Callable) -> None:
        self.clock = clock
        self._push = push

    @property
    def now(self) -> float:
        return self.clock._now

    def at(self, time: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        now = self.clock._now
        if time < now:
            if time < now - 1e-12:
                raise ValueError(f"cannot schedule in the past ({time} < {now})")
            time = now
        return self._push(time, fn, *args)

    def after(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self._push(self.clock._now + delay, fn, *args)


class Engine(_Timeline):
    """Runs events against a virtual clock."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._queue = EventQueue()
        super().__init__(VirtualClock(start_time), self._queue.push)

    #: ``cancel(event)``: takes an event of the heap or of any lane off
    #: the timeline (the queue's own one store, not a wrapper).
    cancel = staticmethod(EventQueue.cancel)

    @staticmethod
    def lock() -> None:
        """No lock (see :func:`~repro.core.scheduler.lock_for`): every
        callback of a simulated run runs on the engine's one thread, so
        nothing the engine drives is shared."""
        return None

    def lane(self) -> _Timeline:
        """``at`` / ``after`` onto one new lane of the heap, for timers
        pushed in time order (:class:`~repro.core.scheduler.Lane`);
        :meth:`cancel` takes its events."""
        return _Timeline(self.clock, self._queue.lane().push)

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> int:
        """Process events until the queue drains (or ``until``).

        Returns the number of events this call popped and ran; at most
        ``max_events`` run before the runaway guard raises. What a
        callback does inline is part of its event — a simulated
        server's zero-delay response (DESIGN.md §4) is not one.
        """
        queue, clock = self._queue, self.clock
        pop = queue.pop
        executed = 0
        while True:
            if until is not None:
                next_time = queue.peek_time()
                if next_time is not None and next_time > until:
                    clock.advance_to(until)
                    break
            if executed >= max_events and queue:
                raise RuntimeError("event budget exhausted (runaway simulation?)")
            event = pop()
            if event is None:
                break
            time, _, fn, args = event
            # The engine is the clock's one writer during a run: it
            # stores each popped time itself, refusing what
            # VirtualClock.advance_to refuses.
            if time < clock._now:
                raise ValueError(
                    f"virtual time cannot go backwards ({time} < {clock._now})"
                )
            clock._now = time
            fn(*args)
            executed += 1
        return executed
