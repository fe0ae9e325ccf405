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
unchanged between live and simulated runs. The heap holds what is in
flight: a run's arrivals stream onto it one at a time
(:meth:`~repro.core.scheduler.EventQueue.push_each`).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..core.clock import VirtualClock
from ..core.scheduler import Event, EventQueue

__all__ = ["Engine"]


class Engine:
    """Runs events against a virtual clock."""

    def __init__(self, start_time: float = 0.0) -> None:
        self.clock = VirtualClock(start_time)
        self._queue = EventQueue()

    @property
    def now(self) -> float:
        return self.clock.now()

    def at(self, time: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        now = self.clock.now()
        if time < now:
            if time < now - 1e-12:
                raise ValueError(f"cannot schedule in the past ({time} < {now})")
            time = now
        return self._queue.push(time, fn, *args)

    def after(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self._queue.push(self.clock.now() + delay, fn, *args)

    def cancel(self, event: Event) -> None:
        self._queue.cancel(event)

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> int:
        """Process events until the queue drains (or ``until``).

        Returns the number of events this call popped and ran; at most
        ``max_events`` run before the runaway guard raises. What a
        callback does inline is part of its event — a simulated
        server's zero-delay response (DESIGN.md §4) is not one.
        """
        queue, advance_to = self._queue, self.clock.advance_to
        executed = 0
        while True:
            if until is not None:
                next_time = queue.peek_time()
                if next_time is not None and next_time > until:
                    advance_to(until)
                    break
            if executed >= max_events and queue:
                raise RuntimeError("event budget exhausted (runaway simulation?)")
            event = queue.pop()
            if event is None:
                break
            time, _, fn, args = event
            advance_to(time)
            fn(*args)
            executed += 1
        return executed
