"""Clock abstraction shared by live runs and virtual-time simulation.

Every timing decision in the harness goes through a :class:`Clock` so
the same harness logic can run against the wall clock (live mode) or a
simulated clock (virtual-time mode). This is the mechanism that lets
the integrated configuration be "easy to run in simulation" (Sec. IV-B
of the paper): swap the clock, keep the methodology.
"""

from __future__ import annotations

import os
import threading
import time

__all__ = ["Clock", "WallClock", "VirtualClock"]


class Clock:
    """Minimal monotonic-clock interface (times in float seconds)."""

    def now(self) -> float:
        raise NotImplementedError

    def sleep_until(self, deadline: float) -> None:
        raise NotImplementedError

    def sleep(self, duration: float) -> None:
        if duration < 0:
            raise ValueError("cannot sleep a negative duration")
        self.sleep_until(self.now() + duration)


class WallClock(Clock):
    """Real time via ``time.perf_counter`` (monotonic, ns resolution).

    ``now`` is ``time.perf_counter`` itself: a builtin does not bind as
    a method, so ``clock.now()`` is one C call and runs no Python frame
    (a live request reads the clock seven times).

    ``sleep_until`` never holds the GIL while it waits: it sleeps to the
    last millisecond, then yields the GIL and the CPU until the deadline.
    """

    now = time.perf_counter

    def sleep_until(self, deadline: float) -> None:
        # Timer sleeps, time.sleep(0) included, overshoot by ~50 us of slack;
        # a busy-wait holds the GIL. sched_yield releases both on every turn.
        while True:
            remaining = deadline - self.now()
            if remaining <= 0:
                return
            if remaining > 0.001:
                time.sleep(remaining - 0.0005)
            else:
                os.sched_yield()


class VirtualClock(Clock):
    """Manually advanced clock for deterministic simulation.

    ``sleep_until`` simply advances the clock; there is no real waiting.

    What is guaranteed under threads: :meth:`now` is a lock-free load
    of one float attribute — atomic under the interpreter lock, so a
    reader sees some value a writer stored, never a torn one, and never
    pays for a lock it does not need (the engine reads the clock
    several times per simulated request). Writers — :meth:`advance_to`,
    :meth:`advance`, :meth:`sleep_until`, all check-then-store or
    read-modify-write — serialise on one lock, and :meth:`advance_to`
    refuses to go backwards, so the values readers see never decrease.
    The discrete-event engine drives it from one thread and is its
    only writer during a run: ``Engine.run`` stores each popped time
    itself, with the same refusal and none of the lock. Tests also
    point live worker threads at it.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    def now(self) -> float:
        return self._now

    def advance_to(self, t: float) -> None:
        with self._lock:
            if t < self._now:
                raise ValueError(
                    f"virtual time cannot go backwards ({t} < {self._now})"
                )
            self._now = t

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("cannot advance by a negative duration")
        with self._lock:
            self._now += dt

    def sleep_until(self, deadline: float) -> None:
        with self._lock:
            if deadline > self._now:
                self._now = deadline
