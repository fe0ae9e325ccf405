"""The one service stage (DESIGN.md §9), written once for both clocks.

A worker runs its *members* — one request, or one formed batch —
through one service window. This module owns every decision of that
window, in order: (1) open it — batch sequence number, ``batch_size``,
``batch_form`` and ``batch_start``; (2) one ``worker_pause`` draw;
(3) one cache lookup per keyed member; at close (4) one ``app_error``
draw per member, hits included, (5) the any-of-members
``worker_crash`` draw, and (6) ``batch_end``.

Two executors own only time. The live worker pool
(:class:`repro.core.server.Server`) sleeps the pause and the hits'
cost and calls the application on the misses; the simulated server
(:class:`repro.sim.SimulatedServer`) prices the window from service
draws and schedules its close. A replica with no batch policy, fault
injector or cache has no stage (:func:`build_stage` returns None), so
the featureless request path pays one test per step and no call.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

from ..faults import INJECTED_APP_ERROR
from .request import Request

__all__ = ["ServiceStage", "build_stage"]


class ServiceStage:
    """One replica's service-stage decisions and their trace events.

    ``on_error`` receives the text of every injected application error
    (the live server keeps them in its ``errors``).
    """

    def __init__(
        self, server_id: int, injector=None, cache=None, batching=None,
        tracer=None, on_error: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.server_id = server_id
        self.injector = injector
        self.cache = cache
        self.batching = batching
        self.tracer = tracer
        self._on_error = on_error
        self._seq = itertools.count()  # atomic next() across workers

    def open(self, members: Sequence[Request], now: float):
        """Steps 1-2: return ``(seq, pause)`` — the batch sequence number
        (None when unbatched) and the worker pause (0.0 = none)."""
        tracer, sid = self.tracer, self.server_id
        seq = None
        if self.batching is not None:
            seq = float(next(self._seq))
            size = len(members)
            for request in members:
                request.batch_size = size
            if tracer is not None:
                for request in members:
                    tracer.emit(
                        "batch_form", now, value=seq,
                        **request.trace_ids(sid),
                    )
                tracer.emit("batch_start", now, server_id=sid, value=seq)
        pause = 0.0
        if self.injector is not None:
            pause = self.injector.worker_pause()
            if pause > 0.0 and tracer is not None:
                # One stall freezes the whole window, so under batching
                # it names the server, not a member.
                ids = (
                    members[0].trace_ids(sid) if seq is None
                    else {"server_id": sid}
                )
                tracer.emit("fault_pause", now, value=pause, **ids)
        return seq, pause

    def lookup(self, members, now: float, key_of=None, resident=None):
        """Step 3: look every keyed member up; return the misses.

        A hit gets the cached value as its ``response`` and
        ``cache_hit``; every other member comes back as ``(request,
        key)``, key None when ``key_of(payload)`` declines one
        (``key_of`` None: the payload is its own key). ``resident`` not
        None stores each miss at once with that value — the simulator,
        where no response exists to store later.
        """
        cache, sid = self.cache, self.server_id
        misses = []
        for request in members:
            key = request.payload if key_of is None else key_of(request.payload)
            if key is not None:
                ids = request.trace_ids(sid)
                hit, value = cache.lookup(key, now, **ids)
                if hit:
                    request.response = value
                    request.cache_hit = True
                    continue
                if resident is not None:
                    cache.store(key, resident, now, **ids)
            misses.append((request, key))
        return misses

    def close(self, seq, members: Sequence[Request], now: float) -> bool:
        """Steps 4-6; return whether the worker crashed. A member that
        draws an error keeps the service it was charged."""
        injector, tracer, sid = self.injector, self.tracer, self.server_id
        crashed = False
        if injector is not None:
            for request in members:
                if injector.app_error():
                    request.response = None
                    request.error = INJECTED_APP_ERROR
                    if self._on_error is not None:
                        self._on_error(INJECTED_APP_ERROR)
                    if tracer is not None:
                        tracer.emit(
                            "fault_app_error", now, **request.trace_ids(sid)
                        )
            if len(members) == 1:
                crashed = injector.worker_crash()
            else:
                crashed = any(injector.worker_crash() for _ in members)
            if crashed and tracer is not None:
                tracer.emit("fault_crash", now, server_id=sid)
        if seq is not None and tracer is not None:
            tracer.emit("batch_end", now, server_id=sid, value=seq)
        return crashed


def build_stage(server_id: int, injector=None, cache=None, batching=None,
                tracer=None, on_error=None) -> Optional[ServiceStage]:
    """The stage of one replica, or None when it has nothing to decide."""
    if injector is None and cache is None and batching is None:
        return None
    return ServiceStage(server_id, injector, cache, batching, tracer, on_error)
