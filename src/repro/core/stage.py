"""One replica's two stages (DESIGN.md §9), each written once for both
clocks.

The queue stage (:class:`QueueStage`), where queueing time ends: for
each arrival the admission gate, the idle-worker start and the
``capacity`` bound; for each free worker an injected stall, the next
request or a :class:`~repro.batching.BatchPolicy` batch; the queue's
counters and its one :class:`QueueSnapshot`.

The service stage (:class:`ServiceStage`): a worker runs its *members*
— one request, or one formed batch — through one service window, and
the stage makes every decision of it, in order: (1) open it — batch
sequence number, ``batch_size``, ``batch_form`` and ``batch_start``;
(2) one ``worker_pause`` draw; (3) one cache lookup per keyed member;
at close (4) one ``app_error`` draw per member, hits included, (5) the
any-of-members ``worker_crash`` draw, and (6) ``batch_end``.

Two executors own only waiting and time. Live, :class:`RequestQueue
<repro.core.queueing.RequestQueue>` waits under a lock and a condition
variable, and the worker pool (:class:`repro.core.server.Server`)
sleeps the pause and the hits' cost and calls the application on the
misses; the simulated server (:class:`repro.sim.SimulatedServer`) turns
the same decisions into events and prices the window from service
draws. A replica with no batch policy, fault injector or cache has no
service stage (:func:`build_stage` returns None), so the featureless
request path pays one test per step and no call.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..faults import INJECTED_APP_ERROR
from .request import Request

__all__ = [
    "FifoBuffer", "PriorityBuffer", "QueueSnapshot", "QueueStage",
    "ServiceStage", "build_stage", "START", "WAIT", "SHED", "STALLED",
]


@dataclass(frozen=True)
class QueueSnapshot:
    """Uniform point-in-time view of one queue's state.

    Controllers and dashboards consume this one API: ``head_sojourn``
    is the CoDel signal (how long the oldest waiting request has
    queued; 0 when empty), ``depth``/``peak_depth`` the autoscaling
    signals, and the ``total_*`` counters the shed/admit accounting.
    :meth:`QueueStage.snapshot` makes it, for the live queue and the
    simulated server alike.
    """

    depth: int
    peak_depth: int
    total_enqueued: int
    total_shed: int
    head_sojourn: float


class FifoBuffer(collections.deque):
    """FIFO pending-request buffer — the paper's queue discipline.

    A deque whose ``push`` appends and whose ``pop`` takes the oldest,
    so the buffer's hot calls run in C.
    """

    __slots__ = ()
    push = collections.deque.append
    pop = collections.deque.popleft

    def pop_batch(self, limit: int) -> List[Request]:
        """Pop up to ``limit`` requests in FIFO order (at least one)."""
        if not self:
            raise IndexError("pop_batch from empty FifoBuffer")
        popleft = self.popleft
        return [popleft() for _ in range(min(limit, len(self)))]

    def head_enqueued_at(self) -> Optional[float]:
        """Enqueue instant of the oldest waiting request (None if empty)."""
        return self[0].enqueued_at if self else None


class PriorityBuffer:
    """Per-class priority discipline: strict or weighted, FIFO within.

    Requests carry an integer ``priority`` (higher = more urgent, see
    :class:`repro.core.request.Request`). Two modes:

    - ``strict`` — always serve the highest non-empty priority class;
      a latency-critical class never waits behind batch work, which
      may starve under sustained overload (that is the point: the
      batch class absorbs the queueing, the paper's colocation story
      inside one server).
    - ``weighted`` — smooth weighted round-robin across non-empty
      classes (ties break to the higher priority), so every class
      makes progress in proportion to its configured weight.

    Both modes are deterministic — no RNG — so the simulator replays
    identically.
    """

    def __init__(
        self,
        mode: str = "strict",
        weights: Optional[Dict[int, float]] = None,
    ) -> None:
        if mode not in ("strict", "weighted"):
            raise ValueError("mode must be 'strict' or 'weighted'")
        if mode == "weighted" and not weights:
            raise ValueError("weighted mode needs a {priority: weight} map")
        if weights and any(w <= 0 for w in weights.values()):
            raise ValueError("weights must be positive")
        self._mode = mode
        self._weights = dict(weights or {})
        self._classes: Dict[int, collections.deque] = {}
        self._credit: Dict[int, float] = {}
        self._size = 0

    def push(self, request: Request) -> None:
        self._classes.setdefault(
            request.priority, collections.deque()
        ).append(request)
        self._size += 1

    def _pick_class(self) -> int:
        ready = [p for p, items in self._classes.items() if items]
        if self._mode == "strict":
            return max(ready)
        # Smooth weighted round-robin [nginx upstream balancing]: each
        # ready class earns its weight, the richest class serves and
        # pays back the total — deterministic and starvation-free.
        total = 0.0
        for p in ready:
            weight = self._weights.get(p, 1.0)
            self._credit[p] = self._credit.get(p, 0.0) + weight
            total += weight
        winner = max(ready, key=lambda p: (self._credit[p], p))
        self._credit[winner] -= total
        return winner

    def pop(self) -> Request:
        if self._size == 0:
            raise IndexError("pop from empty PriorityBuffer")
        winner = self._pick_class()
        self._size -= 1
        return self._classes[winner].popleft()

    def pop_batch(self, limit: int) -> List[Request]:
        """Pop up to ``limit`` requests from a *single* class.

        One scheduling decision (:meth:`_pick_class`) selects the class
        for the whole batch, then up to ``limit`` of its requests are
        drawn in FIFO order — batches never span priority classes, so a
        latency-critical request is never co-scheduled behind batch
        work inside one service window. In weighted mode the batch
        costs its class one credit cycle regardless of size, i.e. the
        discipline arbitrates *batches*, not requests.
        """
        if self._size == 0:
            raise IndexError("pop_batch from empty PriorityBuffer")
        winner = self._pick_class()
        items = self._classes[winner]
        n = min(limit, len(items))
        self._size -= n
        return [items.popleft() for _ in range(n)]

    def __len__(self) -> int:
        return self._size

    def head_enqueued_at(self) -> Optional[float]:
        """Oldest enqueue instant across every class (None if empty)."""
        heads = [
            items[0].enqueued_at
            for items in self._classes.values()
            if items and items[0].enqueued_at is not None
        ]
        return min(heads) if heads else None


#: What :meth:`QueueStage.offer` decides for one arrival: a worker that
#: is idle takes it at once, it waits in the buffer, or it is shed.
START, WAIT, SHED = "start", "wait", "shed"
_STARTED, _WAITING, _SHED = (START, None), (WAIT, None), (SHED, None)
#: The members :meth:`QueueStage.release` returns while an injected
#: stall holds dispatch.
STALLED = ()


class QueueStage:
    """One replica's queue: its buffer, decisions and counters.

    ``capacity`` bounds the *waiting* buffer (None: unbounded, the
    paper's queue); ``gate`` (a :class:`repro.control.AdmissionGate`)
    sees every arrival; ``injector`` supplies the fault plan's stalls,
    in which nothing is dispatched; ``batching`` forms the batches
    released (None: one request at a time); ``buffer`` is the
    discipline (FIFO when None). Callers serialise access: the live
    queue under its lock, the simulator on its one thread.
    """

    __slots__ = (
        "buffer", "capacity", "injector", "gate", "batching",
        "peak_depth", "total_enqueued", "total_shed",
    )

    def __init__(
        self, capacity: Optional[int] = None, injector=None, gate=None,
        buffer=None, batching=None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self.buffer = buffer if buffer is not None else FifoBuffer()
        self.capacity = capacity
        self.injector = injector
        self.gate = gate
        self.batching = batching
        self.peak_depth = 0
        self.total_enqueued = 0
        self.total_shed = 0

    def __len__(self) -> int:
        """Requests waiting (excluding in-service) — the gauge signal."""
        return len(self.buffer)

    def offer(self, request: Request, now: float, idle: bool):
        """Decide one arrival, stamping ``enqueued_at``; return
        ``(verdict, wake_at)``.

        The gate sees every arrival, so its tallies do not depend on
        who is busy. Unbatched, an ``idle`` worker then takes it at
        once (:data:`START`, never counted in ``peak_depth``) unless a
        stall holds dispatch or requests wait ahead; batched, it waits
        for its batch. Past the gate or the bound on the waiting buffer
        it is marked shed (:data:`SHED`: the caller owes the client a
        shed response), else it waits (:data:`WAIT`). ``wake_at`` is
        the end of a stall that holds an unbatched arrival, else None.
        """
        request.enqueued_at = now
        buffer = self.buffer
        gate = self.gate
        if gate is None or gate.admit(now, len(buffer), request):
            stall = 0.0
            if self.batching is None:
                if self.injector is not None:
                    stall = self.injector.queue_stall_remaining(now)
                if idle and stall <= 0.0 and not len(buffer):
                    self.total_enqueued += 1
                    return _STARTED
            if self.capacity is None or len(buffer) < self.capacity:
                buffer.push(request)
                self.total_enqueued += 1
                if len(buffer) > self.peak_depth:
                    self.peak_depth = len(buffer)
                return _WAITING if stall <= 0.0 else (WAIT, now + stall)
        self.total_shed += 1
        request.shed = True
        return _SHED

    def release(self, now: float, closed: bool = False):
        """What a free worker starts at ``now``: ``(members, None)`` —
        the next request as a 1-tuple, or the next batch — else
        (:data:`STALLED`, the stall's end) while a stall holds dispatch,
        (None, its release instant) while the head's batch forms, and
        (None, None) when nothing waits. Once ``closed``, stalls are
        ignored and the residue leaves without waiting out the delay."""
        if self.injector is not None and not closed:
            stall = self.injector.queue_stall_remaining(now)
            if stall > 0.0:
                return STALLED, now + stall
        buffer = self.buffer
        if not len(buffer):
            return None, None
        batching = self.batching
        if batching is None:
            return (buffer.pop(),), None
        if not closed:
            ready = batching.ready_at(buffer, now)
            if ready > now:
                return None, ready
        return batching.form(buffer), None

    def snapshot(self, now: float) -> QueueSnapshot:
        """The queue's :class:`QueueSnapshot` at ``now``."""
        head = self.buffer.head_enqueued_at()
        return QueueSnapshot(
            depth=len(self.buffer),
            peak_depth=self.peak_depth,
            total_enqueued=self.total_enqueued,
            total_shed=self.total_shed,
            head_sojourn=max(0.0, now - head) if head is not None else 0.0,
        )


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
