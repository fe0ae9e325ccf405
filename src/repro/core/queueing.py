"""Instrumented, thread-safe request queue.

The request queue sits between the transport and the application
worker threads. It is the instrumentation point for the two halves of
server-side latency: *queueing time* (enqueue -> dequeue-by-worker) and
*service time* (worker start -> worker end), per Sec. IV of the paper.

Optional robustness/control features extend the paper's unbounded FIFO:

- **bounded admission** — with a ``capacity``, :meth:`RequestQueue.put`
  sheds arrivals that would exceed it instead of letting queueing delay
  grow without bound (load shedding; the caller owes the client a shed
  response so the request resolves instead of timing out).
- **stall windows** — with a fault ``injector``, dequeue freezes during
  the plan's queue-stall windows, modelling a wedged dispatch path.
- **admission gate** — with a ``gate`` (see
  :class:`repro.control.AdmissionGate`), each arrival is first offered
  to the control plane, which may shed it under a CoDel drop state or
  an adaptive concurrency limit. The gate replaces the *static*
  ``capacity`` bound as the shedding mechanism of managed servers.
- **queue discipline** — the pending set is a pluggable *buffer*:
  :class:`FifoBuffer` (the default, the paper's FIFO) or
  :class:`PriorityBuffer` (strict or weighted per-class scheduling),
  shared verbatim with the simulator so both modes dequeue in the
  identical order.
"""

from __future__ import annotations

import collections
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from .clock import Clock
from .request import Request

__all__ = [
    "RequestQueue",
    "QueueClosed",
    "QueueSnapshot",
    "FifoBuffer",
    "PriorityBuffer",
]


class QueueClosed(Exception):
    """Raised when getting from a closed, drained queue."""


@dataclass(frozen=True)
class QueueSnapshot:
    """Uniform point-in-time view of one queue's state.

    Controllers and dashboards consume this one API instead of three
    ad-hoc fields scattered over live and simulated queues:
    ``head_sojourn`` is the CoDel signal (how long the oldest waiting
    request has queued; 0 when empty), ``depth``/``peak_depth`` the
    autoscaling signals, and the ``total_*`` counters the shed/admit
    accounting. Both :meth:`RequestQueue.snapshot` and the simulator's
    :meth:`~repro.sim.server_model.SimulatedServer.queue_snapshot`
    produce it.
    """

    depth: int
    peak_depth: int
    total_enqueued: int
    total_shed: int
    head_sojourn: float


class FifoBuffer:
    """FIFO pending-request buffer — the paper's queue discipline."""

    def __init__(self) -> None:
        self._items: collections.deque = collections.deque()

    def push(self, request: Request) -> None:
        self._items.append(request)

    def pop(self) -> Request:
        return self._items.popleft()

    def pop_batch(self, limit: int) -> List[Request]:
        """Pop up to ``limit`` requests in FIFO order (at least one)."""
        if not self._items:
            raise IndexError("pop_batch from empty FifoBuffer")
        n = min(limit, len(self._items))
        return [self._items.popleft() for _ in range(n)]

    def __len__(self) -> int:
        return len(self._items)

    def head_enqueued_at(self) -> Optional[float]:
        """Enqueue instant of the oldest waiting request (None if empty)."""
        if not self._items:
            return None
        return self._items[0].enqueued_at


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
    identically, and the identical buffer object drives the live
    :class:`RequestQueue` and the simulated server.
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


class RequestQueue:
    """Queue of :class:`Request` with enqueue timestamping.

    Unbounded FIFO by default: latency-critical servers do not drop
    requests under study loads, so saturation shows up as unbounded
    queueing delay, exactly as in the paper's latency-vs-load curves.
    Pass ``capacity`` for a static bound, ``gate`` for control-plane
    admission, or ``buffer`` for a non-FIFO discipline.
    """

    def __init__(
        self,
        clock: Clock,
        capacity: Optional[int] = None,
        injector=None,
        gate=None,
        buffer=None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self._clock = clock
        self._capacity = capacity
        self._injector = injector
        self._gate = gate
        self._buffer = buffer if buffer is not None else FifoBuffer()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self._peak_depth = 0
        self._total_enqueued = 0
        self._total_shed = 0

    def put(self, request: Request) -> bool:
        """Enqueue, stamping ``enqueued_at``.

        Returns True when accepted. A request rejected by the admission
        gate or a bounded queue at capacity is marked shed and False is
        returned instead; the caller is responsible for sending the
        shed response back to the client.
        """
        request.enqueued_at = self._clock.now()
        with self._not_empty:
            if self._closed:
                raise QueueClosed("queue is closed")
            if self._gate is not None and not self._gate.admit(
                request.enqueued_at, len(self._buffer), request
            ):
                self._total_shed += 1
                request.shed = True
                return False
            if (
                self._capacity is not None
                and len(self._buffer) >= self._capacity
            ):
                self._total_shed += 1
                request.shed = True
                return False
            self._buffer.push(request)
            self._total_enqueued += 1
            if len(self._buffer) > self._peak_depth:
                self._peak_depth = len(self._buffer)
            self._not_empty.notify()
            return True

    def get(self, timeout: Optional[float] = None) -> Request:
        """Dequeue the next request per the buffer's discipline.

        Raises :class:`QueueClosed` once the queue is closed and empty.
        The caller (worker thread) stamps ``service_start_at`` itself,
        immediately before invoking the application, so queue time is
        charged all the way to the actual start of processing.

        The timeout is a single budget for the whole call: the deadline
        is computed once, and every wakeup (notify-then-steal races,
        spurious wakeups, stall windows) waits only the remaining time.
        """
        return self._take(None, timeout)

    def get_batch(
        self, policy, timeout: Optional[float] = None
    ) -> List[Request]:
        """Dequeue the next *batch* per the batching ``policy``.

        Blocks until the policy reports the buffer releasable — a full
        batch is waiting, or the head request has waited out the batch
        delay — then pops the batch via ``policy.form``. On close, any
        residue is flushed immediately (no point waiting out the delay
        for traffic that will never arrive); :class:`QueueClosed` is
        raised once closed *and* empty, and ``timeout`` is one budget
        for the whole call, exactly like :meth:`get`.

        The release decision is evaluated under the queue lock against
        the same buffer state the simulator sees, so live and simulated
        batch membership match per seed.
        """
        return self._take(policy, timeout)

    def _take(self, policy, timeout: Optional[float]):
        """The one blocking wait: a request (``policy`` None) or a batch."""
        deadline = None if timeout is None else time.monotonic() + timeout
        buffer, injector = self._buffer, self._injector
        with self._not_empty:
            while True:
                # Seconds until something may change without a notify:
                # a stall window ending, the head's batch delay
                # expiring, the caller's budget running out.
                wait = None
                if injector is not None and not self._closed:
                    stall = injector.queue_stall_remaining(self._clock.now())
                    if stall > 0.0:
                        wait = stall
                if len(buffer) and wait is None:
                    if policy is None:
                        return buffer.pop()
                    if self._closed:
                        return policy.form(buffer)
                    now = self._clock.now()
                    ready = policy.ready_at(buffer, now)
                    if ready <= now:
                        return policy.form(buffer)
                    wait = ready - now
                if self._closed and not len(buffer):
                    raise QueueClosed("queue is closed and drained")
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0:
                        raise TimeoutError("nothing to dequeue in time")
                    wait = remaining if wait is None else min(wait, remaining)
                self._not_empty.wait(wait)

    def close(self, discard_pending: bool = False) -> int:
        """Stop accepting requests; wake all blocked getters.

        ``discard_pending`` also drops whatever is still buffered, so
        workers exit without serving it. A retry storm can leave a
        backlog of already-abandoned attempts many times deeper than a
        second of capacity; serving it at shutdown would stall the
        join for no one's benefit. Returns the number discarded.
        """
        with self._not_empty:
            self._closed = True
            dropped = 0
            if discard_pending:
                while len(self._buffer):
                    self._buffer.pop()
                    dropped += 1
            self._not_empty.notify_all()
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)

    @property
    def capacity(self) -> Optional[int]:
        return self._capacity

    @property
    def gate(self):
        return self._gate

    @property
    def peak_depth(self) -> int:
        with self._lock:
            return self._peak_depth

    @property
    def total_enqueued(self) -> int:
        with self._lock:
            return self._total_enqueued

    @property
    def total_shed(self) -> int:
        with self._lock:
            return self._total_shed

    def snapshot(self, now: Optional[float] = None) -> QueueSnapshot:
        """One consistent :class:`QueueSnapshot` of the queue's state."""
        if now is None:
            now = self._clock.now()
        with self._lock:
            head = self._buffer.head_enqueued_at()
            return QueueSnapshot(
                depth=len(self._buffer),
                peak_depth=self._peak_depth,
                total_enqueued=self._total_enqueued,
                total_shed=self._total_shed,
                head_sojourn=max(0.0, now - head) if head is not None else 0.0,
            )
