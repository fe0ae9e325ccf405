"""Instrumented, thread-safe request queue.

The request queue sits between the transport and the application
worker threads. It is the instrumentation point for the two halves of
server-side latency: *queueing time* (enqueue -> dequeue-by-worker) and
*service time* (worker start -> worker end), per Sec. IV of the paper.

What the queue decides — the admission gate, the ``capacity`` bound,
injected stalls, batch release — is the one queue stage of
:mod:`repro.core.stage`, which the simulator runs too;
:class:`RequestQueue` only makes threads wait for it.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

from .clock import Clock
from .request import Request
from .stage import FifoBuffer, PriorityBuffer, QueueSnapshot, QueueStage, SHED

__all__ = [
    "RequestQueue",
    "QueueClosed",
    "QueueSnapshot",
    "FifoBuffer",
    "PriorityBuffer",
]


class QueueClosed(Exception):
    """Raised when getting from a closed, drained queue."""


class RequestQueue:
    """Queue of :class:`Request` with enqueue timestamping.

    Unbounded FIFO by default: latency-critical servers do not drop
    requests under study loads, so saturation shows up as unbounded
    queueing delay, exactly as in the paper's latency-vs-load curves.
    Pass ``capacity`` for a static bound, ``gate`` for control-plane
    admission, ``injector`` for the fault plan's queue stalls, or
    ``buffer`` for a non-FIFO discipline (see
    :class:`~repro.core.stage.QueueStage`).
    """

    def __init__(
        self,
        clock: Clock,
        capacity: Optional[int] = None,
        injector=None,
        gate=None,
        buffer=None,
    ) -> None:
        self._clock = clock
        self._stage = QueueStage(capacity, injector, gate, buffer)
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        #: Getters blocked in ``_not_empty.wait``, counted under the
        #: lock: a put notifies only when one is, so a put or take that
        #: finds no waiter runs no Python-level ``Condition`` method.
        self._waiting = 0
        self._closed = False

    def put(self, request: Request) -> bool:
        """Enqueue, stamping ``enqueued_at``.

        Returns True when accepted. A request rejected by the admission
        gate or a bounded queue at capacity is marked shed and False is
        returned instead; the caller is responsible for sending the
        shed response back to the client.
        """
        now = self._clock.now()
        # A per-request lock is entered as acquire() + try/finally
        # release(): 170 ns on CPython 3.11, where ``with lock:`` costs
        # 339 ns (DESIGN.md §4 "Who shares state"). Locks taken less
        # often than once per request keep ``with``.
        lock = self._lock
        lock.acquire()
        try:
            if self._closed:
                raise QueueClosed("queue is closed")
            # No worker is offered as idle: one that is waits in _take.
            if self._stage.offer(request, now, False)[0] is SHED:
                return False
            if self._waiting:
                self._not_empty.notify()
            return True
        finally:
            lock.release()

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
        return self._take(None, timeout)[0]

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
        """
        return self._take(policy, timeout)

    def _take(self, policy, timeout: Optional[float]):
        """The one blocking wait for what the stage releases."""
        deadline = None if timeout is None else time.monotonic() + timeout
        stage, clock, lock = self._stage, self._clock, self._lock
        lock.acquire()
        try:
            # A live queue learns its batch policy from its getters
            # (one server's workers all pass the same one).
            stage.batching = policy
            while True:
                now = clock.now()
                members, wake_at = stage.release(now, self._closed)
                if members:
                    return members
                if self._closed and not len(stage.buffer):
                    raise QueueClosed("queue is closed and drained")
                # Seconds until something may change without a notify:
                # a stall window ending, the head's batch delay
                # expiring, the caller's budget running out.
                wait = None if wake_at is None else wake_at - now
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0:
                        raise TimeoutError("nothing to dequeue in time")
                    wait = remaining if wait is None else min(wait, remaining)
                self._waiting += 1
                try:
                    self._not_empty.wait(wait)
                finally:
                    self._waiting -= 1
        finally:
            lock.release()

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
                buffer = self._stage.buffer
                while len(buffer):
                    buffer.pop()
                    dropped += 1
            self._not_empty.notify_all()
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._stage.buffer)

    @property
    def capacity(self) -> Optional[int]:
        return self._stage.capacity

    @property
    def peak_depth(self) -> int:
        with self._lock:
            return self._stage.peak_depth

    def snapshot(self, now: Optional[float] = None) -> QueueSnapshot:
        """One consistent :class:`QueueSnapshot` of the queue's state."""
        if now is None:
            now = self._clock.now()
        with self._lock:
            return self._stage.snapshot(now)
