"""Application server: a worker-thread pool over the request queue.

Each worker pulls requests from the shared :class:`RequestQueue`,
stamps service start/end around the application's ``process`` call,
and hands the completed request to a response callback (the transport's
reply path). This mirrors the paper's harness structure (Fig. 1): the
request queue is shared among application threads, and the number of
workers is the "threads" axis of Figs. 4 and 7.
"""

from __future__ import annotations

import itertools
import threading
import time
import traceback
from typing import Callable, List, Sequence

from ..faults import INJECTED_APP_ERROR
from .clock import Clock
from .queueing import QueueClosed, RequestQueue
from .request import Request

__all__ = ["Server"]


class Server:
    """Worker pool that services requests from a queue.

    Parameters
    ----------
    app:
        Object with a ``process(payload) -> response`` method (the
        :class:`repro.apps.base.Application` interface).
    queue:
        Shared request queue (already instrumented).
    clock:
        Time source for service start/end stamps.
    n_threads:
        Number of worker threads.
    respond:
        Callback invoked with each completed :class:`Request`.
    injector:
        Optional :class:`repro.faults.FaultInjector` driving worker
        pauses, worker crashes, and injected application errors.
    server_id:
        Index of this instance in a multi-server topology (0 in the
        classic single-server shape); worker threads are named after it.
    batching:
        Optional :class:`repro.batching.BatchPolicy`. When set, workers
        dequeue size-or-deadline batches via
        :meth:`RequestQueue.get_batch` and service each batch with one
        application call (``handle_batch`` when the app provides it,
        else a per-request ``process`` loop). When ``None`` (default)
        a worker takes one request at a time — the batch of one — and
        calls ``process``.
    cache:
        Optional :class:`repro.cache.RequestCache` shared across all
        server instances. Workers consult it per request before the
        application call: a hit is served from the cache for the
        configured near-zero hit cost, and only the misses of a batch
        reach the application. Requests whose app declines a key
        (``cache_key`` returns None) bypass the cache entirely.
    """

    def __init__(
        self,
        app,
        queue: RequestQueue,
        clock: Clock,
        n_threads: int = 1,
        respond: Callable[[Request], None] = None,
        injector=None,
        server_id: int = 0,
        batching=None,
        cache=None,
    ) -> None:
        if n_threads < 1:
            raise ValueError("need at least one worker thread")
        self._app = app
        self._queue = queue
        self._clock = clock
        self._respond = respond or (lambda req: None)
        self._injector = injector
        self.server_id = server_id
        self._batching = batching
        self._cache = cache
        self._handle_batch = (
            None if batching is None else getattr(app, "handle_batch", None)
        )
        self._batch_seq = itertools.count()
        self._threads: List[threading.Thread] = [
            threading.Thread(
                target=self._worker_loop,
                name=f"tb-s{server_id}-worker-{i}",
                daemon=True,
            )
            for i in range(n_threads)
        ]
        self._started = False
        self._errors: List[str] = []
        self._errors_lock = threading.Lock()
        self._alive = n_threads
        self._alive_lock = threading.Lock()
        # Monitoring only: plain int updates (GIL-atomic enough for a
        # sampled gauge), and a tracer installed only when observability
        # is on — see Transport.set_observability.
        self._busy = 0
        self._tracer = None

    @property
    def n_threads(self) -> int:
        return len(self._threads)

    @property
    def busy_workers(self) -> int:
        """Workers currently inside the application service window."""
        return self._busy

    def set_tracer(self, tracer) -> None:
        """Install a tracer for worker-layer fault events."""
        self._tracer = tracer

    @property
    def alive_workers(self) -> int:
        """Workers still serving: ``n_threads`` minus injected crashes.

        Capacity lost to crash faults is observable here instead of
        silently degrading throughput.
        """
        with self._alive_lock:
            return self._alive

    def start(self) -> None:
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        for t in self._threads:
            t.start()

    def _worker_loop(self) -> None:
        queue, batching = self._queue, self._batching
        while True:
            try:
                if batching is None:
                    batch = (queue.get(),)
                else:
                    batch = queue.get_batch(batching)
            except QueueClosed:
                return
            if not self._serve(batch):
                return

    def _serve(self, batch: Sequence[Request]) -> bool:
        """Run the one service stage over ``batch``; False = worker died.

        ``batch`` is the single request an unbatched worker dequeued or
        one formed batch (one priority class, see
        :meth:`~repro.core.queueing.RequestQueue.get_batch`). All
        members share one ``service_start_at`` / ``service_end_at``
        window; the stage order is DESIGN.md §9's: open the window,
        worker pause (one per window), cache lookup per member, injected
        error per miss, one application call over what is left, store,
        close the window, respond, crash draw.
        """
        now = self._clock.now
        injector, tracer, cache = self._injector, self._tracer, self._cache
        sid = self.server_id
        start = now()
        seq = None  # the batch's sequence number; None when unbatched
        if self._batching is not None:
            seq = float(next(self._batch_seq))
            size = len(batch)
            for request in batch:
                request.batch_size = size
            if tracer is not None:
                for request in batch:
                    tracer.emit(
                        "batch_form", start, value=seq,
                        **request.trace_ids(sid),
                    )
                tracer.emit("batch_start", start, server_id=sid, value=seq)
        self._busy += 1
        if injector is not None:
            pause = injector.worker_pause()
            if pause > 0.0:
                if tracer is not None:
                    # One stall covers the whole window — a worker-level
                    # freeze, not per-request slowness — so under
                    # batching it names the server, not a member.
                    ids = (
                        batch[0].trace_ids(sid) if seq is None
                        else {"server_id": sid}
                    )
                    tracer.emit("fault_pause", start, value=pause, **ids)
                # GC/compaction-style stall inside the service window.
                self._clock.sleep(pause)
        # Caching tier: a hit is answered from the cache for the
        # configured hit cost and never reaches the backend (injected
        # app errors model backend failures, so a hit skips those too).
        served = batch
        keys = None
        if cache is not None:
            served, keys = [], {}
            for request in batch:
                key = self._app.cache_key(request.payload)
                if key is not None:
                    hit, value = cache.lookup(
                        key, now(), **request.trace_ids(sid)
                    )
                    if hit:
                        request.response = value
                        request.cache_hit = True
                        if cache.hit_cost > 0.0:
                            self._clock.sleep(cache.hit_cost)
                        continue
                    keys[request.request_id] = key
                served.append(request)
        # Injected application errors are per request: a failed member
        # consumes no service and gets an error response; the rest of
        # the batch is processed normally.
        if injector is not None:
            kept = []
            for request in served:
                if injector.app_error():
                    if tracer is not None:
                        tracer.emit(
                            "fault_app_error", now(), **request.trace_ids(sid)
                        )
                    request.error = INJECTED_APP_ERROR
                    self._record_error(request.error)
                else:
                    kept.append(request)
            served = kept
        if served:
            try:
                if self._handle_batch is None:
                    process = self._app.process
                    for request in served:
                        request.response = process(request.payload)
                else:
                    responses = self._handle_batch([r.payload for r in served])
                    if len(responses) != len(served):
                        raise RuntimeError(
                            f"handle_batch returned {len(responses)} "
                            f"responses for {len(served)} payloads"
                        )
                    for request, response in zip(served, responses):
                        request.response = response
            except Exception:  # noqa: BLE001 - report, don't kill the worker
                err = traceback.format_exc()
                for request in served:
                    request.response = None
                    request.error = err
                self._record_error(err)
            else:
                if keys:
                    # Only successful responses are cacheable.
                    for request in served:
                        key = keys.get(request.request_id)
                        if key is not None:
                            cache.store(
                                key, request.response, now(),
                                **request.trace_ids(sid),
                            )
        end = now()
        self._busy -= 1
        if seq is not None and tracer is not None:
            tracer.emit("batch_end", end, server_id=sid, value=seq)
        respond = self._respond
        for request in batch:
            # One window for every member, stamped as it is answered.
            request.service_start_at = start
            request.service_end_at = end
            respond(request)
        if injector is not None and any(
            injector.worker_crash() for _ in batch
        ):
            # Injected crash: the pool permanently loses a worker.
            with self._alive_lock:
                self._alive -= 1
            if tracer is not None:
                tracer.emit("fault_crash", now(), server_id=sid)
            return False
        return True

    def _record_error(self, text: str) -> None:
        with self._errors_lock:
            self._errors.append(text)

    def shutdown(
        self, timeout: float = 30.0, discard_pending: bool = False
    ) -> None:
        """Close the queue and join all workers.

        ``timeout`` bounds the whole shutdown, not each join: a shared
        deadline is computed once and each join waits only the
        remaining budget. ``discard_pending`` drops requests still
        queued instead of serving them — the end-of-run path, where
        every waiter has already been resolved or timed out.
        """
        self._queue.close(discard_pending=discard_pending)
        if not self._started:
            return
        deadline = time.monotonic() + timeout
        for t in self._threads:
            t.join(max(0.0, deadline - time.monotonic()))
            if t.is_alive():
                raise RuntimeError(f"worker {t.name} failed to stop")

    @property
    def errors(self) -> List[str]:
        with self._errors_lock:
            return list(self._errors)
