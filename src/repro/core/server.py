"""Application server: a worker-thread pool over the request queue.

Each worker pulls requests from the shared :class:`RequestQueue` and
executes the service stage of :mod:`repro.core.stage` over them in
wall-clock (or test-driven virtual) time. The request queue is shared
among application threads, and the number of workers is the "threads"
axis of Figs. 4 and 7 (the paper's harness structure, Fig. 1).
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import Callable, List, Sequence

from .clock import Clock
from .queueing import QueueClosed, RequestQueue
from .request import Request
from .stage import build_stage

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
    server_id:
        Index of this instance in a multi-server topology (0 in the
        classic single-server shape); worker threads are named after it.
    injector, batching, cache:
        The stage's optional :class:`repro.faults.FaultInjector`,
        :class:`repro.batching.BatchPolicy` and shared
        :class:`repro.cache.RequestCache` (see :mod:`repro.core.stage`).
        With a policy a worker dequeues a batch via
        :meth:`RequestQueue.get_batch` and makes one application call
        over its misses (``handle_batch`` when the app has one, else a
        ``process`` loop); without one it takes one request — the
        batch of one — and calls ``process``.
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
        self.server_id = server_id
        self._batching = batching
        self._handle_batch = (
            None if batching is None else getattr(app, "handle_batch", None)
        )
        self._stage = build_stage(
            server_id, injector, cache, batching, on_error=self._record_error
        )
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
        # sampled gauge).
        self._busy = 0

    @property
    def n_threads(self) -> int:
        return len(self._threads)

    @property
    def busy_workers(self) -> int:
        """Workers currently inside the application service window."""
        return self._busy

    def set_tracer(self, tracer) -> None:
        """Install a tracer for the stage's batch and fault events."""
        if self._stage is not None:
            self._stage.tracer = tracer

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
        """Execute the service stage over ``batch``; False = worker died.

        ``batch`` is the single request an unbatched worker dequeued or
        one formed batch. The stage (:mod:`repro.core.stage`) decides;
        this executor sleeps the pause and the hits' cost, calls the
        application on the misses and stores their successful
        responses, then stamps one window on every member and responds.
        """
        now = self._clock.now
        stage = self._stage
        start = now()
        self._busy += 1
        seq = None
        served = batch
        misses = ()
        if stage is not None:
            seq, pause = stage.open(batch, start)
            cache = stage.cache
            if cache is not None:
                misses = stage.lookup(batch, start, self._app.cache_key)
                pause += (len(batch) - len(misses)) * cache.hit_cost
                served = [request for request, _ in misses]
            if pause > 0.0:
                # The pause is a GC/compaction-style stall inside the
                # service window; a hit is answered for its hit cost.
                self._clock.sleep(pause)
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
                # Stored after the call, where a response first exists.
                sid = self.server_id
                for request, key in misses:
                    if key is not None:
                        cache.store(
                            key, request.response, now(),
                            **request.trace_ids(sid),
                        )
        end = now()
        self._busy -= 1
        crashed = stage is not None and stage.close(seq, batch, end)
        if crashed:
            with self._alive_lock:
                self._alive -= 1
        respond = self._respond
        for request in batch:
            # One window for every member, stamped as it is answered.
            request.service_start_at = start
            request.service_end_at = end
            respond(request)
        return not crashed

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
