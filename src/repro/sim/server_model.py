"""Virtual-time server model.

Reproduces the harness's server structure — shared FIFO request queue
drained by ``n`` worker threads — as discrete events: request arrival
(after the inbound wire delay), service start when a worker frees up,
service completion, response receipt (after the outbound wire delay).
A delay of zero costs no event where the order allows: an arrival due
now is taken at once, and a completion with nothing else due at its
instant delivers its responses itself.
Timestamps land in the same :class:`~repro.core.request.RequestRecord`
chain live runs produce, so all downstream statistics code is shared.
The server records nothing itself: every response goes to the
``on_response`` it was built with — the simulated transport's
completion path in a run, a two-line recorder in a unit test.

An arrival and a free worker run the one queue stage of
:mod:`repro.core.stage`, and a service window its one service stage;
this model turns their decisions into events and prices the window,
and with a ``power`` stage (:mod:`repro.energy`) rescales it by the
frequency chosen for it plus the wakeup of a worker that slept —
energy is a stage of this server, not another server.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Sequence

from ..core.request import Request
from ..core.stage import SHED, STALLED, START, QueueStage, build_stage
from .engine import Engine
from .network_model import NetworkModel
from .service_models import ServiceTimeModel

__all__ = ["SimulatedServer"]


class SimulatedServer:
    """n-worker FCFS server in virtual time.

    Parameters
    ----------
    engine:
        The discrete-event engine to schedule on.
    service_model:
        Per-request service-time source (already composed with
        contention / simulator-speed / occupancy dilations).
    network:
        Wire-latency model of the active harness configuration.
    n_threads:
        Number of worker "threads" (parallel servers).
    rng:
        Random stream for service-time draws.
    on_response:
        Receives every response (shed and errored ones included) at the
        instant it reaches the client. Whoever passes it owns recording:
        the simulated transport installs its completion path here, which
        owns lifecycle tracing and statistics exactly as it does live.
    queue_capacity, gate, buffer:
        The queue stage's bound on waiting requests, admission gate
        (:class:`repro.control.AdmissionGate`) and discipline (see
        :class:`repro.core.stage.QueueStage`) — the live request
        queue's, so admit/shed tallies and dequeue order match.
    server_id:
        Index of this instance in a multi-server topology; stamped on
        every request it serves so per-server statistics work.
    injector, tracer, batching, cache:
        The stages' (see :mod:`repro.core.stage`): the same decisions
        and the same ``fault_*`` / ``batch_*`` events as the live
        server, so live and virtual-time traces diff directly. The
        injector's queue stalls hold dispatch and the batch policy
        forms the batches it starts.
    batch_marginal_cost:
        Service-time model for batched dispatch: a batch of per-member
        draws ``s_0..s_{k-1}`` occupies its worker for ``s_0 +
        batch_marginal_cost * (s_1 + ... + s_{k-1})`` — one draw per
        member keeps the service RNG stream aligned with unbatched
        runs, and the marginal fraction models the amortization a
        vectorized ``handle_batch`` achieves live (1.0 = no benefit).
    power:
        Optional service-stage power model — one replica's pool from
        :meth:`repro.energy.PowerStage.for_server` — consulted twice
        per window: ``on_start(now, queue_depth, waited, window)``
        returns the window rescaled by the frequency it picked (plus
        the wakeup when the worker had slept), and ``on_end(now)``
        marks the worker idle again. None costs one test at each.
    """

    def __init__(
        self,
        engine: Engine,
        service_model: ServiceTimeModel,
        network: NetworkModel,
        n_threads: int,
        rng: random.Random,
        on_response: Callable[[Request], None],
        injector=None,
        queue_capacity: Optional[int] = None,
        server_id: int = 0,
        tracer=None,
        gate=None,
        buffer=None,
        batching=None,
        batch_marginal_cost: float = 0.35,
        cache=None,
        power=None,
    ) -> None:
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        self._engine = engine
        self._service_model = service_model
        self._network = network
        self._n_threads = n_threads
        self._rng = rng
        self._on_response_cb = on_response
        self.server_id = server_id
        #: The replica's queue stage: its buffer, counters and snapshot.
        self.queue = QueueStage(
            queue_capacity, injector, gate, buffer, batching
        )
        self._batch_marginal = batch_marginal_cost
        # The cache (repro.cache.RequestCache, shared across the fleet)
        # is looked up at service start for requests that carry a
        # synthetic key (payload is not None).
        self._stage = build_stage(server_id, injector, cache, batching, tracer)
        self._power = power
        # The one pending wake-up of each kind: the end of a stall, and
        # the earliest batch release (None when none is scheduled), so
        # dispatch never stacks redundant ones.
        self._stall_event_pending = False
        self._batch_deadline_at: Optional[float] = None
        self._busy_workers = 0
        self._alive_workers = n_threads
        self.crashed_workers = 0
        self.busy_time = 0.0

    # -- replica surface (what a transport asks of a server) ---------------
    #: A service-time model raises nothing, so there is never an
    #: application error text to report.
    errors = ()

    def start(self) -> None:
        """Nothing to start: workers are counters, not threads."""

    def shutdown(
        self, timeout: float = 0.0, discard_pending: bool = False
    ) -> None:
        """Nothing to join; pending events die with the engine."""

    def set_tracer(self, tracer) -> None:
        if self._stage is not None:
            self._stage.tracer = tracer

    # -- client side ------------------------------------------------------
    def submit(self, generated_at: float, payload=None) -> None:
        """Schedule one request whose ideal arrival instant is given.

        The open-loop guarantee holds by construction in virtual time:
        submission instants come straight from the arrival schedule.
        ``payload`` carries the synthetic cache key when the caching
        tier is enabled (None otherwise — the historical shape).
        """
        request = Request(payload=payload, generated_at=generated_at)
        request.sent_at = generated_at
        self.submit_request(request)

    def submit_request(self, request: Request, extra_delay: float = 0.0) -> None:
        """Accept an already-built attempt (``sent_at`` stamped).

        ``extra_delay`` models fault-injected in-flight latency on top
        of the configuration's wire delay. An attempt that is due now
        — sent at this instant over a zero-latency wire — arrives
        inline, saving the heap a same-instant event.
        """
        if request.server_id is None:
            request.server_id = self.server_id
        when = (
            request.sent_at
            + self._network.wire_latency_each_way
            + extra_delay
        )
        now = self._engine.now
        if when > now:
            self._engine.at(when, self._on_arrival, request)
        else:
            self._on_arrival(request, now)

    # -- server events -------------------------------------------------------
    def _on_arrival(
        self, request: Request, now: Optional[float] = None
    ) -> None:
        if now is None:
            now = self._engine.now
        queue = self.queue
        verdict, wake_at = queue.offer(
            request, now, self._busy_workers < self._alive_workers
        )
        if verdict is START:
            self._start((request,), now)
        elif verdict is SHED:
            self._schedule_response(request, now)
        elif queue.batching is not None:
            self._dispatch()
        elif wake_at is not None:
            # Unbatched, a waiting arrival found every worker busy or a
            # stall holding dispatch: only a completion or the stall's
            # end can start it.
            self._schedule_stall_end(wake_at)

    def _schedule_stall_end(self, when: float) -> None:
        if not self._stall_event_pending:
            self._stall_event_pending = True
            self._engine.at(when, self._stall_over)

    def _stall_over(self) -> None:
        self._stall_event_pending = False
        self._dispatch()

    def _dispatch(self) -> None:
        """Start what the queue stage releases while a worker is free.

        When it releases nothing yet — a stall holds dispatch, or the
        head's batch is still forming — one wake-up is scheduled for
        the instant that changes. Wake-ups can go stale — a completion
        may have dispatched the batch first — in which case they
        simply re-evaluate and find nothing to do.
        """
        queue = self.queue
        buffer = queue.buffer
        while len(buffer) and self._busy_workers < self._alive_workers:
            now = self._engine.now
            members, wake_at = queue.release(now)
            if wake_at is not None:
                if members is STALLED:
                    self._schedule_stall_end(wake_at)
                else:
                    self._schedule_batch_deadline(wake_at)
                return
            self._start(members, now)

    def _schedule_batch_deadline(self, when: float) -> None:
        # The head only gets *younger* as batches pop, so an already-
        # scheduled earlier (or equal) wakeup covers this one.
        if self._batch_deadline_at is not None and self._batch_deadline_at <= when:
            return
        self._batch_deadline_at = when
        self._engine.at(when, self._on_batch_deadline, when)

    def _on_batch_deadline(self, when: float) -> None:
        if self._batch_deadline_at == when:
            self._batch_deadline_at = None
        self._dispatch()

    def _start(self, members: Sequence[Request], now: float) -> None:
        """Price one service window over ``members``; schedule its close.

        One service draw per member, hit or miss, so neither the cache
        nor batching shifts the service RNG stream; a hit costs
        ``hit_cost``. A miss is stored at lookup (DESIGN.md §9).
        """
        self._busy_workers += 1
        stage = self._stage
        seq, pause = None, 0.0
        if stage is not None:
            seq, pause = stage.open(members, now)
            if stage.cache is not None:
                stage.lookup(members, now, resident=True)
        sample, rng = self._service_model.sample, self._rng
        first = None
        others = hits = 0.0
        for request in members:
            request.service_start_at = now
            draw = sample(rng)
            if request.cache_hit:
                hits += stage.cache.hit_cost
                continue
            if first is None:
                first = draw
            else:
                others += draw
        window = hits
        if first is not None:
            window += first + self._batch_marginal * others
        window += pause
        if self._power is not None:
            window = self._power.on_start(
                now, len(self.queue), now - members[0].enqueued_at, window
            )
        self.busy_time += window
        self._engine.after(window, self._on_completion, seq, members)

    def _on_completion(
        self, seq: Optional[float], members: Sequence[Request]
    ) -> None:
        now = self._engine.now
        self._busy_workers -= 1
        stage = self._stage
        if stage is not None and stage.close(seq, members, now):
            self._alive_workers = max(0, self._alive_workers - 1)
            self.crashed_workers += 1
        # Asked before _dispatch() can push anything due now.
        inline = (
            not self._network.wire_latency_each_way
            and self._nothing_else_due(now)
        )
        for request in members:
            request.service_end_at = now
            if not inline:
                self._schedule_response(request, now)
        if self._power is not None:
            self._power.on_end(now)
        self._dispatch()
        if inline:
            for request in members:
                self._on_response(request)

    def _nothing_else_due(self, now: float) -> bool:
        """Whether no event on the heap is due at ``now``.

        Then zero-delay responses pushed now would be the next events
        popped, in member order, after this completion's ``_dispatch``
        (whatever it pushes comes later in ``seq``): running them at the
        end of the completion is the same order without the heap.
        """
        next_time = self._engine._queue.peek_time()
        return next_time is None or next_time > now

    def _schedule_response(self, request: Request, now: float) -> None:
        self._engine.at(
            now + self._network.wire_latency_each_way,
            self._on_response,
            request,
        )

    def _on_response(self, request: Request) -> None:
        request.response_received_at = self._engine.now
        self._on_response_cb(request)

    # -- derived metrics --------------------------------------------------------
    @property
    def alive_workers(self) -> int:
        return self._alive_workers

    @property
    def busy_workers(self) -> int:
        return self._busy_workers

    @property
    def n_threads(self) -> int:
        return self._n_threads

    def utilization(self, elapsed: float) -> float:
        """Mean fraction of workers busy over ``elapsed`` virtual seconds."""
        if elapsed <= 0:
            raise ValueError("elapsed must be positive")
        return self.busy_time / (elapsed * self._n_threads)
