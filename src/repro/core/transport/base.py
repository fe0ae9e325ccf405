"""Transport interface shared by the three harness configurations.

A transport owns the path between the client (traffic shaper) and the
application's request queue, and the return path for responses. The
three configurations of Fig. 1 are three transports:

- :class:`repro.core.transport.integrated.IntegratedTransport` — client
  and application in one process, direct hand-off (shared memory).
- :class:`repro.core.transport.loopback.LoopbackTransport` — real TCP
  over 127.0.0.1, capturing genuine kernel network-stack overheads.
- :class:`repro.core.transport.networked.NetworkedTransport` — TCP plus
  a modelled NIC/switch delay line, standing in for the multi-machine
  setup (we have one machine; the paper shows the network contributes
  an additive per-end overhead, which is what the delay line injects).

Every transport can host a *topology*: ``start(..., n_servers=N)``
builds N independent :class:`ServerInstance` replicas — each its own
:class:`RequestQueue` and worker pool over its own application replica
— and :meth:`Transport.send` consults a pluggable
:class:`~repro.core.balancer.LoadBalancer` to route each request to
one of them. ``n_servers=1`` (the default) reproduces the paper's
original client-to-single-server shape exactly.

The base class is also the transport-layer fault-injection point: with
a :class:`repro.faults.FaultInjector` installed, each send may be
dropped (the server never sees it), held for an extra in-flight delay,
or duplicated (the copy loads the server; its response is discarded).
A dropped message is *not* counted as outstanding — only a client-side
deadline recovers it. Transport faults model the shared wire and apply
before routing; server-side faults can be scoped to a subset of
replicas via ``FaultPlan.server_ids``.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, List, Optional, Tuple

from ..balancer import LoadBalancer, RoundRobinBalancer, pick_active
from ..clock import Clock
from ..collector import StatsCollector
from ..config import THREADED
from ..queueing import QueueClosed, RequestQueue
from ..request import Request
from ..scheduler import Scheduler
from ..server import Server

__all__ = ["ServerInstance", "Transport", "TransportStats"]


class TransportStats:
    """Counters a transport maintains for sanity checks."""

    def __init__(self) -> None:
        self.sent = 0
        self.completed = 0
        self.errored = 0
        self.dropped = 0
        self.shed = 0


class ServerInstance:
    """One server replica behind the transport.

    Bundles the replica's request queue (a simulated replica's is its
    server's :class:`~repro.core.stage.QueueStage`: the same ``len``
    and ``snapshot(now)``), its worker-pool
    :class:`~repro.core.server.Server`, and the transport-side
    bookkeeping: ``routed`` counts lifetime assignments, kept by the
    transport's accounting (``_note_sent``). The replica's outstanding
    count — the depth signal for JSQ/power-of-two routing — is the
    transport's, one entry of its depth vector
    (:meth:`Transport.queue_depths`).

    Runtime membership (autoscaling) makes the instance list
    append-only: a removed replica is *drained* in place — flagged so
    the balancer never routes to it again — rather than deleted, which
    keeps every historical server id addressable. ``started_at`` /
    ``drained_at`` bound the replica's active window (per-server rate
    accounting divides by this window, not the whole run), and
    ``completed`` counts responses this replica actually produced.
    ``children`` is the replica's application in process mode (a
    :class:`~repro.core.transport.process.ChildApp`), else ``None``.
    """

    __slots__ = (
        "server_id",
        "queue",
        "server",
        "children",
        "routed",
        "completed",
        "draining",
        "started_at",
        "drained_at",
    )

    def __init__(self, server_id: int, queue: RequestQueue, server) -> None:
        self.server_id = server_id
        self.queue = queue
        self.server = server
        self.children = None
        self.routed = 0
        self.completed = 0
        self.draining = False
        self.started_at = 0.0
        self.drained_at: Optional[float] = None


def _replicate_app(app, index: int):
    """Obtain an application replica for server instance ``index``.

    Applications that provide ``replica(index)`` (sharded apps — see
    :class:`repro.apps.base.ShardedApp`) name the backing object per
    instance themselves. Otherwise instance 0 always uses the
    caller's object, and later instances use ``app.clone()`` when the
    application provides one; failing that the same object is shared
    across instances, which is sound because
    :meth:`repro.apps.base.Application.process` is required to be
    thread-safe already (the single-server harness calls it from
    ``n_threads`` workers concurrently).
    """
    replica = getattr(app, "replica", None)
    if callable(replica):
        return replica(index)
    if index == 0:
        return app
    clone = getattr(app, "clone", None)
    if callable(clone):
        return clone()
    return app


class Transport:
    """Abstract base: lifecycle, routing, and completion accounting.

    Subclasses implement :meth:`_submit` (client -> server path; or
    :meth:`_submit_after`, when the hand-off or an injected delay is
    theirs to model)
    and may override :meth:`_build_instance` (what a replica is) and
    :meth:`_start_impl`/:meth:`_stop_impl` (their I/O machinery). The
    base class applies transport faults, routes each send to a server
    instance via the balancer, runs the run's feeds, and tracks
    outstanding requests so :meth:`drain` can wait for the last
    response of an open-loop run — under whichever clock it was built
    on.

    What observes the wire is two lists and one sink, built once per
    run by :meth:`repro.core.run.RunParts.wire` from the features that
    are enabled (DESIGN.md §5 "The order on the wire"): every routed
    attempt goes through ``on_send``; every answer that is not an
    injected duplicate's goes through ``on_complete`` and then to
    ``sink`` — the bottom layer of the client stack, or
    :meth:`record` when there is none.

    ``execution`` says where a replica's application calls run: on
    its worker threads (the default), or, in process mode, in one
    child process per worker thread (``repro.core.transport.process``).
    Set it before :meth:`start`; :func:`repro.core.run_harness` sets
    it from ``HarnessConfig.execution``.
    """

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self._collector: Optional[StatsCollector] = None
        self._instances: List[ServerInstance] = []
        self._balancer: Optional[LoadBalancer] = None
        self._injector = None
        self.on_send: tuple = ()
        self.on_complete: tuple = ()
        self.sink = self.record
        self.execution = THREADED
        self._outstanding = 0
        #: The balancer's inputs, kept where the counters change (the
        #: accounting below) so a send builds neither: per replica, requests
        #: routed there whose responses have not come back (in flight +
        #: queued + in service); and the ids of the replicas accepting
        #: new work (not draining), ascending.
        self._depths: List[int] = []
        self._active: Tuple[int, ...] = ()
        self._lock = threading.Lock()
        self._all_done = threading.Condition(self._lock)
        #: Threads blocked in :meth:`drain`, counted under the lock: an
        #: answer wakes ``_all_done`` only when one is.
        self._drainers = 0
        self._running = False
        # Timer source for fault-delayed sends: the run's scheduler,
        # or one of the transport's own when started without.
        self._scheduler = None
        self._own_scheduler: Optional[Scheduler] = None
        self.stats = TransportStats()
        # Tracer: None unless the run enables tracing. It keeps the
        # fault trail on send and the lifecycle record on completion.
        self._tracer = None
        self._registry = None
        # Control plane: None unless the run enables repro.control. A
        # replica takes its admission gate and queue discipline from it.
        self._control = None
        # Health manager: None unless the run enables repro.health.
        # With one, routing consults it (ejection/breakers).
        self._health = None
        # Batching: None unless the run enables repro.batching. A
        # single stateless BatchPolicy is shared by every replica.
        self._batching = None
        # Caching tier: None unless the run enables repro.cache. One
        # thread-safe RequestCache shared by every replica's workers.
        self._cache = None
        # Start parameters retained for runtime scale-up replicas.
        self._app = None
        self._n_threads = 0
        self._queue_capacity: Optional[int] = None

    # -- lifecycle -----------------------------------------------------
    def start(
        self,
        app,
        n_threads: int,
        collector: StatsCollector,
        injector=None,
        queue_capacity: Optional[int] = None,
        n_servers: int = 1,
        balancer: Optional[LoadBalancer] = None,
        control=None,
        batching=None,
        cache=None,
        scheduler=None,
        health=None,
    ) -> None:
        if self._running:
            raise RuntimeError("transport already started")
        if n_servers < 1:
            raise ValueError("n_servers must be >= 1")
        self._collector = collector
        self._injector = injector
        self._balancer = balancer if balancer is not None else RoundRobinBalancer()
        self._control = control
        self._health = health
        self._batching = batching
        self._cache = cache
        self._app = app
        self._n_threads = n_threads
        self._queue_capacity = queue_capacity
        if scheduler is None:
            # Standalone use: its thread starts with the first delayed
            # send and is stopped with the transport.
            scheduler = self._own_scheduler = Scheduler(self._clock)
        self._scheduler = scheduler
        self._instances = []
        for server_id in range(n_servers):
            self._instances.append(self._build_instance(server_id))
        self._depths = [0] * n_servers
        self._active = tuple(range(n_servers))
        self._start_impl()
        for instance in self._instances:
            instance.server.start()
        self._running = True

    def _replica_options(self, server_id: int) -> dict:
        """The per-replica hooks every kind of replica is built with.

        The fault injector's view scoped to this replica, the shared
        batch policy and cache, the queue bound and — with a control
        plane installed — the plane's queue discipline (FIFO or
        priority) and this replica's admission gate. Without a control
        plane gate and buffer are ``None`` and the queue is
        byte-for-byte the pre-control-plane configuration.
        """
        injector, control = self._injector, self._control
        return dict(
            server_id=server_id,
            injector=(
                injector.for_server(server_id) if injector is not None else None
            ),
            batching=self._batching,
            cache=self._cache,
            queue_capacity=self._queue_capacity,
            gate=control.gate_for(server_id) if control is not None else None,
            buffer=control.make_buffer() if control is not None else None,
        )

    def _build_instance(self, server_id: int) -> ServerInstance:
        """Construct one replica (queue + worker pool), not yet started."""
        options = self._replica_options(server_id)
        app = _replicate_app(self._app, server_id)
        children = None
        if self.execution.mode == "process":
            from .process import ChildApp

            # A run starts once its replicas are up; a scale-up (maybe
            # on the timer thread) does not wait for its children.
            app = children = ChildApp(
                app, self._n_threads, self.execution.start_method,
                wait=not self._running,
            )
        queue = RequestQueue(
            self._clock,
            capacity=options.pop("queue_capacity"),
            injector=options["injector"],
            gate=options.pop("gate"),
            buffer=options.pop("buffer"),
        )
        server = Server(
            app,
            queue,
            self._clock,
            n_threads=self._n_threads,
            respond=self._make_responder(server_id),
            **options,
        )
        instance = ServerInstance(server_id, queue, server)
        instance.children = children
        instance.started_at = self._clock.now()
        return instance

    def stop(self, timeout: float = 30.0) -> None:
        """Stop every replica, then the I/O machinery, then the timers.

        Each step runs even when an earlier one fails — a worker that
        does not stop within ``timeout`` must not leave the other
        replicas, a replica's child processes or the sockets running —
        and the first failure is raised once everything is down.
        """
        if not self._running:
            return
        failures = []

        def attempt(step, *args, **kwargs) -> None:
            try:
                step(*args, **kwargs)
            except Exception as exc:  # noqa: BLE001 - raised below
                failures.append(exc)

        for instance in self._instances:
            # Anything still queued belongs to requests nobody is
            # waiting on (drain() already returned or timed out);
            # serving it would only delay the worker join.
            attempt(
                instance.server.shutdown,
                timeout=timeout,
                discard_pending=True,
            )
            if instance.children is not None:
                attempt(instance.children.close, timeout)
        attempt(self._stop_impl)
        self._running = False
        own, self._own_scheduler = self._own_scheduler, None
        if own is not None:
            # Last, so a callback failure it re-raises leaves nothing
            # running; a delayed send that fired into the teardown
            # above was abandoned like any arrival after shutdown.
            attempt(own.stop)
        if failures:
            raise failures[0]

    def _start_impl(self) -> None:
        """Hook for I/O machinery startup (sockets, threads)."""

    def _stop_impl(self) -> None:
        """Hook for I/O machinery teardown."""

    def _make_responder(self, server_id: int) -> Callable[[Request], None]:
        """Bind a server's respond callback to its instance identity."""

        def respond(request: Request) -> None:
            if request.server_id is None:
                request.server_id = server_id
            self._on_response(request)

        return respond

    def set_observability(self, tracer, registry) -> None:
        """Install the run's tracer and register transport metrics.

        Must be called after :meth:`start` (gauges observe the built
        instances). Counters the transport already keeps become
        callback gauges — zero added cost on the send path.
        """
        self._tracer = tracer
        self._registry = registry
        if registry is None:
            return
        stats = self.stats
        registry.gauge(
            "tb_inflight",
            help="Requests sent and not yet completed",
            fn=lambda: self._outstanding,
        )
        for name, attr in (
            ("tb_sent_total", "sent"),
            ("tb_completed_total", "completed"),
            ("tb_errored_total", "errored"),
            ("tb_dropped_total", "dropped"),
            ("tb_shed_total", "shed"),
        ):
            registry.gauge(
                name,
                help=f"Transport lifetime {attr} count",
                fn=(lambda a=attr: getattr(stats, a)),
            )
        for instance in self._instances:
            self._register_instance_observability(instance)

    def _register_instance_observability(self, instance: ServerInstance) -> None:
        """Wire one replica into the tracer/registry (start or scale-up)."""
        if self._tracer is not None:
            instance.server.set_tracer(self._tracer)
        registry = self._registry
        if registry is None:
            return
        registry.gauge(
            "tb_queue_depth",
            help="Waiting requests in the replica's request queue",
            fn=(lambda q=instance.queue: len(q)),
            server=str(instance.server_id),
        )
        registry.gauge(
            "tb_outstanding",
            help="Routed, not-yet-answered requests per replica",
            fn=(lambda i=instance.server_id: self._depths[i]),
            server=str(instance.server_id),
        )
        registry.gauge(
            "tb_busy_workers",
            help="Workers inside the application service window",
            fn=(lambda s=instance.server: s.busy_workers),
            server=str(instance.server_id),
        )
        registry.gauge(
            "tb_alive_workers",
            help="Workers not lost to injected crashes",
            fn=(lambda s=instance.server: s.alive_workers),
            server=str(instance.server_id),
        )

    # -- topology ------------------------------------------------------
    @property
    def n_servers(self) -> int:
        return len(self._instances)

    @property
    def instances(self) -> Tuple[ServerInstance, ...]:
        return tuple(self._instances)

    def queue_depths(self) -> List[int]:
        """Per-instance outstanding counts (the balancer's depth vector)."""
        with self._lock:
            return list(self._depths)

    def active_server_ids(self) -> List[int]:
        """Ids of replicas accepting new work (non-draining)."""
        with self._lock:
            return list(self._active)

    def add_server(self) -> Optional[int]:
        """Grow the replica set by one at runtime (autoscale up).

        The new replica joins with a fresh queue, worker pool, and (if
        a control plane is installed) its own admission gate, and
        becomes routable the moment it is appended. Returns the new
        server id, or None when the transport is not running.
        """
        if not self._running:
            return None
        with self._lock:
            server_id = len(self._instances)
        instance = self._build_instance(server_id)
        instance.server.start()
        self._register_instance_observability(instance)
        with self._lock:
            self._instances.append(instance)
            self._depths.append(0)
            self._active += (server_id,)
        return server_id

    def drain_server(self) -> Optional[int]:
        """Shrink the replica set by one at runtime (autoscale down).

        The youngest active replica stops receiving new work
        immediately; requests already queued or in flight on it still
        complete (the instance object stays in place so responses and
        accounting resolve normally). Returns the drained server id, or
        None when only one active replica remains.
        """
        with self._lock:
            if len(self._active) <= 1:
                return None
            server_id = self._active[-1]
            self._active = self._active[:-1]
            instance = self._instances[server_id]
            instance.draining = True
            instance.drained_at = self._clock.now()
            idle = self._depths[server_id] <= 0
        if idle:
            # No completion is left to fire the hook.
            self._instance_drained(instance)
        return instance.server_id

    @property
    def alive_workers(self) -> Tuple[int, ...]:
        """Workers still serving, per instance (crash faults decrement)."""
        return tuple(
            instance.server.alive_workers for instance in self._instances
        )

    # -- client side ---------------------------------------------------
    def send(
        self,
        generated_at: float,
        payload: Any,
        *,
        logical_id: Optional[int] = None,
        attempt: int = 0,
        deadline: Optional[float] = None,
        avoid_server: Optional[int] = None,
        server_id: Optional[int] = None,
    ) -> Optional[int]:
        """Submit one request; ``generated_at`` is the ideal instant.

        One order on the wire: the fault action first, then routing,
        then the ``on_send`` feeds. A dropped attempt is lost before
        any router sees it — no balancer draw, no ``routed`` count,
        ``None`` returned — so the resilient client keeps its
        last-known server for the hedge. Otherwise the attempt routes
        through the balancer and the chosen server index comes back, so
        callers can steer a later hedge to a different replica via
        ``avoid_server``. A caller whose request only one replica can
        answer — a fan-out leg and its data shard — passes
        ``server_id``: routing then runs over that one-element
        candidate set (health still sees the attempt; an ejected shard
        is routed to all the same, fail-open).
        """
        if not self._running:
            raise RuntimeError("transport not started")
        now = self._clock.now()
        tracer = self._tracer
        action = (
            self._injector.transport_action()
            if self._injector is not None
            else None
        )
        if action is not None and action.drop:
            self._count_sent(None)
            if tracer is not None:
                # The server never sees this attempt; its truncated
                # chain plus the fault marker is all a trace can show.
                for kind, ts in (
                    ("generated", generated_at),
                    ("sent", now),
                    ("fault_drop", now),
                ):
                    tracer.emit(
                        kind, ts, logical_id=logical_id, attempt=attempt
                    )
            return None
        # Positional: keywords would make the call build a dict.
        request = Request(
            payload, generated_at, logical_id, attempt, deadline, now
        )
        extra_delay = action.extra_delay if action is not None else 0.0
        if tracer is not None and extra_delay > 0.0:
            tracer.emit(
                "fault_delay", now, logical_id=logical_id,
                request_id=request.request_id, attempt=attempt,
                value=extra_delay,
            )
        if len(self._instances) == 1:
            server_id = 0
        else:
            if server_id is not None:
                # Pinned (a fan-out leg): the candidate set is the one
                # replica holding its data shard, so no depths are read
                # and the balancer draws nothing.
                depths, candidates = (), (server_id,)
            else:
                # The kept vector itself: each count it holds is one
                # the accounting writers stored, and the active ids
                # are replaced, never changed in place.
                depths, candidates = self._depths, self._active
            forced = False
            if self._health is not None:
                candidates, forced = self._health.route(candidates, now)
            if forced:
                # Probation probe or breaker trial: the health layer
                # names the replica; the balancer sits out.
                server_id = candidates[0]
            else:
                server_id = pick_active(
                    self._balancer, depths, candidates, avoid=avoid_server
                )
        request.server_id = server_id
        for feed in self.on_send:
            feed(request)
        dup = None
        if action is not None and action.duplicate:
            # The copy loads the same server; its response is discarded.
            dup = Request(
                payload, generated_at, logical_id, attempt, deadline, now,
                server_id, True,
            )
            if tracer is not None:
                tracer.emit(
                    "fault_duplicate", now, logical_id=logical_id,
                    request_id=dup.request_id, attempt=attempt,
                    server_id=server_id,
                )
        self._count_sent(server_id, 1 if dup is None else 2)
        self._submit_after(request, extra_delay)
        if dup is not None:
            self._submit_after(dup, extra_delay)
        return server_id

    def _submit_after(self, request: Request, delay: float) -> None:
        """Hand ``request`` to the wire ``delay`` seconds from now."""
        if delay > 0.0:
            self._scheduler.after(delay, self._submit_after, request, 0.0)
            return
        try:
            self._submit(request)
        except (QueueClosed, OSError):
            # Arrived after shutdown: the message is lost on the wire.
            self._abandon(request)

    def _submit(self, request: Request) -> None:
        raise NotImplementedError

    def _abandon(self, request: Request) -> None:
        """Account an attempt that will never complete."""
        with self._all_done:
            self._outstanding -= 1
            server_id = request.server_id
            if server_id is not None and 0 <= server_id < len(self._instances):
                self._depths[server_id] -= 1
            self.stats.dropped += 1
            if self._outstanding == 0 and self._drainers:
                self._all_done.notify_all()

    def drain(self, timeout: float = 300.0) -> None:
        """Block until every sent request has completed."""
        with self._all_done:
            self._drainers += 1
            try:
                if not self._all_done.wait_for(
                    lambda: self._outstanding == 0, timeout
                ):
                    raise TimeoutError(
                        f"{self._outstanding} requests still outstanding"
                    )
            finally:
                self._drainers -= 1

    # -- server -> client return path ----------------------------------
    def _shed(self, request: Request) -> None:
        """Shed-response path: admission control rejected the request."""
        self._complete(request)

    def record(self, request: Request) -> None:
        """The default sink: a successful attempt is one latency record."""
        if request.error is None and not request.shed:
            self._collector.add(request.finish())

    def _complete(self, request: Request) -> None:
        """Stamp receipt, feed and sink the answer, release the slot.

        An injected duplicate's answer is recorded in the trace and
        then thrown away: no feed and no sink sees it, and its fate is
        not one of the run's outcomes.
        """
        request.response_received_at = self._clock.now()
        if self._tracer is not None:
            self._tracer.record_request(request)
        discard = request.discard
        good = request.error is None and not request.shed and not discard
        if not discard:
            for feed in self.on_complete:
                feed(request)
            self.sink(request)
        drained_instance = self._count_answered(request, good)
        if drained_instance is not None:
            self._instance_drained(drained_instance)

    #: Called by the server when processing finishes. In process, the
    #: answer is complete as it is (no frame in between); socket
    #: transports override this to ship it back through their reply
    #: path instead.
    _on_response = _complete

    # -- accounting: written once, run under the lock here -------------
    # ``_count_sent`` / ``_count_answered`` run ``_note_sent`` /
    # ``_note_answered`` under ``_lock`` (entered as the request queue
    # enters its own: acquire + try/finally, once per request), and wake
    # ``drain`` when nothing is left outstanding and it waits; a
    # transport whose every call runs on one thread with nobody to
    # wake — the simulator's — binds them to the bare ``_note_*``
    # instead.
    def _note_sent(self, server_id: Optional[int], copies: int = 1) -> None:
        """One attempt sent: ``copies`` messages (2 with an injected
        duplicate) now outstanding at ``server_id`` — or, for None,
        dropped before routing."""
        self.stats.sent += 1
        if server_id is None:
            self.stats.dropped += 1
            return
        self._outstanding += copies
        self._depths[server_id] += copies
        self._instances[server_id].routed += copies

    def _note_answered(
        self, request: Request, good: bool
    ) -> Optional[ServerInstance]:
        """An answered message; returns the draining replica it left
        with nothing outstanding, if any."""
        self._outstanding -= 1
        self.stats.completed += 1
        if not request.discard:
            if request.error is not None:
                self.stats.errored += 1
            if request.shed:
                self.stats.shed += 1
        # Release the routed replica's outstanding slot.
        server_id = request.server_id
        if server_id is not None and 0 <= server_id < len(self._instances):
            self._depths[server_id] -= 1
            instance = self._instances[server_id]
            if good:
                instance.completed += 1
            if instance.draining and self._depths[server_id] <= 0:
                return instance
        return None

    def _count_sent(self, server_id: Optional[int], copies: int = 1) -> None:
        lock = self._lock
        lock.acquire()
        try:
            self._note_sent(server_id, copies)
        finally:
            lock.release()

    def _count_answered(
        self, request: Request, good: bool
    ) -> Optional[ServerInstance]:
        # ``_all_done`` shares this lock; taking the plain lock skips
        # the condition's Python-level enter/exit on the hot path.
        lock = self._lock
        lock.acquire()
        try:
            drained = self._note_answered(request, good)
            if self._outstanding == 0 and self._drainers:
                self._all_done.notify_all()
        finally:
            lock.release()
        return drained

    def _instance_drained(self, instance: ServerInstance) -> None:
        """A draining replica's last outstanding request resolved.

        Its workers stay in place (idle, they cost nothing); in process
        mode its children exit, to be reaped by :meth:`stop`.
        """
        if instance.children is not None:
            instance.children.stop()

    @property
    def server_errors(self) -> List[str]:
        errors: List[str] = []
        for instance in self._instances:
            errors.extend(instance.server.errors)
        return errors
