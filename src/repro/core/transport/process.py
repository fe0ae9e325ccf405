"""Process-sharded execution: one OS process per server replica.

Threaded transports run every replica's worker pool inside the harness
interpreter, so aggregate throughput is GIL-capped no matter how many
replicas the topology (or the autoscaler) adds. ``ProcessTransport``
keeps the whole client side — traffic shaper, balancer, health
manager, resilience, completion accounting — in the parent, but builds
each replica's :class:`~repro.core.runtime.ReplicaRuntime` inside a
``multiprocessing`` child, so replicas execute on real cores.

Wire protocol (pickle frames over two simplex pipes per replica):

- parent -> child: ``("req", [(request_id, logical_id, attempt,
  payload), ...])`` — a sender thread coalesces every request buffered
  while the previous frame was in flight into one frame; ``("obs",)``
  installs the child-side trace relay; ``("stop", discard_pending)``
  begins shutdown.
- child -> parent: ``("ready", child_now, pid)`` once at startup (the
  clock-offset handshake, the reader thread's first frame);
  ``("recs", records, status, events)`` — all
  completions since the last flush, a status snapshot (queue depth,
  busy/alive workers, fault counts — the autoscaler's signals), and
  drained trace-relay events, one frame per batch; ``("bye", errors,
  fault_counts)`` on clean exit.

Timestamps never cross the pipe as absolutes. The child reports
*durations* (queue wait, service time); the parent anchors the chain
at response receipt (:meth:`ProcessTransport._apply_record`):
``service_end = receipt``, ``service_start = end - service_time``,
``enqueued = start - queue_time``, clamped to ``sent_at``. Sojourn time is therefore
measured entirely on the parent clock and coordinated-omission
semantics are identical to threaded mode.

Failure semantics: a child that dies (crash, kill, pickling bug)
closes its response pipe; the parent's reader sees EOF without a
``bye``, fails every pending request on that replica with a transport
error (the resilient client's retry/hedge machinery then recovers
them), emits a ``fault_crash`` trace event, and marks the replica
dead so later routed sends error out immediately instead of hanging.
A drained (scaled-down) replica is shut down and joined the moment
its last outstanding request resolves. SIGTERM of the harness
terminates every live replica process before re-raising.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import weakref
from typing import Any, Dict, List, Optional, Tuple

from ...faults.injector import FaultInjector
from ...obs.forward import TraceRelay, replay_events
from ..clock import WallClock
from ..config import ExecutionConfig
from ..queueing import QueueSnapshot
from ..request import Request
from ..runtime import ReplicaRuntime
from .base import ServerInstance, Transport, _replicate_app

__all__ = ["ProcessTransport", "ProcessReplicaHandle"]

_READY_TIMEOUT = 60.0

# -- SIGTERM reaping ----------------------------------------------------
# Replica processes are daemonic, so a *clean* interpreter exit reaps
# them; a SIGTERM default-kills the parent before multiprocessing's
# atexit hook runs, which would orphan the children. The first
# ProcessTransport to start installs a chaining handler that terminates
# every live replica, then re-delivers the signal to whatever handler
# was there before.
_live_processes: "weakref.WeakSet" = weakref.WeakSet()
_reaper_lock = threading.Lock()
_reaper_installed = False
_prev_sigterm = None


def _reap_children(signum, frame):
    for proc in list(_live_processes):
        try:
            if proc.is_alive():
                proc.terminate()
        except Exception:
            pass
    prev = _prev_sigterm
    if callable(prev):
        prev(signum, frame)
    else:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)


def _install_sigterm_reaper() -> None:
    global _reaper_installed, _prev_sigterm
    with _reaper_lock:
        if _reaper_installed:
            return
        if threading.current_thread() is not threading.main_thread():
            return  # signal.signal is main-thread-only; skip quietly
        try:
            _prev_sigterm = signal.signal(signal.SIGTERM, _reap_children)
        except ValueError:
            return
        _reaper_installed = True


def _child_seed(seed: int, server_id: int) -> int:
    """Per-replica fault-stream seed.

    The threaded injector serves all replicas from one set of RNG
    streams; a forked child must not replay the parent's stream (every
    replica would draw identical faults), so each child derives its own
    root. Decisions differ from threaded mode draw-for-draw but are
    statistically the faithful same plan.
    """
    return (seed * 1000003 + 7919 * (server_id + 1)) & 0x7FFFFFFF


# -- child side ---------------------------------------------------------

#: Child-side cadence (seconds) of the status heartbeat (queue depth,
#: busy/alive workers, fault counts) while no completions are flowing —
#: the autoscaler's signal freshness bound. Completion records
#: themselves are flushed immediately.
_IPC_FLUSH_INTERVAL = 0.05


class _RecordStreamer:
    """Child-side flusher: completions out, one pickle frame per batch.

    ``respond`` callbacks from the worker pool land in a buffer; the
    flusher thread ships everything accumulated since the previous
    ``send`` in a single frame, so a blocked pipe coalesces bookkeeping
    instead of queueing one message per request. With no completions
    flowing it still sends a status heartbeat every
    ``_IPC_FLUSH_INTERVAL`` seconds.
    """

    def __init__(self, conn) -> None:
        self._conn = conn
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._records: List[tuple] = []
        self._stopping = False
        self._runtime: Optional[ReplicaRuntime] = None
        self._injector: Optional[FaultInjector] = None
        self._relay: Optional[TraceRelay] = None
        self._thread = threading.Thread(
            target=self._run, name="tb-ipc-flush", daemon=True
        )

    def bind(self, runtime: ReplicaRuntime, injector) -> None:
        self._runtime = runtime
        self._injector = injector

    def set_relay(self, relay: TraceRelay) -> None:
        self._relay = relay

    def start(self) -> None:
        self._thread.start()

    def respond(self, request: Request) -> None:
        """The replica's ``respond`` callback: encode and buffer."""
        queue_time = service_time = None
        if (
            request.service_start_at is not None
            and request.enqueued_at is not None
        ):
            queue_time = request.service_start_at - request.enqueued_at
        if (
            request.service_end_at is not None
            and request.service_start_at is not None
        ):
            service_time = request.service_end_at - request.service_start_at
        record = (
            request.request_id,
            request.shed,
            request.error,
            request.response,
            queue_time,
            service_time,
            request.batch_size,
        )
        with self._cond:
            self._records.append(record)
            self._cond.notify()

    def stop(self) -> None:
        """Flush remaining records, then stop the flusher thread."""
        with self._cond:
            self._stopping = True
            self._cond.notify()
        self._thread.join(timeout=5.0)

    # -- internals ----------------------------------------------------
    def _status(self) -> tuple:
        runtime = self._runtime
        queue = runtime.queue
        snap = queue.snapshot()
        counts = (
            self._injector.counts() if self._injector is not None else None
        )
        return (
            snap.depth,
            runtime.busy_workers,
            runtime.alive_workers,
            snap.peak_depth,
            snap.total_enqueued,
            snap.total_shed,
            snap.head_sojourn,
            counts,
        )

    def _run(self) -> None:
        while True:
            with self._cond:
                if not self._records and not self._stopping:
                    self._cond.wait(_IPC_FLUSH_INTERVAL)
                records, self._records = self._records, []
                stopping = self._stopping
            events = self._relay.drain() if self._relay is not None else []
            if not self._send(("recs", records, self._status(), events)):
                return
            if stopping:
                return

    def _send(self, frame) -> bool:
        try:
            self._conn.send(frame)
            return True
        except (OSError, ValueError, EOFError, BrokenPipeError):
            return False  # parent gone; nothing left to report to
        except Exception:
            # Unpicklable response payload: retry with responses
            # stripped rather than losing the whole batch's accounting.
            tag, records, status, events = frame
            stripped = [
                rec[:3] + (None,) + rec[4:] for rec in records
            ]
            try:
                self._conn.send((tag, stripped, status, events))
                return True
            except Exception:
                return False


def _replica_main(
    req_conn,
    resp_conn,
    app,
    n_threads: int,
    plan,
    seed: int,
    server_id: int,
    batching,
    queue_capacity: Optional[int],
    drain_timeout: float,
) -> None:
    """Entry point of one replica process."""
    clock = WallClock()
    injector = None
    if plan is not None:
        injector = FaultInjector(plan, seed=_child_seed(seed, server_id))
        injector.start_run(clock.now())
    scoped = injector.for_server(server_id) if injector is not None else None
    streamer = _RecordStreamer(resp_conn)
    runtime = ReplicaRuntime(
        app,
        clock,
        n_threads=n_threads,
        respond=streamer.respond,
        injector=scoped,
        server_id=server_id,
        batching=batching,
        queue_capacity=queue_capacity,
    )
    streamer.bind(runtime, injector)
    runtime.start()
    resp_conn.send(("ready", clock.now(), os.getpid()))
    streamer.start()
    discard = True
    try:
        while True:
            try:
                msg = req_conn.recv()
            except (EOFError, OSError):
                break  # parent died: exit rather than run orphaned
            tag = msg[0]
            if tag == "req":
                for rid, logical_id, attempt, payload in msg[1]:
                    request = Request(payload=payload, generated_at=clock.now())
                    request.request_id = rid
                    request.logical_id = logical_id
                    request.attempt = attempt
                    request.server_id = server_id
                    request.sent_at = request.generated_at
                    if not runtime.submit(request):
                        streamer.respond(request)  # shed: owe a response
            elif tag == "obs":
                relay = TraceRelay()
                streamer.set_relay(relay)
                runtime.set_tracer(relay)
            elif tag == "stop":
                discard = bool(msg[1])
                break
    finally:
        try:
            runtime.shutdown(timeout=drain_timeout, discard_pending=discard)
        except Exception:
            pass
        streamer.stop()
        errors = list(runtime.errors)
        counts = injector.counts() if injector is not None else {}
        try:
            resp_conn.send(("bye", errors, counts))
        except Exception:
            pass
        resp_conn.close()


# -- parent side --------------------------------------------------------


class _QueueView:
    """Parent-side stand-in for a process replica's request queue.

    Satisfies the two queue reads the parent performs — ``len`` (the
    balancer/autoscaler depth signal, observability gauge) and
    ``snapshot`` — from the replica's last status heartbeat.
    """

    __slots__ = ("_handle",)

    def __init__(self, handle: "ProcessReplicaHandle") -> None:
        self._handle = handle

    def __len__(self) -> int:
        return self._handle.queue_depth

    def snapshot(self, now: Optional[float] = None) -> QueueSnapshot:
        return self._handle.queue_snapshot()


class ProcessReplicaHandle:
    """Parent-side proxy for one replica process.

    Presents the same surface the base transport expects of a
    threaded :class:`~repro.core.server.Server` — ``start`` /
    ``shutdown`` / ``busy_workers`` / ``alive_workers`` / ``errors`` /
    ``set_tracer`` — plus ``enqueue`` for the transport's submit path.
    Owns the replica's pipes, its sender thread (request batching) and
    reader thread (record ingestion), and the pending-request map used
    to resolve or fail in-flight work.
    """

    def __init__(
        self,
        transport: "ProcessTransport",
        server_id: int,
        app,
        execution: ExecutionConfig,
        n_threads: int,
        plan,
        seed: int,
        batching,
        queue_capacity: Optional[int],
    ) -> None:
        self._transport = transport
        self.server_id = server_id
        self._app = app
        self._execution = execution
        self._n_threads = n_threads
        self._plan = plan
        self._seed = seed
        self._batching = batching
        self._queue_capacity = queue_capacity
        self._ctx = multiprocessing.get_context(execution.start_method)
        self.process = None
        self.queue_view = _QueueView(self)
        self.clock_offset = 0.0
        # Send side: buffered request tuples + control frames, drained
        # by one sender thread into one pickle frame per wakeup.
        self._lock = threading.Lock()
        self._send_cond = threading.Condition(self._lock)
        self._buf_reqs: List[tuple] = []
        self._buf_ctrl: List[tuple] = []
        self._closing = False
        self._discard = False
        self._pending: Dict[int, Request] = {}
        # Status mirror (updated by each ingested heartbeat).
        self._depth = 0
        self._busy = 0
        self._alive = n_threads
        self._peak_depth = 0
        self._total_enqueued = 0
        self._total_shed = 0
        self._head_sojourn = 0.0
        self.fault_counts: Dict[str, int] = {}
        self.errors: List[str] = []
        self.dead = False
        self.crashed = False
        self._got_bye = False
        #: Set by the reader: the child's handshake arrived, or the
        #: pipe closed without one.
        self._ready = threading.Event()
        self._stopping = False
        self._shutdown_done = False
        self._shutdown_guard = threading.Lock()
        self._req_send = None
        self._resp_recv = None
        self._sender_thread: Optional[threading.Thread] = None
        self._reader_thread: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------
    def start(self) -> None:
        req_recv, req_send = self._ctx.Pipe(duplex=False)
        resp_recv, resp_send = self._ctx.Pipe(duplex=False)
        self._req_send = req_send
        self._resp_recv = resp_recv
        self.process = self._ctx.Process(
            target=_replica_main,
            args=(
                req_recv,
                resp_send,
                self._app,
                self._n_threads,
                self._plan,
                self._seed,
                self.server_id,
                self._batching,
                self._queue_capacity,
                self._execution.drain_timeout,
            ),
            name=f"tb-replica-{self.server_id}",
            daemon=True,
        )
        self.process.start()
        _live_processes.add(self.process)
        # Close the parent's copies of the child's pipe ends, so the
        # pipes deliver EOF when exactly one side goes away.
        req_recv.close()
        resp_send.close()
        self._sender_thread = threading.Thread(
            target=self._sender_loop,
            name=f"tb-proc-send-{self.server_id}",
            daemon=True,
        )
        self._reader_thread = threading.Thread(
            target=self._reader_loop,
            name=f"tb-proc-recv-{self.server_id}",
            daemon=True,
        )
        self._sender_thread.start()
        self._reader_thread.start()
        if self._transport._running:
            # Runtime scale-up: the caller may be the run's timer
            # thread, so do not wait for the handshake. Requests routed
            # here meanwhile sit in the pipe until the child reads
            # them; a child that never comes up fails them (reader).
            return
        # The run must not begin before its initial replicas are up.
        self._ready.wait(_READY_TIMEOUT)
        if self.dead or not self._ready.is_set():
            self.process.terminate()
            raise RuntimeError(
                f"replica process {self.server_id} failed to start"
            )

    def shutdown(
        self, timeout: float = 30.0, discard_pending: bool = False
    ) -> None:
        """Stop the replica process and join it (idempotent)."""
        with self._shutdown_guard:
            if self._shutdown_done:
                return
            self._shutdown_done = True
        self._stopping = True
        with self._send_cond:
            self._closing = True
            self._discard = discard_pending
            self._send_cond.notify()
        if self._sender_thread is not None:
            self._sender_thread.join(timeout=5.0)
        proc = self.process
        if proc is not None:
            proc.join(timeout=timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        try:
            self._req_send.close()
        except Exception:
            pass
        reader = self._reader_thread
        if reader is not None and reader is not threading.current_thread():
            reader.join(timeout=5.0)
        self.dead = True

    # -- server-facade surface used by the base transport --------------
    @property
    def busy_workers(self) -> int:
        return self._busy

    @property
    def alive_workers(self) -> int:
        return 0 if self.dead else self._alive

    @property
    def n_threads(self) -> int:
        return self._n_threads

    def set_tracer(self, tracer) -> None:
        """Ask the child to start relaying trace events."""
        with self._send_cond:
            if not self.dead and not self._closing:
                self._buf_ctrl.append(("obs",))
                self._send_cond.notify()

    # -- submit path ---------------------------------------------------
    def enqueue(self, request: Request) -> bool:
        """Buffer one request for the sender thread; False when dead."""
        with self._send_cond:
            if self.dead or self._closing:
                return False
            self._pending[request.request_id] = request
            self._buf_reqs.append(
                (
                    request.request_id,
                    request.logical_id,
                    request.attempt,
                    request.payload,
                )
            )
            self._send_cond.notify()
        return True

    def pop_pending(self, request_id: int) -> Optional[Request]:
        with self._lock:
            return self._pending.pop(request_id, None)

    def take_pending(self) -> List[Request]:
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        return pending

    @property
    def exited_uncleanly(self) -> bool:
        """The child went away without a ``bye`` and nobody asked it to."""
        return not self._got_bye and not self._stopping

    def mark_dead(self, crash: bool) -> bool:
        """Latch the handle dead; True for the first caller only."""
        with self._lock:
            first = not self.dead
            self.dead = True
            self.crashed = self.crashed or crash
        return first

    # -- status mirror -------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return self._depth

    def queue_snapshot(self) -> QueueSnapshot:
        return QueueSnapshot(
            depth=self._depth,
            peak_depth=self._peak_depth,
            total_enqueued=self._total_enqueued,
            total_shed=self._total_shed,
            head_sojourn=self._head_sojourn,
        )

    def update_status(self, status: tuple) -> None:
        (
            self._depth,
            self._busy,
            self._alive,
            self._peak_depth,
            self._total_enqueued,
            self._total_shed,
            self._head_sojourn,
            counts,
        ) = status
        if counts:
            self.fault_counts = counts

    # -- threads -------------------------------------------------------
    def _sender_loop(self) -> None:
        while True:
            with self._send_cond:
                while (
                    not self._buf_reqs
                    and not self._buf_ctrl
                    and not self._closing
                ):
                    self._send_cond.wait()
                batch, self._buf_reqs = self._buf_reqs, []
                ctrl, self._buf_ctrl = self._buf_ctrl, []
                closing = self._closing
            try:
                for frame in ctrl:
                    self._req_send.send(frame)
                if batch:
                    self._req_send.send(("req", batch))
                if closing:
                    self._req_send.send(("stop", self._discard))
                    return
            except Exception:
                # Request pipe broken mid-run: the child is gone (or
                # wedged); surface every in-flight request as a
                # transport error rather than hanging the drain.
                self._transport._on_child_failure(self)
                return

    def _reader_loop(self) -> None:
        conn = self._resp_recv
        if not conn.poll(_READY_TIMEOUT):
            # Never came up: the EOF this forces fails its work below.
            self.process.terminate()
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            tag = msg[0]
            if tag == "recs":
                self._transport._ingest(self, msg[1], msg[2], msg[3])
            elif tag == "ready":
                self.clock_offset = self._transport._clock.now() - msg[1]
                self._ready.set()
            elif tag == "bye":
                self._got_bye = True
                self.errors.extend(
                    e for e in msg[1] if e not in self.errors
                )
                if msg[2]:
                    self.fault_counts = msg[2]
        try:
            conn.close()
        except Exception:
            pass
        if self.exited_uncleanly:
            self._transport._on_child_failure(self)
        else:
            self.dead = True
        self._ready.set()


class ProcessTransport(Transport):
    """Integrated-shape transport with process-sharded replicas.

    Client side (shaper, balancer, health, resilience, stats) is
    unchanged from :class:`IntegratedTransport`; each replica's queue
    and worker pool run in a child OS process, so aggregate throughput
    scales with cores instead of being GIL-capped.
    """

    def __init__(
        self, clock, execution: Optional[ExecutionConfig] = None
    ) -> None:
        super().__init__(clock)
        self._execution = (
            execution
            if execution is not None
            else ExecutionConfig(mode="process")
        )
        self._reapers: List[threading.Thread] = []

    # -- replica construction ------------------------------------------
    def _build_instance(self, server_id: int) -> ServerInstance:
        injector = self._injector
        plan = getattr(injector, "plan", None) if injector is not None else None
        if plan is not None and not plan.applies_to(server_id):
            # Server-side faults scoped elsewhere: the child needs no
            # injector at all (transport faults stay parent-side).
            plan = None
        handle = ProcessReplicaHandle(
            self,
            server_id,
            _replicate_app(self._app, server_id),
            self._execution,
            n_threads=self._n_threads,
            plan=plan,
            seed=getattr(injector, "seed", 0) if injector is not None else 0,
            batching=self._batching,
            queue_capacity=self._queue_capacity,
        )
        instance = ServerInstance(server_id, handle.queue_view, handle)
        instance.started_at = self._clock.now()
        return instance

    def _start_impl(self) -> None:
        _install_sigterm_reaper()

    def _stop_impl(self) -> None:
        for reaper in self._reapers:
            reaper.join(timeout=self._execution.drain_timeout)
        self._reapers = []
        # Anything still pending at stop (post-drain stragglers) is
        # dropped with its replica, matching threaded discard semantics.
        for instance in self._instances:
            instance.server.take_pending()

    # -- submit path ---------------------------------------------------
    def _submit(self, request: Request) -> None:
        server_id = request.server_id if request.server_id is not None else 0
        handle = self._instances[server_id].server
        if not handle.enqueue(request):
            request.error = "replica process is not running"
            self._on_response(request)

    # -- ingestion (reader threads) -------------------------------------
    def _ingest(
        self,
        handle: ProcessReplicaHandle,
        records: List[tuple],
        status: tuple,
        events: List[tuple],
    ) -> None:
        handle.update_status(status)
        if events:
            replay_events(
                self._tracer, events, handle.clock_offset, handle.server_id
            )
        if not records:
            return
        now = self._clock.now()
        for rec in records:
            request = handle.pop_pending(rec[0])
            if request is None:
                continue  # already failed by a crash sweep
            self._apply_record(request, rec, now)
            if request.error is not None and request.error not in handle.errors:
                handle.errors.append(request.error)
            self._on_response(request)

    @staticmethod
    def _apply_record(request: Request, rec: tuple, now: float) -> None:
        """Rebuild the timestamp chain from child-reported durations.

        Anchored at receipt on the parent clock: no child-clock
        absolute ever enters the chain, so sojourn/latency percentiles
        are free of cross-process clock skew. Clamped at ``sent_at`` to
        keep the chain monotone.
        """
        _, shed, error, response, queue_time, service_time, batch_size = rec
        request.shed = bool(shed)
        request.error = error
        request.response = response
        request.batch_size = batch_size if batch_size else 1
        if shed:
            return  # truncated chain, same as a threaded shed
        if service_time is None and queue_time is None:
            return
        end = now
        start = end - max(service_time or 0.0, 0.0)
        enqueued = start - max(queue_time or 0.0, 0.0)
        floor = request.sent_at if request.sent_at is not None else enqueued
        enqueued = max(enqueued, floor)
        start = max(start, enqueued)
        end = max(end, start)
        request.enqueued_at = enqueued
        request.service_start_at = start
        request.service_end_at = end

    # -- failure handling ----------------------------------------------
    def _on_child_failure(self, handle: ProcessReplicaHandle) -> None:
        """A replica process died or its pipe broke: fail its work.

        Both the sender thread (broken request pipe) and the reader
        thread (response-pipe EOF) land here, in either order. Crash or
        not is decided from the handle's own evidence — no ``bye``, no
        shutdown in progress — never from which thread noticed first,
        so the error text and ``child_crashes`` do not depend on the
        race between them.
        """
        crash = handle.exited_uncleanly
        reason = (
            "replica process crashed"
            if crash
            else "replica request pipe closed"
        )
        if handle.mark_dead(crash) and self._tracer is not None:
            self._tracer.emit(
                "fault_crash",
                self._clock.now(),
                server_id=handle.server_id,
            )
        for request in handle.take_pending():
            if request.error is None:
                request.error = reason
            self._on_response(request)

    # -- drain-aware reaping --------------------------------------------
    def drain_server(self):
        server_id = super().drain_server()
        if server_id is not None:
            with self._lock:
                instance = self._instances[server_id]
                idle = instance.outstanding <= 0
            if idle:
                # Already idle at drain time: no completion will ever
                # arrive to fire the drained hook, so reap now.
                self._instance_drained(instance)
        return server_id

    def _instance_drained(self, instance: ServerInstance) -> None:
        """Scale-down completion: join the child inside the deadline."""
        handle = instance.server
        reaper = threading.Thread(
            target=handle.shutdown,
            kwargs={
                "timeout": self._execution.drain_timeout,
                "discard_pending": False,
            },
            name=f"tb-proc-reap-{instance.server_id}",
            daemon=True,
        )
        reaper.start()
        with self._lock:
            self._reapers.append(reaper)

    # -- aggregation ----------------------------------------------------
    def child_fault_counts(self) -> Dict[str, int]:
        """Summed fault counts reported by the replica processes.

        The parent injector only exercises its transport streams in
        process mode; worker/app faults happen in the children, whose
        injectors report here (via status heartbeats and the final
        ``bye``). The harness merges this into the run's fault counts.
        """
        totals: Dict[str, int] = {}
        crashes = 0
        for instance in self._instances:
            handle = instance.server
            for key, value in handle.fault_counts.items():
                totals[key] = totals.get(key, 0) + value
            if handle.crashed:
                crashes += 1
        if crashes:
            totals["child_crashes"] = totals.get("child_crashes", 0) + crashes
        return totals
