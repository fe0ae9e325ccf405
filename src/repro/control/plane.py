"""The control plane: controllers bound to one serving stack.

:class:`ControlPlane` is the façade both execution modes share. It
owns the per-server :class:`~repro.control.gate.AdmissionGate`
objects, the request classifier, the windowed sojourn reservoir the
AIMD limiter reads, and the controller set; the harness and the
simulator both bind it to a :class:`TransportControlTarget` over their
transport. Controllers only ever see the :class:`ControlTarget`
interface, so live and simulated control decisions run the identical
code.

Signal flow per tick::

    queue snapshots ---\\
    busy/alive gauges ---> Controller.tick(now) --> gate limits,
    windowed p99 ------/                            drop states,
                                                    scale up/down

Every actuation emits a trace point event (``limit_update``,
``scale_up``, ``scale_down``; the gate emits ``admit`` /
``drop_codel`` / ``drop_limit`` per decision) through the
:mod:`repro.obs` tracer when one is installed, so controlled runs are
fully auditable from the trace alone.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from ..core.queueing import FifoBuffer, PriorityBuffer, QueueSnapshot
from ..core.scheduler import NO_LOCK, lock_for, locked
from ..stats import percentile
from .config import ControlPlaneConfig
from .controllers import AdmissionController, AutoscaleController, Controller
from .gate import AdmissionGate
from .priority import ClassAssigner

__all__ = ["ControlTarget", "ControlPlane", "TransportControlTarget"]


class ControlTarget:
    """What a serving stack must expose to be controlled.

    Implemented by :class:`TransportControlTarget` over any transport,
    wall-clock or simulated — controllers are written against this
    interface only.
    """

    def active_servers(self) -> List[int]:
        """Ids of replicas currently accepting new work."""
        raise NotImplementedError

    def queue_snapshot(self, server_id: int, now: float) -> QueueSnapshot:
        """One replica's queue state (see :class:`QueueSnapshot`)."""
        raise NotImplementedError

    def server_load(self, server_id: int) -> Tuple[int, int, int]:
        """``(queue_depth, busy_workers, worker_count)`` for one replica."""
        raise NotImplementedError

    def gate(self, server_id: int) -> Optional[AdmissionGate]:
        """The replica's admission gate (None when admission is off)."""
        raise NotImplementedError

    def scale_up(self) -> Optional[int]:
        """Add a replica; returns its id (None when impossible)."""
        raise NotImplementedError

    def scale_down(self) -> Optional[int]:
        """Drain one replica; returns its id (None when impossible)."""
        raise NotImplementedError


#: Offsets the request classifier's random stream from the run seed.
_CLASSIFIER_SALT = 0x0C7A1


class ControlPlane:
    """Controllers + gates + classifier for one run."""

    def __init__(
        self,
        config: ControlPlaneConfig,
        seed: int = 0,
        tracer=None,
    ) -> None:
        if not config.enabled:
            raise ValueError("ControlPlane requires an enabled config")
        self.config = config
        self._tracer = tracer
        self._gates: Dict[int, AdmissionGate] = {}
        #: Guards the gates and the completion window; with the
        #: classifier's and every gate's, taken from the run's driver by
        #: :meth:`take_locks`.
        self.lock: Optional[threading.Lock] = threading.Lock()
        self._scheduler = None
        self._assigner = (
            ClassAssigner(config.priority, seed=seed ^ _CLASSIFIER_SALT)
            if config.priority is not None
            else None
        )
        self._window: List[float] = []
        self._target: Optional[ControlTarget] = None
        self._controllers: List[Controller] = []
        self._admission: Optional[AdmissionController] = None
        self._autoscaler: Optional[AutoscaleController] = None
        self.ticks = 0
        #: Per-tick trajectory: (now, aimd_limit_or_None, active_replicas).
        self.history: List[Tuple[float, Optional[int], int]] = []

    # -- wiring --------------------------------------------------------
    def take_locks(self, scheduler) -> None:
        """Take every lock of the plane — its own, the classifier's and
        each gate's, those built later included — from the run's driver
        (:func:`~repro.core.scheduler.lock_for`): none under the
        simulator's engine."""
        self._scheduler = scheduler
        self.lock = lock_for(scheduler)
        if self._assigner is not None:
            self._assigner.lock = lock_for(scheduler)
        for gate in self._gates.values():
            gate.lock = lock_for(scheduler)

    def bind(self, target: ControlTarget) -> None:
        """Attach the plane to a serving stack and build controllers."""
        self._target = target
        self._controllers = []
        if self.config.admission is not None:
            self._admission = AdmissionController(
                self.config.admission, target, self
            )
            self._controllers.append(self._admission)
        if self.config.autoscaler is not None:
            self._autoscaler = AutoscaleController(
                self.config.autoscaler, target, tracer=self._tracer
            )
            self._controllers.append(self._autoscaler)

    def register_metrics(self, registry) -> None:
        """Expose control state as gauges next to the PR 3 metrics."""
        if registry is None:
            return
        registry.gauge(
            "tb_control_limit",
            help="Current AIMD admission limit (per-server depth bound)",
            fn=(lambda: self._admission.limit if self._admission else 0),
        )
        registry.gauge(
            "tb_active_servers",
            help="Replicas currently accepting new work",
            fn=(
                lambda: len(self._target.active_servers())
                if self._target is not None
                else 0
            ),
        )
        registry.gauge(
            "tb_control_ticks",
            help="Control loop ticks executed",
            fn=(lambda: self.ticks),
        )

    def gate_for(self, server_id: int) -> Optional[AdmissionGate]:
        """Get-or-create the admission gate of one server instance."""
        if self.config.admission is None:
            return None
        with self.lock or NO_LOCK:
            gate = self._gates.get(server_id)
            if gate is None:
                gate = AdmissionGate(
                    self.config.admission, server_id=server_id,
                    tracer=self._tracer,
                )
                gate.lock = lock_for(self._scheduler)
                self._gates[server_id] = gate
                if self._admission is not None:
                    gate.set_limit(self._admission.limit, 0.0)
            return gate

    def make_buffer(self):
        """Queue discipline for a (new) server instance's request queue."""
        priority = self.config.priority
        if priority is None:
            return FifoBuffer()
        return PriorityBuffer(
            mode=priority.mode,
            weights=priority.weights() if priority.mode == "weighted" else None,
        )

    def classify(self, request) -> None:
        """Send feed (priority classes only): stamp class and priority."""
        self._assigner.classify(request)

    # -- signals -------------------------------------------------------
    def observe_sojourn(self, request) -> None:
        """Completion feed (admission only): a good answer's sojourn.

        End-to-end sojourn goes into the AIMD window — the latency
        definition the run's p99 SLO is stated against. Only the
        admission controller's tick drains the window, so a run
        without admission must not feed it.
        """
        if request.error is None and not request.shed:
            locked(
                self.lock, self._window_append,
                request.response_received_at - request.generated_at,
            )

    def _window_append(self, sojourn: float) -> None:
        # ``_window`` is read under the lock: ``window_p99`` swaps it.
        self._window.append(sojourn)

    def window_p99(self) -> Optional[float]:
        """Drain the completion window; p99 of it (None when empty)."""
        with self.lock or NO_LOCK:
            window, self._window = self._window, []
        if not window:
            return None
        return percentile(window, 99.0)

    # -- the control tick ----------------------------------------------
    def tick(self, now: float) -> None:
        """Run every controller once; called at the fixed cadence."""
        if self._target is None:
            raise RuntimeError("control plane not bound to a target")
        self.ticks += 1
        for controller in self._controllers:
            controller.tick(now)
        self.history.append(
            (
                now,
                self._admission.limit if self._admission else None,
                len(self._target.active_servers()),
            )
        )

    def counts(self) -> Dict[str, int]:
        """Aggregate control-plane tallies for run results."""
        out: Dict[str, int] = {"ticks": self.ticks}
        with self.lock or NO_LOCK:
            gates = list(self._gates.values())
        if gates:
            for key in ("admitted", "codel_dropped", "limit_dropped"):
                out[key] = sum(gate.counts()[key] for gate in gates)
        if self._admission is not None:
            out["final_limit"] = self._admission.limit
        if self._autoscaler is not None:
            out["scale_ups"] = self._autoscaler.scale_ups
            out["scale_downs"] = self._autoscaler.scale_downs
        if self._target is not None:
            out["active_servers"] = len(self._target.active_servers())
        return out


class TransportControlTarget(ControlTarget):
    """Bind the control plane to a transport, live or simulated.

    Thin adapter: every signal read goes straight to the transport's
    instances (the same objects the :mod:`repro.obs` gauges observe),
    and scaling actions call the transport's runtime-membership API.
    """

    def __init__(self, transport, plane: ControlPlane) -> None:
        self._transport = transport
        self._plane = plane

    def active_servers(self) -> List[int]:
        return self._transport.active_server_ids()

    def queue_snapshot(self, server_id: int, now: float) -> QueueSnapshot:
        return self._transport.instances[server_id].queue.snapshot(now)

    def server_load(self, server_id: int) -> Tuple[int, int, int]:
        instance = self._transport.instances[server_id]
        server = instance.server
        return (len(instance.queue), server.busy_workers, server.alive_workers)

    def gate(self, server_id: int) -> Optional[AdmissionGate]:
        return self._plane.gate_for(server_id)

    def scale_up(self) -> Optional[int]:
        return self._transport.add_server()

    def scale_down(self) -> Optional[int]:
        return self._transport.drain_server()
