"""Seeded fault sampling shared by live runs and simulation.

The :class:`FaultInjector` turns a declarative
:class:`~repro.faults.plan.FaultPlan` into concrete per-event
decisions. Each injection layer draws from its own independent random
stream (derived from the injector seed by hashing the layer name), so
enabling one fault class never perturbs the decisions of another —
the property that makes ablation experiments ("same run, drops only")
meaningful.

Decisions are consumed in call order. The discrete-event simulator is
single-threaded, so two simulated runs with the same plan and seed
make byte-identical decisions; live runs are thread-safe and
statistically faithful to the plan's rates.
"""

from __future__ import annotations

import hashlib
import random
import threading
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Tuple

from .plan import FaultPlan

if TYPE_CHECKING:
    from .scenario import Scenario

__all__ = ["FaultInjector", "INJECTED_APP_ERROR", "TransportAction"]

#: ``Request.error`` of an attempt the plan failed at the application
#: layer — the same text from the live server and the simulated one.
INJECTED_APP_ERROR = "injected application error"


class _ServerView:
    """One replica's queue/worker/application decisions, scope re-checked.

    What :meth:`FaultInjector.for_server` hands a replica the active
    plan does not, or may not always, target: under a scenario the plan
    — and with it the target set — changes at phase boundaries, so the
    view consults ``injector.plan`` per decision. An out-of-scope call
    says "no fault" without consuming a random draw, so scoping a plan
    to one replica never perturbs the others' decision streams.
    Transport faults model the shared wire and are applied before
    routing, so they are not part of this surface.
    """

    __slots__ = ("_injector", "_server_id")

    def __init__(self, injector: "FaultInjector", server_id: int) -> None:
        self._injector = injector
        self._server_id = server_id

    def queue_stall_remaining(self, now: float) -> float:
        if not self._injector.plan.applies_to(self._server_id):
            return 0.0
        return self._injector.queue_stall_remaining(now)

    def worker_pause(self) -> float:
        if not self._injector.plan.applies_to(self._server_id):
            return 0.0
        return self._injector.worker_pause()

    def worker_crash(self) -> bool:
        if not self._injector.plan.applies_to(self._server_id):
            return False
        return self._injector.worker_crash()

    def app_error(self) -> bool:
        if not self._injector.plan.applies_to(self._server_id):
            return False
        return self._injector.app_error()


class TransportAction(NamedTuple):
    """The transport layer's verdict for one message."""

    drop: bool = False
    duplicate: bool = False
    extra_delay: float = 0.0


#: The two verdicts that carry nothing of the plan: built once.
_DELIVER = TransportAction()
_DROP = TransportAction(drop=True)


def _derive_seed(seed: int, layer: str) -> int:
    digest = hashlib.blake2b(
        f"{seed}/{layer}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class FaultInjector:
    """Stateful, thread-safe sampler over a :class:`FaultPlan`.

    Every decision reads ``self.plan`` per call, so swapping the plan at
    a scenario's phase boundary (:meth:`advance_to`) retargets what
    follows without touching the per-layer random streams — a phase's
    draws are the same ones the equivalent fixed plan would have made.
    Each draw is one call of a seeded generator, atomic under the GIL,
    so draws take no lock; only bumping a count when a fault fires
    does, under :attr:`lock`.

    Parameters
    ----------
    plan:
        The faults to inject; with a ``scenario``, the standing plan
        its phases overlay (may be None).
    seed:
        Root seed; per-layer streams are derived from it.
    scenario:
        Optional :class:`~repro.faults.scenario.Scenario` whose
        timeline the active plan follows.
    """

    _LAYERS = ("transport", "worker", "app")

    def __init__(
        self,
        plan: Optional[FaultPlan],
        seed: int = 0,
        scenario: Optional["Scenario"] = None,
    ) -> None:
        self.base = plan
        self.scenario = scenario
        self.plan = plan if scenario is None else scenario.plan_at(0.0, plan)
        self.seed = seed
        self._rngs = {
            layer: random.Random(_derive_seed(seed, layer))
            for layer in self._LAYERS
        }
        #: Guards the fired-fault counts. The run's driver replaces it
        #: (``RunParts.wire``, via
        #: :func:`~repro.core.scheduler.lock_for`): None in a simulated
        #: run, whose one thread is the only writer.
        self.lock: Optional[threading.Lock] = threading.Lock()
        self._run_start = 0.0
        self._counts: Dict[str, int] = {
            "drops": 0,
            "delays": 0,
            "duplicates": 0,
            "pauses": 0,
            "crashes": 0,
            "app_errors": 0,
        }
        if scenario is not None:
            self._counts["phase_changes"] = 0

    # -- lifecycle -----------------------------------------------------
    def start_run(self, start_time: float) -> None:
        """Anchor stall windows to the run's start instant."""
        self._run_start = start_time

    def boundaries(self) -> Tuple[float, ...]:
        """Run offsets at which :meth:`advance_to` is due, ascending."""
        return () if self.scenario is None else self.scenario.boundaries()

    def advance_to(self, offset: float) -> None:
        """Install the plan active at ``offset`` (a phase boundary)."""
        self.plan = self.scenario.plan_at(offset, self.base)
        self._fired("phase_changes")

    def for_server(self, server_id: int):
        """Server-side decision surface for one instance.

        The injector itself — no indirection — when the plan cannot
        change and targets the instance; otherwise a view that checks
        the active plan's scope on every call. Counts and random
        streams are shared either way.
        """
        if self.scenario is None and self.plan.applies_to(server_id):
            return self
        return _ServerView(self, server_id)

    def counts(self) -> Dict[str, int]:
        """Snapshot of how many faults actually fired."""
        return dict(self._counts)

    def _fired(self, kind: str) -> None:
        """Count one fault of ``kind`` that fired."""
        lock = self.lock
        if lock is None:
            self._counts[kind] += 1
        else:
            with lock:
                self._counts[kind] += 1

    def register_metrics(self, registry) -> None:
        """Expose fired-fault tallies as callback gauges.

        One ``tb_faults_total{kind=...}`` gauge per fault class, read
        lazily at sample time — the injection hot paths are untouched.
        """
        for kind in self._counts:
            registry.gauge(
                "tb_faults_total",
                help="Injected faults fired, by kind",
                fn=(lambda k=kind: self._counts[k]),
                kind=kind,
            )

    # -- transport layer -----------------------------------------------
    def transport_action(self) -> TransportAction:
        plan = self.plan
        if (
            plan.drop_rate == 0.0
            and plan.delay_rate == 0.0
            and plan.duplicate_rate == 0.0
        ):
            return _DELIVER
        draw = self._rngs["transport"].random
        if plan.drop_rate and draw() < plan.drop_rate:
            self._fired("drops")
            return _DROP
        rate = plan.duplicate_rate
        duplicate = draw() < rate if rate else False
        rate = plan.delay_rate
        delayed = draw() < rate if rate else False
        if not (duplicate or delayed):
            return _DELIVER
        if delayed:
            self._fired("delays")
        if duplicate:
            self._fired("duplicates")
        return TransportAction(
            duplicate=duplicate, extra_delay=plan.delay if delayed else 0.0
        )

    # -- queue layer ---------------------------------------------------
    def queue_stall_remaining(self, now: float) -> float:
        """Seconds of stall left at ``now`` (0.0 when dequeue may run)."""
        offset = now - self._run_start
        for window in self.plan.queue_stalls:
            if window.start <= offset < window.end:
                return window.end - offset
        return 0.0

    # -- worker layer --------------------------------------------------
    def worker_pause(self) -> float:
        """Pause duration to impose before serving (0.0 = none)."""
        plan = self.plan
        rate = plan.worker_pause_rate
        if rate and self._rngs["worker"].random() < rate:
            self._fired("pauses")
            return plan.worker_pause
        return 0.0

    def worker_crash(self) -> bool:
        """Whether the worker dies after the request it just finished."""
        rate = self.plan.worker_crash_rate
        if rate and self._rngs["worker"].random() < rate:
            self._fired("crashes")
            return True
        return False

    # -- application layer ---------------------------------------------
    def app_error(self) -> bool:
        """Whether this request fails with :data:`INJECTED_APP_ERROR`."""
        rate = self.plan.error_rate
        if rate and self._rngs["app"].random() < rate:
            self._fired("app_errors")
            return True
        return False
