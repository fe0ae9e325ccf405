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
from typing import Dict, NamedTuple

from .plan import FaultPlan

__all__ = ["FaultInjector", "INJECTED_APP_ERROR", "TransportAction"]

#: ``Request.error`` of an attempt the plan failed at the application
#: layer — the same text from the live server and the simulated one.
INJECTED_APP_ERROR = "injected application error"


class _NullServerInjector:
    """Server-side injector view for instances outside a plan's scope.

    Implements the queue/worker/application decision surface only —
    transport faults model the shared wire and are applied before
    routing, so a scoped-out server never sees this object on that
    path.
    """

    def queue_stall_remaining(self, now: float) -> float:
        return 0.0

    def worker_pause(self) -> float:
        return 0.0

    def worker_crash(self) -> bool:
        return False

    def app_error(self) -> bool:
        return False


class TransportAction(NamedTuple):
    """The transport layer's verdict for one message."""

    drop: bool = False
    duplicate: bool = False
    extra_delay: float = 0.0


_DELIVER = TransportAction()


def _derive_seed(seed: int, layer: str) -> int:
    digest = hashlib.blake2b(
        f"{seed}/{layer}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class FaultInjector:
    """Stateful, thread-safe sampler over a :class:`FaultPlan`.

    Parameters
    ----------
    plan:
        The faults to inject.
    seed:
        Root seed; per-layer streams are derived from it.
    """

    _LAYERS = ("transport", "worker", "app")

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        self.plan = plan
        self.seed = seed
        self._rngs = {
            layer: random.Random(_derive_seed(seed, layer))
            for layer in self._LAYERS
        }
        self._lock = threading.Lock()
        self._run_start = 0.0
        self._counts: Dict[str, int] = {
            "drops": 0,
            "delays": 0,
            "duplicates": 0,
            "pauses": 0,
            "crashes": 0,
            "app_errors": 0,
        }

    # -- lifecycle -----------------------------------------------------
    def start_run(self, start_time: float) -> None:
        """Anchor stall windows to the run's start instant."""
        self._run_start = start_time

    def for_server(self, server_id: int):
        """Server-side view of this injector for one instance.

        When the plan's ``server_ids`` covers the instance (or targets
        all servers), the injector itself is returned — counts and
        random streams stay shared. Otherwise a null view is returned
        whose server-side decisions always say "no fault", without
        consuming any random draws, so scoping a plan to one replica
        never perturbs the others' decision streams.
        """
        if self.plan.applies_to(server_id):
            return self
        return _NullServerInjector()

    def counts(self) -> Dict[str, int]:
        """Snapshot of how many faults actually fired."""
        with self._lock:
            return dict(self._counts)

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
        with self._lock:
            rng = self._rngs["transport"]
            if plan.drop_rate and rng.random() < plan.drop_rate:
                self._counts["drops"] += 1
                return TransportAction(drop=True)
            duplicate = bool(
                plan.duplicate_rate and rng.random() < plan.duplicate_rate
            )
            extra_delay = 0.0
            if plan.delay_rate and rng.random() < plan.delay_rate:
                extra_delay = plan.delay
                self._counts["delays"] += 1
            if duplicate:
                self._counts["duplicates"] += 1
            return TransportAction(duplicate=duplicate, extra_delay=extra_delay)

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
        if plan.worker_pause_rate == 0.0:
            return 0.0
        with self._lock:
            if self._rngs["worker"].random() < plan.worker_pause_rate:
                self._counts["pauses"] += 1
                return plan.worker_pause
        return 0.0

    def worker_crash(self) -> bool:
        """Whether the worker dies after the request it just finished."""
        plan = self.plan
        if plan.worker_crash_rate == 0.0:
            return False
        with self._lock:
            if self._rngs["worker"].random() < plan.worker_crash_rate:
                self._counts["crashes"] += 1
                return True
        return False

    # -- application layer ---------------------------------------------
    def app_error(self) -> bool:
        """Whether this request fails with :data:`INJECTED_APP_ERROR`."""
        plan = self.plan
        if plan.error_rate == 0.0:
            return False
        with self._lock:
            if self._rngs["app"].random() < plan.error_rate:
                self._counts["app_errors"] += 1
                return True
        return False
