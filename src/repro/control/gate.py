"""Per-server admission gate: the data-plane end of admission control.

The gate sits on the queue's ``put`` path (live) / arrival event (sim)
and answers one question per arrival: *admit or shed?* It holds two
pieces of controller-owned state:

- the **AIMD concurrency limit** — arrivals finding ``depth >= limit``
  are shed (``drop_limit``);
- the **CoDel drop state** — while the controller holds the gate in
  the dropping state (head-of-line sojourn above target for a full
  interval), arrivals are shed with the classic CoDel spacing,
  ``interval / sqrt(drop_count)``, so the shed rate ramps up the
  longer the queue stays bad (``drop_codel``).

The gate itself never reads queues or metrics — the
:class:`~repro.control.controllers.AdmissionController` updates it on
every control tick. Decisions are pure functions of (now, depth,
gate state), so the simulator replays them deterministically.
"""

from __future__ import annotations

import math
import threading
from typing import Optional

from ..core.scheduler import NO_LOCK, locked
from .config import AdmissionConfig

__all__ = ["AdmissionGate"]


class AdmissionGate:
    """Admit/shed decision point for one server instance."""

    def __init__(
        self,
        config: AdmissionConfig,
        server_id: int = 0,
        tracer=None,
    ) -> None:
        self._config = config
        self.server_id = server_id
        self._tracer = tracer
        #: Guards the decision state; set by the plane from the run's
        #: driver (:meth:`~repro.control.plane.ControlPlane.take_locks`).
        self.lock: Optional[threading.Lock] = threading.Lock()
        self._limit = config.initial_limit
        self._dropping = False
        self._drop_next = 0.0
        self._drop_count = 0
        self.admitted = 0
        self.codel_dropped = 0
        self.limit_dropped = 0

    @property
    def limit(self) -> int:
        """Current AIMD depth limit."""
        return self._limit

    @property
    def dropping(self) -> bool:
        """True while the CoDel drop state is active."""
        return self._dropping

    # -- data plane (queue put path) -----------------------------------
    def admit(self, now: float, depth: int, request=None) -> bool:
        """Decide one arrival; True admits, False sheds.

        ``depth`` is the queue depth the arrival would join; the caller
        owes the client a shed response when False comes back (the
        queue marks the request shed, same contract as capacity
        shedding).
        """
        verdict = locked(self.lock, self._decide_locked, now, depth)
        if self._tracer is not None:
            self._tracer.emit(
                verdict,
                now,
                logical_id=getattr(request, "logical_id", None),
                request_id=getattr(request, "request_id", None),
                attempt=getattr(request, "attempt", None),
                server_id=self.server_id,
            )
        return verdict == "admit"

    def _decide_locked(self, now: float, depth: int) -> str:
        if depth >= self._limit:
            self.limit_dropped += 1
            return "drop_limit"
        if self._dropping and now >= self._drop_next:
            self._drop_count += 1
            self._drop_next = now + self._config.codel_interval / math.sqrt(
                self._drop_count
            )
            self.codel_dropped += 1
            return "drop_codel"
        self.admitted += 1
        return "admit"

    # -- control plane (controller tick path) --------------------------
    def set_limit(self, limit: int, now: float) -> None:
        """Install a new AIMD limit (clamped to the configured band)."""
        limit = max(self._config.min_limit, min(self._config.max_limit, limit))
        with self.lock or NO_LOCK:
            changed = limit != self._limit
            self._limit = limit
        if changed and self._tracer is not None:
            self._tracer.emit(
                "limit_update", now, server_id=self.server_id,
                value=float(limit),
            )

    def set_dropping(self, dropping: bool, now: float) -> None:
        """Enter or leave the CoDel drop state.

        Entering arms an immediate first drop (``drop_next = now``),
        per CoDel: once the interval-long grace period has already
        passed, shedding starts without further delay.
        """
        with self.lock or NO_LOCK:
            if dropping and not self._dropping:
                self._dropping = True
                self._drop_count = 0
                self._drop_next = now
            elif not dropping and self._dropping:
                self._dropping = False

    def counts(self) -> dict:
        """Lifetime decision tallies (admitted / per-cause drops)."""
        with self.lock or NO_LOCK:
            return {
                "admitted": self.admitted,
                "codel_dropped": self.codel_dropped,
                "limit_dropped": self.limit_dropped,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AdmissionGate(server={self.server_id}, limit={self._limit}, "
            f"dropping={self._dropping})"
        )
