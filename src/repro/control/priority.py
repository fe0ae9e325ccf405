"""Request classification for priority scheduling.

The classifier assigns each outgoing request to one of the configured
:class:`~repro.control.config.RequestClassSpec` classes by its traffic
fraction, from a seeded stream — so a 90/10 latency-critical/batch
split is reproducible run to run, and the simulator's virtual-time
replay classifies the identical sequence of requests identically.
"""

from __future__ import annotations

import random
import threading
from typing import Optional

from ..core.scheduler import locked
from .config import PriorityConfig

__all__ = ["ClassAssigner"]


class ClassAssigner:
    """Seeded, thread-safe traffic splitter over the configured classes."""

    def __init__(self, config: PriorityConfig, seed: int = 0) -> None:
        self._specs = config.classes
        self._rng = random.Random(seed ^ 0xC1A55)
        #: Guards the draw; set by the plane from the run's driver
        #: (:meth:`~repro.control.plane.ControlPlane.take_locks`).
        self.lock: Optional[threading.Lock] = threading.Lock()
        # Pre-compute the cumulative fraction boundaries once.
        self._bounds = []
        acc = 0.0
        for spec in self._specs:
            acc += spec.fraction
            self._bounds.append(acc)

    def classify(self, request) -> None:
        """Stamp ``priority`` and ``request_class`` onto one request."""
        u = locked(self.lock, self._rng.random)
        for bound, spec in zip(self._bounds, self._specs):
            if u < bound:
                request.priority = spec.priority
                request.request_class = spec.name
                return
        last = self._specs[-1]
        request.priority = last.priority
        request.request_class = last.name
