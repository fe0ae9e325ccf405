"""The caching tier's front door: thread-safe, counted, traced.

:class:`RequestCache` is the one object the serving paths talk to. The
live harness shares a single instance across every replica's worker
threads (one lock, uncontended at benchmark thread counts); the
simulator drives the same instance from its single-threaded event loop
in virtual time, without the lock. Policy mechanics live behind
:class:`~repro.cache.policies.CachePolicy`; this layer adds:

- hit/miss/expiry/eviction counters and the derived hit rate,
- ``cache_hit`` / ``cache_miss`` / ``cache_evict`` / ``cache_expire``
  trace events (plus ``cache_clear`` at a cold restart),
- the cold-restart model: ``clear_at`` seconds after the run origin,
  the first access wipes the cache — the "redeploy with an empty
  cache" failure mode whose p99 spike ``fig-cache`` reproduces,
- metrics-registry wiring (hit-rate gauge, occupancy histogram).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Hashable, Optional, Tuple

from ..core.scheduler import locked
from .policies import CachePolicy, EXPIRED, HIT

__all__ = ["RequestCache"]


class RequestCache:
    """Thread-safe counting/tracing front over one :class:`CachePolicy`."""

    def __init__(
        self,
        policy: CachePolicy,
        hit_cost: float = 0.0,
        clear_at: Optional[float] = None,
        tracer=None,
    ) -> None:
        if hit_cost < 0:
            raise ValueError("hit_cost must be >= 0")
        self._policy = policy
        #: Service time a hit charges instead of the application call.
        self.hit_cost = hit_cost
        self._clear_at = clear_at
        self._cleared = False
        self._origin = 0.0
        self._tracer = tracer
        #: Guards the policy and the counters. The run's driver
        #: replaces it (``RunParts.wire``, via
        #: :func:`~repro.core.scheduler.lock_for`): None in a simulated
        #: run, whose one thread is the only caller.
        self.lock: Optional[threading.Lock] = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.expirations = 0
        self.evictions = 0
        self.rejections = 0
        self._occupancy_hist = None

    # -- wiring --------------------------------------------------------
    def set_origin(self, t: float) -> None:
        """Anchor ``clear_at`` to the run's start instant.

        The live harness passes its wall-clock start; the simulator's
        origin is virtual time zero, the default.
        """
        self._origin = t

    def set_tracer(self, tracer) -> None:
        self._tracer = tracer

    def register_metrics(self, registry) -> None:
        """Register the hit-rate gauge and occupancy series.

        Lazy-callback gauges cost nothing on the serving path — the
        metrics sampler reads them on its own cadence. The occupancy
        histogram is observed on every store, bucketed as fractions of
        capacity so the distribution is comparable across sweeps.
        """
        registry.gauge(
            "tb_cache_hit_rate",
            help="Fraction of keyed lookups served from cache",
            fn=lambda: self.hit_rate,
        )
        registry.gauge(
            "tb_cache_occupancy",
            help="Resident cache entries",
            fn=lambda: float(len(self)),
        )
        self._occupancy_hist = registry.histogram(
            "tb_cache_occupancy_ratio",
            help="Occupancy/capacity observed at each store",
            buckets=(0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0),
        )

    # -- serving path --------------------------------------------------
    def lookup(
        self,
        key: Hashable,
        now: float,
        logical_id: Optional[int] = None,
        request_id: Optional[int] = None,
        attempt: Optional[int] = None,
        server_id: Optional[int] = None,
    ) -> Tuple[bool, Any]:
        """Return ``(hit, value)`` for ``key``; counts and traces."""
        status, value = locked(self.lock, self._lookup_locked, key, now)
        if self._tracer is not None:
            if status == EXPIRED:
                self._tracer.emit(
                    "cache_expire", now, logical_id=logical_id,
                    request_id=request_id, attempt=attempt,
                    server_id=server_id,
                )
            self._tracer.emit(
                "cache_hit" if status == HIT else "cache_miss", now,
                logical_id=logical_id, request_id=request_id,
                attempt=attempt, server_id=server_id,
            )
        return status == HIT, value

    def _lookup_locked(self, key: Hashable, now: float) -> Tuple[str, Any]:
        self._maybe_clear(now)
        status, value = self._policy.lookup(key, now)
        if status == HIT:
            self.hits += 1
        elif status == EXPIRED:
            self.expirations += 1
            self.misses += 1
        else:
            self.misses += 1
        return status, value

    def store(
        self,
        key: Hashable,
        value: Any,
        now: float,
        logical_id: Optional[int] = None,
        request_id: Optional[int] = None,
        attempt: Optional[int] = None,
        server_id: Optional[int] = None,
    ) -> bool:
        """Offer ``(key, value)`` for residence; True when admitted."""
        admitted, evicted, occupancy = locked(
            self.lock, self._store_locked, key, value, now
        )
        if self._tracer is not None:
            for _ in evicted:
                self._tracer.emit(
                    "cache_evict", now, logical_id=logical_id,
                    request_id=request_id, attempt=attempt,
                    server_id=server_id, value=float(occupancy),
                )
        if self._occupancy_hist is not None:
            self._occupancy_hist.observe(occupancy / self._policy.capacity)
        return admitted

    def _store_locked(self, key: Hashable, value: Any, now: float):
        self._maybe_clear(now)
        admitted, evicted = self._policy.store(key, value, now)
        if admitted:
            self.evictions += len(evicted)
        else:
            self.rejections += 1
        return admitted, evicted, len(self._policy)

    def _maybe_clear(self, now: float) -> None:
        """Cold-restart model: wipe everything once past ``clear_at``.

        Checked lazily on each access under the lock, so the clear
        lands at the same (virtual or wall) instant in both execution
        modes without its own timer thread.
        """
        if (
            self._clear_at is None
            or self._cleared
            or now - self._origin < self._clear_at
        ):
            return
        self._cleared = True
        dropped = len(self._policy)
        self._policy.clear()
        if self._tracer is not None:
            self._tracer.emit("cache_clear", now, value=float(dropped))

    # -- inspection ----------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Hits over keyed lookups (0.0 before any traffic)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counts(self) -> Dict[str, int]:
        """Counter snapshot for result objects and reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "expirations": self.expirations,
            "evictions": self.evictions,
            "rejections": self.rejections,
        }

    def __len__(self) -> int:
        return len(self._policy)
