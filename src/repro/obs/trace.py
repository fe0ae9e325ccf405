"""Request-lifecycle event tracer.

Every logical request moving through the harness (or the simulator —
both emit the identical schema) leaves a trail of :class:`TraceEvent`
records::

    generated -> sent -> enqueued -> service_start -> service_end -> received

plus point events for everything that happens *around* the lifecycle:
``retry`` / ``hedge`` sends, ``shed`` rejections, ``error`` responses,
``late`` arrivals, and ``fault_*`` injections. Events carry
``logical_id`` / ``attempt`` / ``server_id``, so retries and hedges of
one logical request can be stitched back together, and every event can
be attributed to the replica the balancer chose.

The tracer is built for hot paths: one bounded ring buffer
(``collections.deque(maxlen=...)``, whose appends are atomic under the
GIL), no locks on the emit path, and a monotone emit counter so
overflow is *reported* (``dropped`` = oldest events evicted), never
silent. With tracing disabled the harness holds no tracer at all —
the hot-path cost is a single ``is None`` test.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "LIFECYCLE_EVENTS",
    "POINT_EVENTS",
    "EVENT_KINDS",
    "TraceEvent",
    "Tracer",
    "group_attempts",
    "decompose_attempts",
]

#: Lifecycle span edges, in chain order, paired with the Request
#: attribute each one is stamped from.
LIFECYCLE_EVENTS: Tuple[Tuple[str, str], ...] = (
    ("generated", "generated_at"),
    ("sent", "sent_at"),
    ("enqueued", "enqueued_at"),
    ("service_start", "service_start_at"),
    ("service_end", "service_end_at"),
    ("received", "response_received_at"),
)

#: Point events: outcomes, recovery/fault markers, control-plane
#: decisions (``admit``/``drop_*`` per arrival at the admission gate,
#: ``limit_update`` on AIMD limit changes, ``scale_*`` on membership
#: actions — see :mod:`repro.control`), and batching markers
#: (``batch_form`` once per member with its ``request_id``,
#: ``batch_start``/``batch_end`` once per batch; all three carry the
#: per-server batch sequence number in ``value``, which is what links
#: a batch to its members — see :mod:`repro.batching`), and health
#: markers (``eject``/``readmit``/``probe`` per replica,
#: ``breaker_*`` state transitions, ``budget_exhausted`` when the
#: retry budget denies a retry — see :mod:`repro.health`), and SLO
#: markers (``slo_burn``/``slo_clear`` on burn-rate alert transitions,
#: carrying the fast-window burn rate in ``value`` — see
#: :mod:`repro.obs.live`), and scatter-gather markers
#: (``fanout_send`` once per shard sub-request at scatter time,
#: ``fanout_gather`` once per logical request when the last shard
#: responds, stamped with the critical — slowest — shard's
#: ``server_id``; both carry the gather sequence number in ``value``,
#: which is what links a gather to its sends — see
#: :mod:`repro.core.fanout`).
POINT_EVENTS: Tuple[str, ...] = (
    "retry",
    "hedge",
    "shed",
    "error",
    "late",
    "discard",
    "fault_drop",
    "fault_delay",
    "fault_duplicate",
    "fault_pause",
    "fault_crash",
    "fault_app_error",
    "admit",
    "drop_codel",
    "drop_limit",
    "limit_update",
    "scale_up",
    "scale_down",
    "batch_form",
    "batch_start",
    "batch_end",
    "eject",
    "readmit",
    "probe",
    "breaker_open",
    "breaker_half_open",
    "breaker_close",
    "budget_exhausted",
    "slo_burn",
    "slo_clear",
    "fanout_send",
    "fanout_gather",
    # Caching tier (repro.cache): one hit-or-miss event per keyed
    # lookup, ``cache_expire`` when a TTL'd entry ages out at lookup
    # (always paired with the miss it becomes), ``cache_evict`` per
    # evicted resident (``value`` = occupancy after the store), and
    # ``cache_clear`` at the cold-restart instant (``value`` = entries
    # dropped).
    "cache_hit",
    "cache_miss",
    "cache_evict",
    "cache_expire",
    "cache_clear",
)

#: Every legal value of ``TraceEvent.kind`` (the JSONL ``event`` field).
EVENT_KINDS = frozenset(name for name, _ in LIFECYCLE_EVENTS) | frozenset(
    POINT_EVENTS
)

_LIFECYCLE_ORDER: Dict[str, int] = {
    name: i for i, (name, _) in enumerate(LIFECYCLE_EVENTS)
}


class TraceEvent:
    """One timestamped event in a request's lifecycle."""

    __slots__ = ("ts", "kind", "logical_id", "request_id", "attempt",
                 "server_id", "value")

    def __init__(
        self,
        ts: float,
        kind: str,
        logical_id: Optional[int] = None,
        request_id: Optional[int] = None,
        attempt: Optional[int] = None,
        server_id: Optional[int] = None,
        value: Optional[float] = None,
    ) -> None:
        self.ts = ts
        self.kind = kind
        self.logical_id = logical_id
        self.request_id = request_id
        self.attempt = attempt
        self.server_id = server_id
        #: Optional numeric payload (e.g. an injected delay in seconds).
        self.value = value

    def as_dict(self) -> Dict[str, object]:
        """JSONL-ready mapping; ``None`` fields are omitted."""
        out: Dict[str, object] = {"ts": self.ts, "event": self.kind}
        for field in ("logical_id", "request_id", "attempt", "server_id",
                      "value"):
            val = getattr(self, field)
            if val is not None:
                out[field] = val
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceEvent(t={self.ts:.6f}, {self.kind}, "
            f"logical={self.logical_id}, attempt={self.attempt}, "
            f"server={self.server_id})"
        )


class Tracer:
    """Bounded, lock-cheap sink for :class:`TraceEvent` records.

    Parameters
    ----------
    capacity:
        Ring-buffer size in events. When full, the *oldest* events are
        evicted; :attr:`dropped` reports exactly how many, so a
        truncated trace is always detectable.
    """

    def __init__(self, capacity: int = 262_144) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        # itertools.count consumption is atomic under the GIL, so the
        # emit counter needs no lock of its own.
        self._emit_counter = itertools.count(1)
        self._last_emitted = 0

    # -- emission (hot path) -------------------------------------------
    def emit(
        self,
        kind: str,
        ts: float,
        logical_id: Optional[int] = None,
        request_id: Optional[int] = None,
        attempt: Optional[int] = None,
        server_id: Optional[int] = None,
        value: Optional[float] = None,
    ) -> None:
        """Append one event to the ring."""
        self._last_emitted = next(self._emit_counter)
        self._ring.append(
            TraceEvent(ts, kind, logical_id, request_id, attempt,
                       server_id, value)
        )

    def record_request(self, request, outcome: Optional[str] = None) -> None:
        """Emit every stamped lifecycle edge of ``request`` at once.

        Called on the completion path, where the whole timestamp chain
        is already stamped on the request — one call covers the six
        span edges instead of instrumenting each hot point separately.
        Unstamped edges (e.g. ``service_start`` of a shed attempt) are
        simply absent, so rejected attempts remain representable.
        A point event closes the chain at the last known instant: the
        ``outcome`` passed, else the one the request's flags state
        (``shed``, then ``error``, then an injected duplicate's
        ``discard``), else none.
        """
        if outcome is None:
            if request.shed:
                outcome = "shed"
            elif request.error is not None:
                outcome = "error"
            elif request.discard:
                outcome = "discard"
        logical_id = request.logical_id
        request_id = request.request_id
        attempt = request.attempt
        server_id = request.server_id
        last_ts = request.generated_at
        for kind, attr in LIFECYCLE_EVENTS:
            ts = getattr(request, attr)
            if ts is None:
                continue
            last_ts = ts
            self.emit(kind, ts, logical_id, request_id, attempt, server_id)
        if outcome is not None:
            self.emit(outcome, last_ts, logical_id, request_id, attempt,
                      server_id)

    # -- inspection ----------------------------------------------------
    @property
    def emitted(self) -> int:
        """Total events emitted over the tracer's lifetime."""
        return self._last_emitted

    @property
    def dropped(self) -> int:
        """Events evicted from the ring (0 = the trace is complete)."""
        return max(0, self._last_emitted - len(self._ring))

    def __len__(self) -> int:
        return len(self._ring)

    def events(self) -> Tuple[TraceEvent, ...]:
        """Snapshot of the retained events, oldest first."""
        return tuple(self._ring)


def _attempt_key(event: TraceEvent) -> Tuple[str, int, int]:
    """Identity of the attempt an event belongs to.

    Resilient runs stamp ``logical_id`` on every attempt, so retries
    and hedges of one logical request group by ``(logical_id,
    attempt)``. Plain runs have no logical ids; there each request IS
    its only attempt, so ``request_id`` identifies it.
    """
    if event.logical_id is not None:
        return ("l", event.logical_id, event.attempt or 0)
    return ("r", event.request_id if event.request_id is not None else -1,
            event.attempt or 0)


def group_attempts(
    events: Iterable[TraceEvent],
) -> Dict[Tuple[str, int, int], List[TraceEvent]]:
    """Group lifecycle events by attempt (see :func:`_attempt_key`).

    Events within each group come back in chain order (the ring
    preserves emit order; a completion emits its chain in order, so no
    re-sort is needed — but we sort defensively by (ts, chain index)
    in case point events interleave).
    """
    groups: Dict[Tuple[str, int, int], List[TraceEvent]] = {}
    for event in events:
        if event.kind not in _LIFECYCLE_ORDER:
            continue
        groups.setdefault(_attempt_key(event), []).append(event)
    for group in groups.values():
        group.sort(key=lambda e: (e.ts, _LIFECYCLE_ORDER[e.kind]))
    return groups


def decompose_attempts(
    events: Iterable[TraceEvent],
) -> List[Dict[str, object]]:
    """Rebuild per-attempt latency decompositions from raw events.

    For every attempt with at least ``generated`` and ``sent`` edges,
    returns a mapping with the attempt identity (``logical_id``,
    ``attempt``, ``server_id``) and whichever components its stamps
    support: ``send_delay``, ``network``, ``queue``, ``service``,
    ``sojourn``. Partial chains (shed or dropped attempts) yield
    partial decompositions — present components only — which is what
    makes traces of rejected work analyzable at all.
    """
    out: List[Dict[str, object]] = []
    for _key, group in sorted(group_attempts(events).items()):
        stamps = {e.kind: e.ts for e in group}
        row: Dict[str, object] = {
            "logical_id": group[0].logical_id,
            "attempt": group[0].attempt or 0,
            "server_id": next(
                (e.server_id for e in group if e.server_id is not None), None
            ),
        }
        gen, sent = stamps.get("generated"), stamps.get("sent")
        enq = stamps.get("enqueued")
        start, end = stamps.get("service_start"), stamps.get("service_end")
        recv = stamps.get("received")
        if gen is not None and sent is not None:
            row["send_delay"] = sent - gen
        if enq is not None and sent is not None:
            network = enq - sent
            if recv is not None and end is not None:
                network += recv - end
            row["network"] = network
        if enq is not None and start is not None:
            row["queue"] = start - enq
        if start is not None and end is not None:
            row["service"] = end - start
        if gen is not None and recv is not None:
            row["sojourn"] = recv - gen
        out.append(row)
    return out
