"""Scatter-gather fan-out: one logical request, K pinned sub-requests.

The request shape of sharded services (Dean & Barroso, "The Tail at
Scale", CACM 2013): a logical query cannot be answered by any single
replica because each one holds a disjoint partition of the data, so
the client *scatters* a sub-request to every shard and *gathers* the
partial responses — the logical request completes when the slowest
shard does. End-to-end latency is therefore a max over K leaf
latencies, which is why the end-to-end tail climbs with K even while
every individual shard's tail stays flat
(:func:`repro.analysis.fanout.fanout_quantile` is the order-statistic
prediction this module's measurements are validated against).

Fan-out is the top layer of the client stack, not a client of its
own: :class:`FanoutClient` scatters each logical request as K *legs*
through whatever ``send`` lies beneath — the bare transport's, or the
resilient client's, whose calls the legs then are (deadline, retries
and hedges per leg) — each leg pinned to its shard (``server_id``), and
:class:`FanoutGatherer` is where the layer beneath reports every leg
back. Both run unchanged under the live harness and the discrete-event
simulator. A pinned send is routed over the one-element candidate set
``[shard]``, which draws nothing from the balancer — that keeps a K=1
fan-out run bit-identical to an unsharded run per seed — and a hedge of
a leg goes where that set allows: the same shard.

The leg/gather contract. A leg is *answered* (its response is the
shard's partial), *failed* (shed, errored, and — beneath a resilient
client — retries exhausted or timed out at the deadline, which every
leg of a gather shares because all carry one ``generated_at``) or
*never answered* (dropped on the wire with no deadline to notice). An
injected duplicate's ``discard`` copy is not a leg: the transport hands
it to no layer above. A gather resolves
exactly once, when its last leg has reported: merged into one latency
record — the critical (slowest) leg's — if every leg was answered,
otherwise counted in :attr:`FanoutStats.failed`; and
:meth:`FanoutGatherer.fail_unresolved`, swept at run end, fails the
gathers a never-answered leg left open.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..stats import LatencySummary, quantile
from .request import Request
from .scheduler import NO_LOCK, locked

__all__ = ["FanoutClient", "FanoutGatherer", "FanoutStats"]


class FanoutStats:
    """Per-shard leaf latencies and critical-shard attribution.

    Leaf samples are *post-warmup* sub-request sojourns (one per shard
    per measured gather), the raw material for the tail-at-scale
    prediction: pooled across shards they estimate the leaf latency
    distribution whose ``q**(1/K)`` quantile should match the measured
    end-to-end ``q`` quantile when leaves are roughly iid.
    """

    def __init__(self, shards: int) -> None:
        self.shards = shards
        #: Post-warmup leaf sojourns, per shard.
        self.shard_samples: List[List[float]] = [[] for _ in range(shards)]
        #: How often each shard was the gather's slowest (measured only).
        self.critical_counts: List[int] = [0] * shards
        #: Successful gathers (all shards responded, merge ran).
        self.completed = 0
        #: Gathers with a leg that failed or was never answered.
        self.failed = 0

    def leaf_samples(self) -> List[float]:
        """All post-warmup leaf sojourns, pooled across shards."""
        return [s for samples in self.shard_samples for s in samples]

    def shard_summary(self, shard: int) -> Optional[LatencySummary]:
        """Latency summary for one shard, or None with no measured leaves.

        A short run can leave a shard with only warmup (or only
        shed/failed) gathers; that is a reporting gap, not a crash —
        callers render it as "-".
        """
        samples = self.shard_samples[shard]
        if not samples:
            return None
        return LatencySummary.from_samples(samples)

    def shard_p99(self, shard: int) -> float:
        """Shard leaf p99, or ``nan`` when the shard has no samples."""
        samples = self.shard_samples[shard]
        if not samples:
            return float("nan")
        return quantile(samples, 0.99)

    def predicted_quantile(self, q: float = 0.99) -> float:
        """Order-statistic prediction of the end-to-end ``q`` quantile.

        Returns ``nan`` when no leaf samples were measured (all gathers
        landed in warmup or failed).
        """
        from ..analysis.fanout import fanout_quantile

        leaves = sorted(self.leaf_samples())
        if not leaves:
            return float("nan")
        return fanout_quantile(leaves, self.shards, q, sorted_values=True)


class _Gather:
    """In-flight state of one logical request's K legs."""

    __slots__ = ("gather_id", "remaining", "slots", "failed")

    def __init__(self, gather_id: int, shards: int) -> None:
        self.gather_id = gather_id
        self.remaining = shards
        self.slots: List[Optional[Request]] = [None] * shards
        #: Outcome of the first leg that failed; None while none has.
        self.failed: Optional[str] = None


class FanoutGatherer:
    """The gather point: collects K leg reports per logical request.

    The layer beneath reports each leg once to :meth:`leg_resolved` —
    the resilient client as its sink, the bare transport through
    :meth:`on_complete` as *its* sink. When a gather's last leg
    lands, the *critical* (slowest) shard's request supplies the
    logical latency record — its lifecycle chain IS the logical
    request's critical path — and the per-shard partial responses are
    merged. One ``fanout_gather`` trace event per merged request
    carries the critical shard in ``server_id``.

    The gather's own resolution goes up through ``record(gather_id,
    outcome, request)``: beneath a resilient client that is the
    client's :meth:`~repro.core.resilience.ResilientClient.record`,
    so logical tallies count gathers, not legs; over the bare
    transport a merged gather is one latency record and nothing is
    tallied, as for any run without a resilience layer.

    Thread-safe: the live transport completes requests from many
    worker threads concurrently, so gathers are opened and resolved
    under :attr:`lock`, which the run's driver hands out (none under
    the simulator's engine).
    """

    def __init__(
        self,
        shards: int,
        collector,
        merge: Optional[Callable[[Sequence[Any]], Any]] = None,
        warmup: int = 0,
        tracer=None,
        record: Optional[Callable[[int, str, Optional[Request]], None]] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        self.stats = FanoutStats(shards)
        self._collector = collector
        self._record = record if record is not None else self._record_merged
        self._merge = merge
        self._warmup = warmup
        self._tracer = tracer
        #: Set by ``RunParts.wire`` from
        #: :func:`~repro.core.scheduler.lock_for`.
        self.lock: Optional[threading.Lock] = threading.Lock()
        self._pending: Dict[int, Tuple[_Gather, int]] = {}
        self._next_gather = 0
        self._next_logical = 0

    def open_gather(self) -> Tuple[int, List[Tuple[int, int]]]:
        """Allocate one gather; returns (gather_id, [(logical_id, shard)]).

        The caller must then dispatch exactly one leg per returned
        ``(logical_id, shard)`` pair.
        """
        return locked(self.lock, self._open_locked)

    def _open_locked(self) -> Tuple[int, List[Tuple[int, int]]]:
        gather = _Gather(self._next_gather, self.shards)
        self._next_gather += 1
        pairs = []
        for shard in range(self.shards):
            logical_id = self._next_logical
            self._next_logical += 1
            self._pending[logical_id] = (gather, shard)
            pairs.append((logical_id, shard))
        return gather.gather_id, pairs

    @property
    def outstanding(self) -> int:
        """Legs dispatched but not yet reported."""
        with self.lock or NO_LOCK:
            return len(self._pending)

    def on_complete(self, request: Request) -> bool:
        """The bare transport's sink: True when the request was ours."""
        good = not request.shed and request.error is None
        return self.leg_resolved(
            request.logical_id, "succeeded" if good else "failed", request
        )

    def leg_resolved(self, logical_id: int, outcome: str, request) -> bool:
        """One leg's fate: answered by ``request`` iff ``succeeded``."""
        return locked(
            self.lock, self._resolve_locked, logical_id, outcome, request
        )

    def _resolve_locked(self, logical_id: int, outcome: str, request) -> bool:
        entry = self._pending.pop(logical_id, None)
        if entry is None:
            return False
        gather, shard = entry
        if outcome == "succeeded":
            gather.slots[shard] = request
        elif gather.failed is None:
            gather.failed = outcome
        gather.remaining -= 1
        if gather.remaining == 0:
            self._finalize(gather)
        return True

    def fail_unresolved(self) -> None:
        """Fail every leg never answered, and so its gather (run end:
        nothing else reports any more)."""
        for logical_id in list(self._pending):
            self.leg_resolved(logical_id, "failed", None)

    def _record_merged(self, gather_id, outcome, request) -> None:
        if request is not None:
            self._collector.add(request.finish())

    def _finalize(self, gather: _Gather) -> None:
        # Called under the lock: gather completion order here defines
        # the warmup cutoff, and must match the collector's own
        # completion-ordered discard exactly.
        if gather.failed is not None:
            self.stats.failed += 1
            self._record(gather.gather_id, gather.failed, None)
            return
        critical = gather.slots[0]
        for request in gather.slots[1:]:
            if request.response_received_at > critical.response_received_at:
                critical = request
        if self._merge is not None:
            critical.response = self._merge(
                [request.response for request in gather.slots]
            )
        measured = self.stats.completed >= self._warmup
        self.stats.completed += 1
        self._record(gather.gather_id, "succeeded", critical)
        if measured:
            self.stats.critical_counts[critical.server_id] += 1
            for shard, request in enumerate(gather.slots):
                self.stats.shard_samples[shard].append(
                    request.response_received_at - request.generated_at
                )
        if self._tracer is not None:
            self._tracer.emit(
                "fanout_gather",
                critical.response_received_at,
                logical_id=critical.logical_id,
                request_id=critical.request_id,
                server_id=critical.server_id,
                value=float(gather.gather_id),
            )


class FanoutClient:
    """Send side: scatters each logical request to every shard.

    The top of the client stack: one call dispatches K pinned legs
    through ``send`` — the transport's or the resilient client's —
    each with its own ``logical_id`` so per-attempt accounting and
    attribution treat shards independently. The transport's ordinary
    outstanding accounting covers the legs, so ``transport.drain()``
    (or the resilient client's ``drain()``) already waits for every
    gather to finish.
    """

    def __init__(
        self,
        send: Callable[..., Any],
        clock,
        gatherer: FanoutGatherer,
        tracer=None,
    ) -> None:
        self._send = send
        self._clock = clock
        self._gatherer = gatherer
        self._tracer = tracer

    def send(self, generated_at: float, payload: Any) -> int:
        gather_id, pairs = self._gatherer.open_gather()
        for logical_id, shard in pairs:
            if self._tracer is not None:
                self._tracer.emit(
                    "fanout_send",
                    self._clock.now(),
                    logical_id=logical_id,
                    server_id=shard,
                    value=float(gather_id),
                )
            self._send(
                generated_at,
                payload,
                logical_id=logical_id,
                server_id=shard,
            )
        return 0
