"""Statistics collector.

Aggregates per-request timing into the three latency axes the paper
reports — queue time, service time, and sojourn time. The collector
keeps every measured :class:`RequestRecord`, at any run length, and
derives every view from those records when it is read: percentiles,
per-server and per-class summaries, the timeline, batch occupancy and
the send-lag audit. The paper (Sec. IV-C) records into HDR histograms
so that long runs stay cheap; here a tail percentile always keeps the
samples it was computed from, so it can be re-cut by server, class,
time window or component after the run.

Measurements must stay sound under partial failure, so the collector
is *failure-aware* ("Tell-Tale Tail Latencies" shows how easily
retry/timeout artifacts corrupt tails): alongside the success-only
latency series it tallies outcome counts (offered, succeeded,
timed-out, failed logical requests; attempt/retry/hedge/error/shed/
late events) and keeps a separate *per-attempt* latency series over
every attempt that produced a response. Success percentiles and
per-attempt percentiles answer different questions — "what did users
experience when the system worked?" vs "what did the wire see?" — and
diverge as soon as faults are injected.
"""

from __future__ import annotations

import threading
from collections import Counter
from math import isfinite
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..stats import LatencySummary, percentile
from .request import RequestRecord

__all__ = ["StatsCollector", "CollectedStats", "TimelinePoint", "OUTCOME_KEYS"]

_METRICS = ("sojourn", "service", "queue")

#: Outcome tally keys. Logical-request outcomes: ``offered`` (logical
#: requests submitted), ``succeeded`` (first success before deadline),
#: ``timed_out`` (deadline passed unresolved), ``failed`` (failure
#: response with no retry budget and no deadline pending). Attempt
#: events: ``attempts`` (every send, incl. retries/hedges), ``retries``,
#: ``hedges``, ``errors`` (error responses), ``shed`` (admission-control
#: rejections received), ``late`` (responses after resolution).
OUTCOME_KEYS = (
    "offered",
    "succeeded",
    "timed_out",
    "failed",
    "attempts",
    "retries",
    "hedges",
    "errors",
    "shed",
    "late",
)


class TimelinePoint:
    """One point of a time series: a window percentile or a metric sample.

    ``metric`` names the series the point belongs to (a latency metric
    such as ``sojourn``, or a registry metric full name such as
    ``tb_queue_depth{server="0"}``) and ``pct`` the percentile it
    represents (``None`` for instantaneous metric samples) — without
    them, points from different series exported together are
    indistinguishable.
    """

    __slots__ = ("time", "count", "value", "metric", "pct")

    def __init__(
        self,
        time: float,
        count: int,
        value: float,
        metric: str = "",
        pct: Optional[float] = None,
    ) -> None:
        self.time = time
        self.count = count
        self.value = value
        self.metric = metric
        self.pct = pct

    def as_dict(self) -> Dict[str, object]:
        """JSONL-ready mapping (the series exporter's line format)."""
        out: Dict[str, object] = {
            "time": self.time,
            "count": self.count,
            "value": self.value,
            "metric": self.metric,
        }
        if self.pct is not None:
            out["pct"] = self.pct
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.metric or "?"
        if self.pct is not None:
            label += f"@p{self.pct:g}"
        return (
            f"TimelinePoint({label}, t={self.time:.4f}, "
            f"n={self.count}, v={self.value:.6f})"
        )


def _values(metric: str, records: Iterable[RequestRecord]) -> List[float]:
    """One latency axis (``sojourn``/``service``/``queue``) of ``records``."""
    if metric not in _METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected {_METRICS}")
    attr = f"{metric}_time"
    return [getattr(r, attr) for r in records]


class CollectedStats:
    """Immutable view over one run's measured records.

    Every view below is computed from :attr:`records` when it is read.
    """

    def __init__(
        self,
        records: Tuple[RequestRecord, ...],
        dropped_warmup: int,
        attempt_samples: Tuple[float, ...] = (),
        outcomes: Optional[Dict[str, int]] = None,
    ) -> None:
        self._records = records
        self.dropped_warmup = dropped_warmup
        self._attempt_samples = attempt_samples
        self._outcomes = dict(outcomes) if outcomes else {}

    @property
    def count(self) -> int:
        return len(self._records)

    @property
    def records(self) -> Sequence[RequestRecord]:
        return self._records

    def samples(self, metric: str = "sojourn") -> List[float]:
        return _values(metric, self._records)

    def summary(self, metric: str = "sojourn") -> LatencySummary:
        if not self._records:
            raise ValueError("no requests were collected")
        return LatencySummary.from_samples(self.samples(metric))

    def slo_attainment(self, target: float) -> float:
        """Fraction of collected completions with sojourn <= ``target``.

        The post-hoc cross-check for the streaming layer's
        completion-side accounting (:mod:`repro.obs.live` counts
        send-anchored budget units, which additionally charge work
        that never completed). 1.0 when nothing was collected.
        """
        if target <= 0.0:
            raise ValueError("target must be positive")
        if not self._records:
            return 1.0
        met = sum(1 for r in self._records if r.sojourn_time <= target)
        return met / len(self._records)

    @property
    def outcomes(self) -> Dict[str, int]:
        """Outcome tally (see :data:`OUTCOME_KEYS`); empty when unused."""
        return dict(self._outcomes)

    # -- coordinated-omission audit ------------------------------------
    def send_lag_summary(self) -> Optional[LatencySummary]:
        """Intended-vs-actual send-time divergence of the load generator.

        Summarizes ``sent_at - generated_at`` (clamped at 0) over every
        measured completion: how far behind its ideal open-loop instant
        each request actually left the client. Persistent growth means
        the *generator* could not sustain the offered rate — latencies
        are then understated in exactly the way coordinated omission
        hides [Tene 2013] — so every run reports this audit alongside
        its latency numbers. None when nothing was measured.
        """
        lags = [
            max(r.send_delay, 0.0)
            for r in self._records
            if r.sent_at is not None
        ]
        return LatencySummary.from_samples(lags) if lags else None

    def send_audit(self) -> Dict[str, float]:
        """The audit as a flat mapping (benchmark-fingerprint form)."""
        summary = self.send_lag_summary()
        if summary is None:
            return {}
        return {
            "send_lag_mean_s": summary.mean,
            "send_lag_p99_s": summary.percentiles.get(99.0, summary.maximum),
            "send_lag_max_s": summary.maximum,
        }

    # -- per-server views (multi-server topologies) --------------------
    @property
    def server_ids(self) -> List[int]:
        """Server instances that produced at least one measured record."""
        return sorted({r.server_id for r in self._records})

    def server_count(self, server_id: int) -> int:
        """Measured completions served by one instance."""
        return sum(1 for r in self._records if r.server_id == server_id)

    def server_samples(
        self, server_id: int, metric: str = "sojourn"
    ) -> List[float]:
        """One instance's latency samples."""
        return _values(
            metric, (r for r in self._records if r.server_id == server_id)
        )

    def server_summary(
        self, server_id: int, metric: str = "sojourn"
    ) -> LatencySummary:
        """Latency summary over one instance's measured completions."""
        samples = self.server_samples(server_id, metric)
        if not samples:
            raise ValueError(f"no requests measured on server {server_id}")
        return LatencySummary.from_samples(samples)

    def per_server(self, metric: str = "sojourn") -> Dict[int, LatencySummary]:
        """Per-instance latency summaries, keyed by server index.

        The per-server series partition the aggregate: their counts sum
        to :attr:`count` and their merged distribution is exactly the
        distribution :meth:`summary` reports. Summaries cover only what
        each instance actually measured, so replicas that join late or
        drain early contribute exactly their own completions — a
        short-lived replica never dilutes (or inflates) another's
        distribution.
        """
        return {
            server_id: self.server_summary(server_id, metric)
            for server_id in self.server_ids
        }

    # -- per-class views (priority scheduling) -------------------------
    @property
    def request_classes(self) -> List[str]:
        """Request classes with at least one measured record."""
        return sorted(
            {r.request_class for r in self._records if r.request_class}
        )

    def class_summary(
        self, request_class: str, metric: str = "sojourn"
    ) -> LatencySummary:
        """Latency summary over one request class."""
        samples = _values(
            metric,
            (r for r in self._records if r.request_class == request_class),
        )
        if not samples:
            raise ValueError(f"no requests measured in class {request_class!r}")
        return LatencySummary.from_samples(samples)

    def per_class(self, metric: str = "sojourn") -> Dict[str, LatencySummary]:
        """Per-request-class latency summaries, keyed by class name.

        Empty when no classifier ran (all records unclassified).
        """
        return {
            name: self.class_summary(name, metric)
            for name in self.request_classes
        }

    # -- batching views ------------------------------------------------
    @property
    def batch_occupancy(self) -> Dict[int, int]:
        """Member-weighted batch-occupancy histogram.

        ``{size: n}`` — ``n`` measured requests were served in a batch
        of ``size`` co-scheduled requests. Member-weighted (rather than
        per-batch) counting is exact even when a batch straddles the
        warmup cutoff; the number of whole batches of size ``k`` is
        ``n_k / k``. ``{1: count}`` for unbatched runs; empty when no
        requests were measured.
        """
        return dict(Counter(r.batch_size for r in self._records))

    @property
    def mean_batch_size(self) -> float:
        """Request-weighted mean batch occupancy (1.0 when unbatched).

        The average number of co-scheduled requests a measured request
        shared its service window with; together with
        :attr:`~repro.core.request.RequestRecord.service_share` this is
        the collector's per-request cost attribution: a batch's service
        window, divided evenly over its members.
        """
        if not self._records:
            return 1.0
        return sum(r.batch_size for r in self._records) / len(self._records)

    @property
    def attempt_count(self) -> int:
        """Number of per-attempt latency samples recorded."""
        return len(self._attempt_samples)

    def attempt_samples(self) -> List[float]:
        return list(self._attempt_samples)

    def attempt_summary(self) -> LatencySummary:
        """Latency summary over every attempt that got a response.

        Includes retries, hedges, error replies, and shed replies —
        the wire's view, as opposed to ``summary()``'s success-only,
        logical-request view.
        """
        if not self._attempt_samples:
            raise ValueError("no attempt latencies were collected")
        return LatencySummary.from_samples(self._attempt_samples)

    def timeline(
        self, metric: str = "sojourn", n_windows: int = 10, pct: float = 95.0
    ) -> List["TimelinePoint"]:
        """Percentile-over-time: ``pct`` of ``metric`` per time window.

        Splits the measurement interval (by request generation instant)
        into equal windows. A flat timeline indicates steady state; a
        trend means the warmup was too short or the system is drifting
        (the paper's hysteresis concern, Sec. IV-C).
        """
        if n_windows < 2:
            raise ValueError("need at least 2 windows")
        if not 0.0 < pct < 100.0:
            raise ValueError("pct must be in (0, 100)")
        records = self._records
        if len(records) < n_windows:
            raise ValueError("fewer records than windows")
        start = min(r.generated_at for r in records)
        end = max(r.generated_at for r in records)
        span = max(end - start, 1e-12)
        buckets: List[List[float]] = [[] for _ in range(n_windows)]
        for record, value in zip(records, _values(metric, records)):
            idx = min(
                n_windows - 1,
                int((record.generated_at - start) / span * n_windows),
            )
            buckets[idx].append(value)
        points = []
        for i, bucket in enumerate(buckets):
            if not bucket:
                continue
            mid = start + (i + 0.5) * span / n_windows
            points.append(
                TimelinePoint(
                    mid, len(bucket), percentile(bucket, pct),
                    metric=metric, pct=pct,
                )
            )
        return points

    def is_steady(
        self,
        metric: str = "sojourn",
        pct: float = 95.0,
        tolerance: float = 0.5,
    ) -> bool:
        """Heuristic steady-state check: first vs second half percentile.

        Returns False when the second half's ``pct`` differs from the
        first half's by more than ``tolerance`` (relative) — the
        signature of an unwarmed or drifting measurement.
        """
        if len(self._records) < 20:
            raise ValueError("too few records for a steadiness check")
        ordered = sorted(self._records, key=lambda r: r.generated_at)
        half = len(ordered) // 2
        first = percentile(_values(metric, ordered[:half]), pct)
        second = percentile(_values(metric, ordered[half:]), pct)
        if first == 0 and second == 0:
            return True
        base = max(first, second)
        return abs(second - first) / base <= tolerance


class StatsCollector:
    """Sink for completed request records, safe across threads.

    Records and per-attempt latencies are appended without a lock
    (one ``list.append`` each, atomic under the GIL); only the warm-up
    count and the outcome tally, read-modify-writes, are guarded, by
    :attr:`lock`.

    Parameters
    ----------
    warmup_requests:
        Number of initial completions to discard (steady-state only,
        per the paper's warmup rule).
    """

    def __init__(self, warmup_requests: int = 0) -> None:
        if warmup_requests < 0:
            raise ValueError("warmup_requests must be >= 0")
        self._warmup = warmup_requests
        #: Guards the warm-up count and the outcome tally. The run's
        #: driver replaces it (``RunParts.wire``, via
        #: :func:`~repro.core.scheduler.lock_for`): None in a simulated
        #: run, whose one thread is the only writer.
        self.lock: Optional[threading.Lock] = threading.Lock()
        #: Completions still to discard as warm-up.
        self._to_discard = warmup_requests
        self._records: List[RequestRecord] = []
        self._attempt_samples: List[float] = []
        self._outcomes: Dict[str, int] = dict.fromkeys(OUTCOME_KEYS, 0)
        self._outcomes_used = False

    def add(self, record: RequestRecord) -> None:
        if self._to_discard:
            lock = self.lock
            if lock is None:
                self._to_discard -= 1
                return
            with lock:
                if self._to_discard:
                    self._to_discard -= 1
                    return
        sent = record.sent_at
        # A NaN stamp passes Request.finish() (every NaN comparison
        # is False); it must not reach the send-lag audit.
        if sent is not None and not isfinite(sent - record.generated_at):
            raise ValueError(
                f"request {record.request_id}: send lag must be finite"
            )
        self._records.append(record)

    def note(self, kind: str, n: int = 1) -> None:
        """Tally one outcome event (see :data:`OUTCOME_KEYS`)."""
        outcomes = self._outcomes
        if kind not in outcomes:
            raise ValueError(
                f"unknown outcome {kind!r}; expected one of {OUTCOME_KEYS}"
            )
        self._outcomes_used = True
        lock = self.lock
        if lock is None:
            outcomes[kind] += n
        else:
            with lock:
                outcomes[kind] += n

    def record_attempt(self, latency: float) -> None:
        """Record one per-attempt latency (every attempt with a response)."""
        self._attempt_samples.append(latency)

    def outcome_counts(self) -> Dict[str, int]:
        """Snapshot of the outcome tally (all zeros when unused)."""
        return dict(self._outcomes)

    def snapshot(self) -> CollectedStats:
        """Freeze current contents into an immutable view.

        Each field is copied in one step, so a snapshot taken while
        threads still add is consistent per field, not across them.
        """
        return CollectedStats(
            tuple(self._records),
            self._warmup - self._to_discard,
            tuple(self._attempt_samples),
            dict(self._outcomes) if self._outcomes_used else None,
        )
