"""Statistics collector.

Aggregates per-request timing into the three latency axes the paper
reports — queue time, service time, and sojourn time. For short runs
it keeps every :class:`RequestRecord` (maximum accuracy, full
distributions); beyond a configurable threshold it switches to HDR
histograms (logarithmic space, <=1% value error), mirroring Sec. IV-C.

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
from typing import Dict, List, Optional, Sequence

from ..stats import HdrHistogram, LatencySummary
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


class CollectedStats:
    """Immutable view over one run's collected latency data."""

    def __init__(
        self,
        records: Optional[List[RequestRecord]],
        histograms: Optional[Dict[str, HdrHistogram]],
        dropped_warmup: int,
        attempt_samples: Optional[List[float]] = None,
        attempt_histogram: Optional[HdrHistogram] = None,
        outcomes: Optional[Dict[str, int]] = None,
        server_histograms: Optional[Dict[int, Dict[str, HdrHistogram]]] = None,
        batch_members: Optional[Dict[int, int]] = None,
        send_lag_hist: Optional[HdrHistogram] = None,
    ) -> None:
        self._records = records
        self._histograms = histograms
        self.dropped_warmup = dropped_warmup
        self._attempt_samples = attempt_samples
        self._attempt_histogram = attempt_histogram
        self._outcomes = dict(outcomes) if outcomes else {}
        self._server_histograms = server_histograms
        self._batch_members = dict(batch_members) if batch_members else {}
        self._send_lag_hist = send_lag_hist

    @property
    def exact(self) -> bool:
        """True when full per-request records were retained."""
        return self._records is not None

    @property
    def count(self) -> int:
        if self._records is not None:
            return len(self._records)
        return self._histograms["sojourn"].total_count

    @property
    def records(self) -> Sequence[RequestRecord]:
        if self._records is None:
            raise ValueError("per-request records were not retained (HDR mode)")
        return tuple(self._records)

    def samples(self, metric: str = "sojourn") -> List[float]:
        if metric not in _METRICS:
            raise ValueError(f"unknown metric {metric!r}; expected {_METRICS}")
        if self._records is None:
            raise ValueError("per-request records were not retained (HDR mode)")
        attr = f"{metric}_time"
        return [getattr(r, attr) for r in self._records]

    def histogram(self, metric: str = "sojourn") -> HdrHistogram:
        if metric not in _METRICS:
            raise ValueError(f"unknown metric {metric!r}; expected {_METRICS}")
        if self._histograms is not None:
            return self._histograms[metric]
        hist = HdrHistogram()
        for value in self.samples(metric):
            hist.record(max(value, 0.0))
        return hist

    def summary(self, metric: str = "sojourn") -> LatencySummary:
        if self.count == 0:
            raise ValueError("no requests were collected")
        if self._records is not None:
            return LatencySummary.from_samples(self.samples(metric))
        return LatencySummary.from_histogram(self._histograms[metric])

    def slo_attainment(self, target: float) -> float:
        """Fraction of collected completions with sojourn <= ``target``.

        The post-hoc cross-check for the streaming layer's
        completion-side accounting (:mod:`repro.obs.live` counts
        send-anchored budget units, which additionally charge work
        that never completed). 1.0 when nothing was collected.
        """
        if target <= 0.0:
            raise ValueError("target must be positive")
        if self.count == 0:
            return 1.0
        if self._records is not None:
            met = sum(1 for r in self._records if r.sojourn_time <= target)
            return met / len(self._records)
        hist = self._histograms["sojourn"]
        return hist.count_between(0.0, target) / hist.total_count

    @property
    def outcomes(self) -> Dict[str, int]:
        """Outcome tally (see :data:`OUTCOME_KEYS`); empty when unused."""
        return dict(self._outcomes)

    # -- coordinated-omission audit ------------------------------------
    def send_lag_summary(self) -> Optional[LatencySummary]:
        """Intended-vs-actual send-time divergence of the load generator.

        Summarizes ``sent_at - generated_at`` over every measured
        completion: how far behind its ideal open-loop instant each
        request actually left the client. Persistent growth means the
        *generator* could not sustain the offered rate — latencies are
        then understated in exactly the way coordinated omission hides
        [Tene 2013] — so every run reports this audit alongside its
        latency numbers. None when nothing was measured.
        """
        if self._send_lag_hist is None or self._send_lag_hist.total_count == 0:
            return None
        return LatencySummary.from_histogram(self._send_lag_hist)

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
        if self._records is not None:
            return sorted({r.server_id for r in self._records})
        if self._server_histograms:
            return sorted(self._server_histograms)
        return []

    def server_count(self, server_id: int) -> int:
        """Measured completions served by one instance."""
        if self._records is not None:
            return sum(1 for r in self._records if r.server_id == server_id)
        if self._server_histograms and server_id in self._server_histograms:
            return self._server_histograms[server_id]["sojourn"].total_count
        return 0

    def server_samples(
        self, server_id: int, metric: str = "sojourn"
    ) -> List[float]:
        """One instance's latency samples (exact mode only)."""
        if metric not in _METRICS:
            raise ValueError(f"unknown metric {metric!r}; expected {_METRICS}")
        if self._records is None:
            raise ValueError("per-request records were not retained (HDR mode)")
        attr = f"{metric}_time"
        return [
            getattr(r, attr) for r in self._records if r.server_id == server_id
        ]

    def server_summary(
        self, server_id: int, metric: str = "sojourn"
    ) -> LatencySummary:
        """Latency summary over one instance's measured completions."""
        if self._records is not None:
            samples = self.server_samples(server_id, metric)
            if not samples:
                raise ValueError(f"no requests measured on server {server_id}")
            return LatencySummary.from_samples(samples)
        if not self._server_histograms or server_id not in self._server_histograms:
            raise ValueError(f"no requests measured on server {server_id}")
        return LatencySummary.from_histogram(
            self._server_histograms[server_id][metric]
        )

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
        """Request classes with at least one measured record (exact mode)."""
        if self._records is None:
            return []
        return sorted(
            {r.request_class for r in self._records if r.request_class}
        )

    def class_summary(
        self, request_class: str, metric: str = "sojourn"
    ) -> LatencySummary:
        """Latency summary over one request class (exact mode only)."""
        if metric not in _METRICS:
            raise ValueError(f"unknown metric {metric!r}; expected {_METRICS}")
        if self._records is None:
            raise ValueError("per-request records were not retained (HDR mode)")
        attr = f"{metric}_time"
        samples = [
            getattr(r, attr)
            for r in self._records
            if r.request_class == request_class
        ]
        if not samples:
            raise ValueError(f"no requests measured in class {request_class!r}")
        return LatencySummary.from_samples(samples)

    def per_class(self, metric: str = "sojourn") -> Dict[str, LatencySummary]:
        """Per-request-class latency summaries, keyed by class name.

        Empty when no classifier ran (all records unclassified) or in
        HDR mode; the priority-scheduling experiments use exact mode.
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
        return dict(self._batch_members)

    @property
    def mean_batch_size(self) -> float:
        """Request-weighted mean batch occupancy (1.0 when unbatched).

        The average number of co-scheduled requests a measured request
        shared its service window with; together with
        :attr:`~repro.core.request.RequestRecord.service_share` this is
        the collector's per-request cost attribution: a batch's service
        window, divided evenly over its members.
        """
        members = sum(self._batch_members.values())
        if members == 0:
            return 1.0
        weighted = sum(k * n for k, n in self._batch_members.items())
        return weighted / members

    @property
    def attempt_count(self) -> int:
        """Number of per-attempt latency samples recorded."""
        if self._attempt_samples is not None:
            return len(self._attempt_samples)
        if self._attempt_histogram is not None:
            return self._attempt_histogram.total_count
        return 0

    def attempt_samples(self) -> List[float]:
        if self._attempt_samples is None:
            raise ValueError("per-attempt samples were not retained")
        return list(self._attempt_samples)

    def attempt_summary(self) -> LatencySummary:
        """Latency summary over every attempt that got a response.

        Includes retries, hedges, error replies, and shed replies —
        the wire's view, as opposed to ``summary()``'s success-only,
        logical-request view.
        """
        if self.attempt_count == 0:
            raise ValueError("no attempt latencies were collected")
        if self._attempt_samples is not None:
            return LatencySummary.from_samples(self._attempt_samples)
        return LatencySummary.from_histogram(self._attempt_histogram)

    def timeline(
        self, metric: str = "sojourn", n_windows: int = 10, pct: float = 95.0
    ) -> List["TimelinePoint"]:
        """Percentile-over-time: ``pct`` of ``metric`` per time window.

        Splits the measurement interval (by request generation instant)
        into equal windows. A flat timeline indicates steady state; a
        trend means the warmup was too short or the system is drifting
        (the paper's hysteresis concern, Sec. IV-C). Exact mode only.
        """
        if n_windows < 2:
            raise ValueError("need at least 2 windows")
        if not 0.0 < pct < 100.0:
            raise ValueError("pct must be in (0, 100)")
        records = self.records  # raises in HDR mode
        if len(records) < n_windows:
            raise ValueError("fewer records than windows")
        from ..stats import percentile as _percentile

        start = min(r.generated_at for r in records)
        end = max(r.generated_at for r in records)
        span = max(end - start, 1e-12)
        attr = f"{metric}_time"
        buckets: List[List[float]] = [[] for _ in range(n_windows)]
        for record in records:
            idx = min(
                n_windows - 1,
                int((record.generated_at - start) / span * n_windows),
            )
            buckets[idx].append(getattr(record, attr))
        points = []
        for i, bucket in enumerate(buckets):
            if not bucket:
                continue
            mid = start + (i + 0.5) * span / n_windows
            points.append(
                TimelinePoint(
                    mid, len(bucket), _percentile(bucket, pct),
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
        records = self.records
        if len(records) < 20:
            raise ValueError("too few records for a steadiness check")
        from ..stats import percentile as _percentile

        ordered = sorted(records, key=lambda r: r.generated_at)
        half = len(ordered) // 2
        attr = f"{metric}_time"
        first = _percentile([getattr(r, attr) for r in ordered[:half]], pct)
        second = _percentile([getattr(r, attr) for r in ordered[half:]], pct)
        if first == 0 and second == 0:
            return True
        base = max(first, second)
        return abs(second - first) / base <= tolerance


class StatsCollector:
    """Thread-safe sink for completed request records.

    Parameters
    ----------
    warmup_requests:
        Number of initial completions to discard (steady-state only,
        per the paper's warmup rule).
    exact_limit:
        Keep full records up to this many measured requests; past it,
        degrade gracefully to HDR histograms.
    """

    def __init__(
        self, warmup_requests: int = 0, exact_limit: int = 200_000
    ) -> None:
        if warmup_requests < 0:
            raise ValueError("warmup_requests must be >= 0")
        if exact_limit < 1:
            raise ValueError("exact_limit must be >= 1")
        self._warmup = warmup_requests
        self._exact_limit = exact_limit
        self._lock = threading.Lock()
        self._seen = 0
        self._records: Optional[List[RequestRecord]] = []
        self._histograms: Optional[Dict[str, HdrHistogram]] = None
        self._server_histograms: Optional[Dict[int, Dict[str, HdrHistogram]]] = None
        self._dropped = 0
        self._attempt_samples: Optional[List[float]] = []
        self._attempt_histogram: Optional[HdrHistogram] = None
        self._outcomes: Dict[str, int] = dict.fromkeys(OUTCOME_KEYS, 0)
        self._outcomes_used = False
        self._batch_members: Dict[int, int] = {}
        self._send_lag_hist = HdrHistogram()

    def add(self, record: RequestRecord) -> None:
        with self._lock:
            self._seen += 1
            if self._seen <= self._warmup:
                self._dropped += 1
                return
            size = record.batch_size
            self._batch_members[size] = self._batch_members.get(size, 0) + 1
            if record.sent_at is not None:
                # Coordinated-omission audit: how late the generator
                # actually sent, relative to the ideal instant.
                self._send_lag_hist.record(max(record.send_delay, 0.0))
            if self._records is not None:
                self._records.append(record)
                if len(self._records) > self._exact_limit:
                    self._switch_to_histograms_locked()
            else:
                self._record_into_histograms_locked(record)

    def _switch_to_histograms_locked(self) -> None:
        self._histograms = {m: HdrHistogram() for m in _METRICS}
        self._server_histograms = {}
        for rec in self._records:
            self._record_into_histograms_locked(rec)
        self._records = None

    def _record_into_histograms_locked(self, record: RequestRecord) -> None:
        per_server = self._server_histograms.setdefault(
            record.server_id, {m: HdrHistogram() for m in _METRICS}
        )
        for metric in _METRICS:
            value = max(getattr(record, f"{metric}_time"), 0.0)
            self._histograms[metric].record(value)
            per_server[metric].record(value)

    def note(self, kind: str, n: int = 1) -> None:
        """Tally one outcome event (see :data:`OUTCOME_KEYS`)."""
        if kind not in self._outcomes:
            raise ValueError(
                f"unknown outcome {kind!r}; expected one of {OUTCOME_KEYS}"
            )
        with self._lock:
            self._outcomes[kind] += n
            self._outcomes_used = True

    def record_attempt(self, latency: float) -> None:
        """Record one per-attempt latency (every attempt with a response)."""
        with self._lock:
            if self._attempt_samples is not None:
                self._attempt_samples.append(latency)
                if len(self._attempt_samples) > self._exact_limit:
                    self._attempt_histogram = HdrHistogram()
                    for value in self._attempt_samples:
                        self._attempt_histogram.record(max(value, 0.0))
                    self._attempt_samples = None
            else:
                self._attempt_histogram.record(max(latency, 0.0))

    def outcome_counts(self) -> Dict[str, int]:
        """Snapshot of the outcome tally (all zeros when unused)."""
        with self._lock:
            return dict(self._outcomes)

    def snapshot(self) -> CollectedStats:
        """Freeze current contents into an immutable view."""
        with self._lock:
            attempt_samples = (
                list(self._attempt_samples)
                if self._attempt_samples is not None
                else None
            )
            attempt_histogram = (
                self._attempt_histogram.copy()
                if self._attempt_histogram is not None
                else None
            )
            outcomes = dict(self._outcomes) if self._outcomes_used else None
            send_lag_hist = self._send_lag_hist.copy()
            if self._records is not None:
                return CollectedStats(
                    list(self._records),
                    None,
                    self._dropped,
                    attempt_samples=attempt_samples,
                    attempt_histogram=attempt_histogram,
                    outcomes=outcomes,
                    batch_members=dict(self._batch_members),
                    send_lag_hist=send_lag_hist,
                )
            return CollectedStats(
                None,
                {m: h.copy() for m, h in self._histograms.items()},
                self._dropped,
                attempt_samples=attempt_samples,
                attempt_histogram=attempt_histogram,
                outcomes=outcomes,
                server_histograms={
                    sid: {m: h.copy() for m, h in per_server.items()}
                    for sid, per_server in self._server_histograms.items()
                },
                batch_members=dict(self._batch_members),
                send_lag_hist=send_lag_hist,
            )
