"""Live metrics: Counter / Gauge / Histogram primitives and a registry.

The registry instruments the harness's hot paths — per-replica queue
depth, worker busy fraction, in-flight count, shed/retry/hedge rates,
send-delay drift — and a :class:`MetricsSampler` turns the
instantaneous values into per-run time series
(:class:`~repro.core.collector.TimelinePoint` lists, one per metric).

Design constraints, in order:

1. **Zero cost when off.** Nothing here is constructed unless the run
   enables observability; instrumented call sites guard with a single
   ``is None`` test.
2. **Cheap when on.** Counters/gauges are plain attribute updates
   (atomic enough under the GIL for monitoring purposes — these feed
   dashboards, not invariants); histograms bucket with ``bisect``.
3. **Sampled, not logged.** Hot paths never append to unbounded lists;
   a recurring callback on the run's scheduler (the timer thread live,
   an engine event in virtual time) reads the registry at a fixed
   cadence.
"""

from __future__ import annotations

import bisect
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.collector import TimelinePoint

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HdrSketch",
    "MetricsRegistry",
    "MetricsSampler",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets (seconds): log-spaced 10us .. 10s.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1, 1.0, 2.5, 5.0, 10.0,
)


def _full_name(name: str, labels: Dict[str, str]) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count of events."""

    kind = "counter"
    __slots__ = ("name", "labels", "help", "_value")

    def __init__(self, name: str, help: str = "", **labels: str) -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    @property
    def full_name(self) -> str:
        return _full_name(self.name, self.labels)


class Gauge:
    """Instantaneous value: set directly, or backed by a callback.

    A callback gauge (``fn=``) evaluates lazily at read time, which is
    how existing counters (queue depths, transport stats, fault
    tallies) become metrics without touching their hot paths at all.
    """

    kind = "gauge"
    __slots__ = ("name", "labels", "help", "_value", "_fn")

    def __init__(
        self,
        name: str,
        help: str = "",
        fn: Optional[Callable[[], float]] = None,
        **labels: str,
    ) -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        self._value = value

    def add(self, amount: float = 1.0) -> None:
        self._value += amount

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    @property
    def full_name(self) -> str:
        return _full_name(self.name, self.labels)


class Histogram:
    """Fixed-bucket latency histogram (Prometheus-style cumulative).

    Tracks per-bucket counts plus total count and sum, so rates and
    means fall out; :meth:`quantile` interpolates within the winning
    bucket (coarse by design — use the stats collector's HDR
    histograms for publication-grade percentiles).
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "help", "buckets", "counts", "count", "sum")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.labels = labels
        self.help = help
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +1 = +Inf bucket
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def value(self) -> float:
        """Mean observation (the sampler's scalar view of a histogram)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (q in [0, 1]) from bucket counts."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= target:
                if i >= len(self.buckets):
                    return self.buckets[-1]
                return self.buckets[i]
        return self.buckets[-1]

    @property
    def full_name(self) -> str:
        return _full_name(self.name, self.labels)


class HdrSketch:
    """High-dynamic-range latency sketch backed by ``HdrHistogram``.

    Unlike :class:`Histogram`, bucket edges are log-spaced at a fixed
    relative precision rather than hand-picked, so p99/p99.9 are
    recoverable downstream without choosing buckets in advance. The
    Prometheus exporter renders the populated buckets cumulatively
    (see :func:`~repro.obs.exporters.prometheus_text`).
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "help", "hist")

    def __init__(self, name: str, help: str = "", **labels: str) -> None:
        from ..stats import HdrHistogram

        self.name = name
        self.labels = labels
        self.help = help
        self.hist = HdrHistogram()

    def observe(self, value: float) -> None:
        self.hist.record(value)

    def quantile(self, q: float) -> float:
        """q-quantile (q in [0, 1]) at the sketch's bucket precision."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.hist.total_count == 0:
            return 0.0
        return self.hist.percentile(q * 100.0)

    @property
    def count(self) -> int:
        return self.hist.total_count

    @property
    def sum(self) -> float:
        return self.hist.mean * self.hist.total_count

    @property
    def value(self) -> float:
        """Mean observation (the sampler's scalar view of a sketch)."""
        return self.hist.mean if self.hist.total_count else 0.0

    @property
    def full_name(self) -> str:
        return _full_name(self.name, self.labels)


class MetricsRegistry:
    """Named collection of metrics for one run.

    Registration is locked (it happens at setup time); reads and hot
    updates are lock-free. ``counter``/``gauge``/``histogram`` are
    get-or-create, so instrumentation points can be wired
    independently.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, labels: Dict,
                       **kwargs):
        key = _full_name(name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, help=help, **kwargs, **labels)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {key!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self,
        name: str,
        help: str = "",
        fn: Optional[Callable[[], float]] = None,
        **labels: str,
    ) -> Gauge:
        gauge = self._get_or_create(Gauge, name, help, labels)
        if fn is not None:
            gauge._fn = fn
        return gauge

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labels, buckets=buckets
        )

    def hdr(self, name: str, help: str = "", **labels: str) -> HdrSketch:
        return self._get_or_create(HdrSketch, name, help, labels)

    def metrics(self) -> List[object]:
        with self._lock:
            return list(self._metrics.values())

    def snapshot(self) -> Dict[str, float]:
        """Current scalar value of every metric, keyed by full name."""
        return {m.full_name: m.value for m in self.metrics()}


class MetricsSampler:
    """Turns registry values into per-metric time series.

    Each :meth:`sample` appends one point per registered metric. The
    sampler keeps no time of its own: the run schedules :meth:`sample`
    every :attr:`interval` seconds on its scheduler
    (:meth:`repro.core.run.RunParts.start`) — a timer-thread callback
    live, an engine event in the simulator — so both clocks produce
    identical series shapes.
    """

    def __init__(self, registry: MetricsRegistry, clock,
                 interval: float = 0.05) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._registry = registry
        self._clock = clock
        self.interval = interval
        self._series: Dict[str, List[TimelinePoint]] = {}
        self._n_samples = 0

    def sample(self, now: Optional[float] = None) -> None:
        """Record one sample of every registered metric."""
        ts = self._clock.now() if now is None else now
        self._n_samples += 1
        for metric in self._registry.metrics():
            self._series.setdefault(metric.full_name, []).append(
                TimelinePoint(
                    ts, self._n_samples, metric.value,
                    metric=metric.full_name,
                )
            )

    @property
    def series(self) -> Dict[str, List[TimelinePoint]]:
        return {name: list(points) for name, points in self._series.items()}
