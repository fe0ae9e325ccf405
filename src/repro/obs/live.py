"""Streaming observability: windowed sketches, SLO burn-rate alerting,
and exemplar capture (``repro.obs.live``).

Everything else in :mod:`repro.obs` is post-hoc: statistics computed
from a full-run snapshot after the harness stops. :class:`LiveObs` is
the streaming counterpart — it watches the run *while it serves*,
clocked entirely by the timestamps the caller passes in, so the same
object runs identically under the live harness (wall clock) and the
simulator (virtual time), and across threaded and process transports
(process replicas forward their events through
:mod:`repro.obs.forward`; the parent's completion path feeds this
class exactly as the threaded one does).

Three cooperating pieces:

1. **Windowed sketches** — time is cut into fixed windows anchored at
   :meth:`LiveObs.set_origin`. Each completion feeds an
   :class:`~repro.stats.HdrHistogram` for the current window plus
   cumulative per-replica and per-request-class sketches, so
   p50/p95/p99/p99.9 are available per window, sliding (last
   ``slow_windows`` windows merged), and cumulative — no end-of-run
   snapshot required.
2. **SLO burn-rate monitor** — multi-window, multi-burn-rate alerting
   in the SRE mold. The SLO declares a latency target and an
   objective (e.g. 99% of requests under 100 ms); *burn rate* is the
   observed bad fraction divided by the error budget
   (``1 - objective``). An alert fires only when BOTH the fast
   horizon (quick detection) and the slow horizon (sustained damage)
   burn faster than their thresholds, and clears with hysteresis at
   ``clear_factor`` of those thresholds — so a burn rate that
   hovers at the threshold cannot flap. Transitions emit
   ``slo_burn`` / ``slo_clear`` trace events and append to an
   :class:`AlertLog` that experiments consult directly.

   Budget accounting is *send-anchored*: per window,
   ``bad = max(sent - good, 0)`` over ``total = max(sent, good, 1)``.
   A stalled replica completes almost nothing — a completion-counted
   bad fraction would paradoxically stay low — but its queued,
   never-finishing work shows up as sends without matching good
   completions and burns budget immediately. Each request burns
   budget at most once (in the window it was sent).
3. **Exemplar capture** — a seeded reservoir of the slowest requests
   per window, each retaining its full timestamp chain
   (:class:`~repro.core.request.RequestRecord`). Ties break on a
   seeded RNG draw, so the selection is deterministic per seed in the
   single-threaded simulator.

Disabled cost is structurally zero: with ``slo.enabled`` False the
harness constructs no ``LiveObs`` at all and the hot paths guard with
one ``is None`` test — the same bar the tracer and health layers meet.
"""

from __future__ import annotations

import heapq
import math
import random
import threading
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.config import SloConfig
from ..stats import HdrHistogram

__all__ = [
    "QUANTILE_LABELS",
    "Exemplar",
    "AlertEvent",
    "AlertLog",
    "BurnRateMonitor",
    "WindowSnapshot",
    "LiveReport",
    "LiveObs",
]

#: Reported quantiles, as (label, percentile) pairs.
QUANTILE_LABELS: Tuple[Tuple[str, float], ...] = (
    ("p50", 50.0),
    ("p95", 95.0),
    ("p99", 99.0),
    ("p99.9", 99.9),
)


def _quantiles(hist: Optional[HdrHistogram]) -> Dict[str, float]:
    if hist is None or hist.total_count == 0:
        return {}
    return {label: hist.percentile(pct) for label, pct in QUANTILE_LABELS}


@dataclass(frozen=True)
class Exemplar:
    """One captured slow request: identity plus its full stamp chain."""

    window_index: int
    sojourn: float
    server_id: int
    generated_at: float
    request_class: Optional[str]
    logical_id: Optional[int]
    attempt: int
    record: object  # RequestRecord — the full timestamp chain


@dataclass(frozen=True)
class AlertEvent:
    """One burn-rate alert transition."""

    kind: str  # "fire" | "clear"
    ts: float  # window boundary where the transition was evaluated
    window_index: int
    fast_burn: float
    slow_burn: float


class AlertLog:
    """Ordered record of burn-rate alert transitions for one run."""

    def __init__(self) -> None:
        self._events: List[AlertEvent] = []

    def append(self, event: AlertEvent) -> None:
        self._events.append(event)

    @property
    def events(self) -> Tuple[AlertEvent, ...]:
        return tuple(self._events)

    def fires(self) -> Tuple[AlertEvent, ...]:
        return tuple(e for e in self._events if e.kind == "fire")

    def clears(self) -> Tuple[AlertEvent, ...]:
        return tuple(e for e in self._events if e.kind == "clear")

    @property
    def first_fire_at(self) -> Optional[float]:
        fires = self.fires()
        return fires[0].ts if fires else None

    def active_at(self, ts: float) -> bool:
        """Whether the alert was in the fired state at instant ``ts``."""
        active = False
        for event in self._events:
            if event.ts > ts:
                break
            active = event.kind == "fire"
        return active

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AlertLog({len(self._events)} transitions)"


class BurnRateMonitor:
    """Multi-window multi-burn-rate evaluator over per-window tallies.

    Fed one ``(good, bad, total)`` tally per *completed* window, in
    order. Fires when both the fast-horizon and slow-horizon burn
    rates exceed their thresholds; clears with hysteresis at
    ``clear_factor`` of the thresholds. Between the two bands the
    state holds — that dead zone is what prevents flapping when the
    burn rate sits exactly at a threshold.
    """

    def __init__(self, config: SloConfig, tracer=None) -> None:
        self._config = config
        self._tracer = tracer
        # (good, bad, total) per window, newest last.
        self._tallies: deque = deque(maxlen=config.slow_windows)
        self.active = False
        self.fast_burn = 0.0
        self.slow_burn = 0.0
        self.log = AlertLog()

    def _burn(self, horizon: int) -> float:
        recent = list(self._tallies)[-horizon:]
        bad = sum(t[1] for t in recent)
        total = sum(t[2] for t in recent)
        if total <= 0:
            return 0.0
        return (bad / total) / self._config.error_budget

    def push(
        self, good: int, bad: int, total: int,
        window_index: int, window_end: float,
    ) -> Optional[AlertEvent]:
        """Absorb one completed window; return the transition, if any."""
        cfg = self._config
        self._tallies.append((good, bad, total))
        self.fast_burn = self._burn(cfg.fast_windows)
        self.slow_burn = self._burn(cfg.slow_windows)
        event: Optional[AlertEvent] = None
        if (
            not self.active
            and self.fast_burn >= cfg.fast_burn
            and self.slow_burn >= cfg.slow_burn
        ):
            self.active = True
            event = AlertEvent(
                "fire", window_end, window_index,
                self.fast_burn, self.slow_burn,
            )
        elif (
            self.active
            and self.fast_burn <= cfg.clear_factor * cfg.fast_burn
            and self.slow_burn <= cfg.clear_factor * cfg.slow_burn
        ):
            self.active = False
            event = AlertEvent(
                "clear", window_end, window_index,
                self.fast_burn, self.slow_burn,
            )
        if event is not None:
            self.log.append(event)
            if self._tracer is not None:
                self._tracer.emit(
                    "slo_burn" if event.kind == "fire" else "slo_clear",
                    window_end, value=self.fast_burn,
                )
        return event


@dataclass(frozen=True)
class WindowSnapshot:
    """Closed-window tally: counts, quantiles, and captured exemplars.

    ``partial`` marks the trailing snapshot :meth:`LiveObs.finish`
    takes of the still-open window; partial windows never feed the
    burn-rate monitor (their tallies would under-count).
    """

    index: int
    start: float
    end: float
    sent: int
    completed: int
    good: int
    bad: int
    quantiles: Dict[str, float]
    fast_burn: float
    slow_burn: float
    exemplars: Tuple[Exemplar, ...]
    partial: bool = False

    @property
    def bad_fraction(self) -> float:
        total = max(self.sent, self.good, 1)
        return self.bad / total


@dataclass(frozen=True)
class LiveReport:
    """Frozen end-of-run view of the streaming layer.

    Carried on :class:`~repro.obs.ObsResult` as ``.live`` when the run
    enabled SLO monitoring; ``None`` otherwise.
    """

    config: SloConfig
    windows: Tuple[WindowSnapshot, ...]
    alerts: AlertLog
    quantiles: Dict[str, float]
    sliding: Dict[str, float]
    per_server: Dict[int, Dict[str, float]]
    per_class: Dict[str, Dict[str, float]]
    sent: int
    completed: int
    good: int
    bad: int
    elapsed: float = 0.0

    @property
    def exemplars(self) -> Tuple[Exemplar, ...]:
        """All captured exemplars, in window order."""
        return tuple(e for w in self.windows for e in w.exemplars)

    @property
    def attainment(self) -> float:
        """Fraction of send-anchored budget units that met the SLO."""
        total = max(self.sent, self.good, 1)
        return 1.0 - self.bad / total

    def describe(self) -> str:
        cfg = self.config
        lines = [
            f"SLO: {cfg.objective:.1%} of requests under "
            f"{cfg.target * 1e3:.1f} ms "
            f"(error budget {cfg.error_budget:.2%})",
            f"windows: {len(self.windows)} x {cfg.window:g}s, "
            f"sent={self.sent} completed={self.completed} "
            f"good={self.good} bad={self.bad} "
            f"(attainment {self.attainment:.2%})",
        ]
        if self.quantiles:
            qs = "  ".join(
                f"{label}={self.quantiles[label] * 1e3:.2f}ms"
                for label, _ in QUANTILE_LABELS
                if label in self.quantiles
            )
            lines.append(f"cumulative latency: {qs}")
        fires, clears = self.alerts.fires(), self.alerts.clears()
        if fires:
            lines.append(
                f"alerts: {len(fires)} fire(s), {len(clears)} clear(s); "
                f"first fire at t={fires[0].ts:g}s "
                f"(fast burn {fires[0].fast_burn:.1f}x budget)"
            )
        else:
            lines.append("alerts: none fired")
        return "\n".join(lines)


class _WindowAccumulator:
    """Mutable state of the currently open window."""

    __slots__ = ("sent", "completed", "good", "hist", "heap", "seq")

    def __init__(self) -> None:
        self.sent = 0
        self.completed = 0
        self.good = 0
        self.hist: Optional[HdrHistogram] = None
        # Min-heap of (sojourn, tiebreak, seq, exemplar): the root is
        # the *least* slow retained request, evicted first.
        self.heap: List[Tuple[float, float, int, Exemplar]] = []
        self.seq = 0


class LiveObs:
    """Streaming SLO engine: one send feed and one completion feed.

    Clocked purely by caller-passed timestamps — no wall-clock reads —
    so the identical object serves the live harness and the virtual-
    time simulator. One internal lock makes the live (multi-threaded)
    feed safe; the simulator's single-threaded feed pays an
    uncontended acquire.

    Parameters
    ----------
    config:
        The :class:`~repro.core.config.SloConfig` (must be enabled).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; alert transitions
        emit ``slo_burn``/``slo_clear`` events into it.
    seed:
        Seeds the exemplar-reservoir tie-break RNG.
    """

    def __init__(self, config: SloConfig, tracer=None, seed: int = 0) -> None:
        if not config.enabled:
            raise ValueError(
                "LiveObs requires SloConfig(enabled=True) — a disabled run "
                "must not construct the streaming layer at all"
            )
        self._config = config
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self._origin: Optional[float] = None
        self._index = 0
        self._win = _WindowAccumulator()
        self._windows: List[WindowSnapshot] = []
        # Last slow_windows closed-window hists, for sliding quantiles.
        self._recent: deque = deque(maxlen=config.slow_windows)
        self.monitor = BurnRateMonitor(config, tracer=tracer)
        self._cumulative = HdrHistogram()
        self._per_server: Dict[int, HdrHistogram] = {}
        self._per_class: Dict[str, HdrHistogram] = {}
        self._sent = 0
        self._completed = 0
        self._good = 0
        self._bad = 0
        # Optional registry mirrors (None unless register_metrics ran).
        self._metric_overall = None
        self._metric_server: Dict[int, object] = {}
        self._registry = None

    # -- wiring --------------------------------------------------------
    def set_origin(self, ts: float) -> None:
        """Anchor window boundaries at ``ts`` (run start).

        The simulator passes ``0.0``; the harness passes its start
        instant. Deterministic boundaries are what let experiments
        align fault onsets to windows and assert alert timing.
        """
        with self._lock:
            if self._origin is not None:
                raise RuntimeError("origin already set")
            self._origin = ts

    def register_metrics(self, registry) -> None:
        """Mirror the stream into a :class:`MetricsRegistry`.

        Registers a cumulative ``tb_latency_live_seconds``
        :class:`~repro.obs.metrics.HdrSketch` (overall + per replica,
        created lazily as replicas appear) and burn-rate gauges backed
        by the monitor, so the existing sampler time-series machinery
        picks the SLO state up with no extra plumbing.
        """
        with self._lock:
            self._registry = registry
            self._metric_overall = registry.hdr(
                "tb_latency_live_seconds",
                help="Streaming sojourn-time sketch (live SLO engine)",
            )
            monitor = self.monitor
            registry.gauge(
                "tb_slo_fast_burn",
                help="Fast-horizon SLO burn rate (multiples of budget)",
                fn=lambda: monitor.fast_burn,
            )
            registry.gauge(
                "tb_slo_slow_burn",
                help="Slow-horizon SLO burn rate (multiples of budget)",
                fn=lambda: monitor.slow_burn,
            )
            registry.gauge(
                "tb_slo_alert_active",
                help="1 while the burn-rate alert is firing",
                fn=lambda: 1.0 if monitor.active else 0.0,
            )

    # -- window machinery ----------------------------------------------
    def _window_index(self, ts: float) -> int:
        # Epsilon absorbs float noise at exact boundaries; late events
        # (ts before the open window, possible under live threading)
        # clamp into the open window rather than rewriting history.
        idx = int(math.floor((ts - self._origin) / self._config.window + 1e-9))
        return max(idx, self._index)

    def _rotate_to(self, target: int) -> None:
        """Close windows until ``target`` is the open one."""
        while self._index < target:
            self._close_window(partial=False)
            self._index += 1
            self._win = _WindowAccumulator()

    def _close_window(self, partial: bool, end_ts: Optional[float] = None
                      ) -> None:
        cfg = self._config
        win = self._win
        start = self._origin + self._index * cfg.window
        end = start + cfg.window if end_ts is None else end_ts
        bad = max(win.sent - win.good, 0)
        total = max(win.sent, win.good, 1)
        self._bad += bad
        if not partial:
            self.monitor.push(win.good, bad, total, self._index, end)
            self._recent.append(win.hist)
        # Slowest first; the seeded tie-break decides equal sojourns.
        exemplars = tuple(
            entry[3]
            for entry in sorted(
                win.heap, key=lambda e: (-e[0], e[1], e[2])
            )
        )
        self._windows.append(
            WindowSnapshot(
                index=self._index,
                start=start,
                end=end,
                sent=win.sent,
                completed=win.completed,
                good=win.good,
                bad=bad,
                quantiles=_quantiles(win.hist),
                fast_burn=self.monitor.fast_burn,
                slow_burn=self.monitor.slow_burn,
                exemplars=exemplars,
                partial=partial,
            )
        )

    def _advance(self, ts: float) -> None:
        if self._origin is None:
            self._origin = ts
        self._rotate_to(self._window_index(ts))

    # -- hot-path feeds ------------------------------------------------
    def observe_sent(self, ts: float) -> None:
        """Count one dispatched attempt (the send-anchored budget unit)."""
        with self._lock:
            self._advance(ts)
            self._win.sent += 1
            self._sent += 1

    def observe(self, request) -> None:
        """Absorb one completed (or rejected) attempt.

        Called from the transport's completion path (threaded, process
        or simulated) — the same place the health layer taps.
        """
        cfg = self._config
        with self._lock:
            ts = request.response_received_at
            if ts is None:
                ts = request.generated_at
            self._advance(ts)
            win = self._win
            win.completed += 1
            self._completed += 1
            record = request.finish(partial=True)
            if not record.complete:
                return
            sojourn = record.sojourn_time
            good = (
                request.error is None
                and not record.shed
                and sojourn <= cfg.target
                and (request.deadline is None or ts <= request.deadline)
            )
            if good:
                win.good += 1
                self._good += 1
            if win.hist is None:
                win.hist = HdrHistogram()
            win.hist.record(sojourn)
            self._cumulative.record(sojourn)
            server_id = record.server_id
            per_server = self._per_server.get(server_id)
            if per_server is None:
                per_server = self._per_server[server_id] = HdrHistogram()
            per_server.record(sojourn)
            if record.request_class is not None:
                per_class = self._per_class.get(record.request_class)
                if per_class is None:
                    per_class = HdrHistogram()
                    self._per_class[record.request_class] = per_class
                per_class.record(sojourn)
            if self._metric_overall is not None:
                self._metric_overall.observe(sojourn)
                sketch = self._metric_server.get(server_id)
                if sketch is None:
                    sketch = self._registry.hdr(
                        "tb_latency_live_seconds",
                        help="Streaming sojourn-time sketch (live SLO "
                             "engine)",
                        server=str(server_id),
                    )
                    self._metric_server[server_id] = sketch
                sketch.observe(sojourn)
            # Exemplar reservoir: top-N slowest this window. One RNG
            # draw per complete observation keeps consumption — and so
            # the per-seed selection — independent of heap state.
            tiebreak = self._rng.random()
            heap = win.heap
            if len(heap) < cfg.exemplars_per_window or (
                (sojourn, tiebreak) > (heap[0][0], heap[0][1])
            ):
                exemplar = Exemplar(
                    window_index=self._index,
                    sojourn=sojourn,
                    server_id=server_id,
                    generated_at=record.generated_at,
                    request_class=record.request_class,
                    logical_id=record.logical_id,
                    attempt=record.attempt,
                    record=record,
                )
                entry = (sojourn, tiebreak, win.seq, exemplar)
                win.seq += 1
                if len(heap) < cfg.exemplars_per_window:
                    heapq.heappush(heap, entry)
                else:
                    heapq.heapreplace(heap, entry)

    # -- teardown ------------------------------------------------------
    def finish(self, now: float) -> LiveReport:
        """Close out the stream and freeze the report.

        Full windows before ``now`` are rotated (and fed to the
        monitor); the still-open window, if it saw any traffic,
        becomes a trailing *partial* snapshot that the monitor never
        sees.
        """
        with self._lock:
            if self._origin is None:
                self._origin = 0.0
            self._rotate_to(self._window_index(now))
            win = self._win
            if win.sent or win.completed:
                self._close_window(partial=True, end_ts=now)
            sliding = HdrHistogram()
            for hist in self._recent:
                if hist is not None:
                    sliding.merge(hist)
            return LiveReport(
                config=self._config,
                windows=tuple(self._windows),
                alerts=self.monitor.log,
                quantiles=_quantiles(self._cumulative),
                sliding=_quantiles(sliding),
                per_server={
                    sid: _quantiles(hist)
                    for sid, hist in sorted(self._per_server.items())
                },
                per_class={
                    name: _quantiles(hist)
                    for name, hist in sorted(self._per_class.items())
                },
                sent=self._sent,
                completed=self._completed,
                good=self._good,
                bad=self._bad,
                elapsed=max(0.0, now - self._origin),
            )
