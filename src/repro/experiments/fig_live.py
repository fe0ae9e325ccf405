"""Live-observability extension: catching and explaining an SLO burn.

Plays the ``slow_replica`` chaos scenario — one of three replicas
serving every request ~15x slower than normal for a timed window —
with the streaming observability layer (:mod:`repro.obs.live`) armed:
a latency SLO (99th-percentile-style attainment target declared as
"``objective`` of requests under ``target``"), multi-window burn-rate
alerting, per-window quantile sketches, and exemplar capture.

The question the figure answers is *operational*, not statistical:
when one replica silently degrades, how fast does the burn-rate alert
fire, and does the tail-attribution report name the right cause? The
acceptance bar:

- the ``slo_burn`` alert fires within one fast horizon
  (``fast_windows x window``) of the fault onset — the degraded
  replica's queued work burns budget from the moment it stops
  completing, because the SLO accounting is send-anchored;
- the ranked tail report (:func:`repro.obs.attribution.tail_report`)
  attributes the p99 to **queue wait on the faulted replica during
  the fault phase** — not to service time (the per-request stall is
  modest; the damage is the backlog it creates), and not to the
  healthy replicas.

Both execution modes run the identical scenario: the live harness
(sleep application, wall clock) and the discrete-event simulator
(identical service-time distribution, virtual time). The verdict is
judged on the deterministic simulator arm; the live arm corroborates
it but carries scheduler noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.config import ObservabilityConfig, SloConfig
from ..faults import slow_replica
from ..stats import LogNormal
from .reporting import ascii_table
from .sleep_app import SleepApp

__all__ = [
    "LiveObsArm",
    "LiveObsComparison",
    "run_fig_live",
    "render_fig_live",
]

#: Service-time distribution shared by the live sleep app and the
#: simulator: 10 ms mean, moderate tail.
_APP = SleepApp(LogNormal(mean=10e-3, sigma=0.3))

#: Replicas behind the (deliberately blind) round-robin balancer.
_N_SERVERS = 3

#: Offered load as a fraction of aggregate capacity: low enough that
#: healthy replicas hold the SLO with room to spare (baseline bad
#: fraction ~1%, well inside the 10% error budget), high enough that
#: the faulted replica's backlog grows without bound during the fault.
_LOAD_FRACTION = 0.55

#: The degraded replica's per-request stall: ~15x the mean service
#: time, so every request it serves during the fault blows the
#: latency target and its queue grows at ~90% of its arrival rate.
_SLOW_PAUSE = 0.15

#: Index of the replica the scenario degrades.
_FAULT_SERVER = _N_SERVERS - 1


@dataclass(frozen=True)
class LiveObsArm:
    """One mode's streaming-observability outcome."""

    mode: str  # "live" | "sim"
    alert_fired: bool
    #: Fire instant minus fault onset (None if it never fired).
    fire_offset: Optional[float]
    alert_cleared: bool
    #: Top-ranked tail cause, as (component, server_id, phase).
    top_cause: Optional[Tuple[str, int, str]]
    #: Share of tail excess the top cause explains.
    top_share: float
    #: Send-anchored SLO attainment over the whole run.
    attainment: float
    #: Mean per-window p99 before the fault vs during it.
    p99_pre: float
    p99_fault: float
    n_windows: int
    n_exemplars: int
    #: Completion-side attainment from the collector, for cross-check
    #: (counts only completed requests; the streaming number also
    #: charges work that never completed).
    collector_attainment: float


@dataclass(frozen=True)
class LiveObsComparison:
    """Streaming SLO engine vs a one-replica slowdown, live and sim."""

    time_scale: float
    fault_start: float
    fault_end: float
    horizon: float
    offered_qps: float
    slo: SloConfig
    arms: Dict[str, LiveObsArm]

    def verdict(self) -> Tuple[bool, str]:
        """(reproduced?, sentence), judged on the simulator arm.

        Reproduced means: the burn-rate alert fired within one fast
        horizon of the fault onset, and the tail report's top cause is
        queue wait on the faulted replica in the fault phase.
        """
        mode = "sim" if "sim" in self.arms else "live"
        arm = self.arms[mode]
        fast_horizon = self.slo.fast_horizon
        fired_in_time = (
            arm.alert_fired
            and arm.fire_offset is not None
            and -1e-9 <= arm.fire_offset <= fast_horizon + 1e-9
        )
        blamed_queue = arm.top_cause is not None and arm.top_cause[:2] == (
            "queue", _FAULT_SERVER,
        ) and arm.top_cause[2] == "fault"
        ok = fired_in_time and blamed_queue
        if ok:
            sentence = (
                f"SLO burn caught and explained: alert fired "
                f"{arm.fire_offset:.2f}s after fault onset (fast horizon "
                f"{fast_horizon:g}s), attribution ranks queue wait on "
                f"server {_FAULT_SERVER} in the fault phase as the top "
                f"p99 cause ({arm.top_share:.0%} of tail excess); "
                f"window p99 rose from {arm.p99_pre * 1e3:.1f}ms to "
                f"{arm.p99_fault * 1e3:.1f}ms"
            )
        else:
            sentence = (
                "WARNING: expected burn-rate alert timing and queue-wait "
                "attribution did not reproduce "
                f"(fired={arm.alert_fired}, offset={arm.fire_offset}, "
                f"top={arm.top_cause})"
            )
        return ok, sentence


def _measure_arm(
    mode: str,
    result,
    *,
    fault_start: float,
    fault_end: float,
    slo: SloConfig,
) -> LiveObsArm:
    live = result.obs.live
    # Windows anchor at the run origin: virtual t=0 in sim, the wall
    # clock's run-start instant live. Re-anchoring phase boundaries
    # there maps both modes onto the same axis.
    origin = live.windows[0].start if live.windows else 0.0
    t_fault_start = origin + fault_start
    t_fault_end = origin + fault_end
    fires = live.alerts.fires()
    fire_offset = (
        fires[0].ts - t_fault_start if fires else None
    )
    phases = (
        ("pre", float("-inf"), t_fault_start),
        ("fault", t_fault_start, t_fault_end),
        ("post", t_fault_end, float("inf")),
    )
    report = result.obs.tail_report(pct=99.0, phases=phases)
    top = report.top()
    pre_p99 = [
        w.quantiles["p99"]
        for w in live.windows
        if w.end <= t_fault_start and "p99" in w.quantiles
    ]
    fault_p99 = [
        w.quantiles["p99"]
        for w in live.windows
        if t_fault_start <= w.start and w.end <= t_fault_end
        and "p99" in w.quantiles
    ]
    return LiveObsArm(
        mode=mode,
        alert_fired=bool(fires),
        fire_offset=fire_offset,
        alert_cleared=bool(live.alerts.clears()),
        top_cause=(
            (top.component, top.server_id, top.phase)
            if top is not None
            else None
        ),
        top_share=top.share if top is not None else 0.0,
        attainment=live.attainment,
        p99_pre=sum(pre_p99) / len(pre_p99) if pre_p99 else 0.0,
        p99_fault=(
            sum(fault_p99) / len(fault_p99) if fault_p99 else 0.0
        ),
        n_windows=len(live.windows),
        n_exemplars=len(live.exemplars),
        collector_attainment=result.stats.slo_attainment(slo.target),
    )


def run_fig_live(
    time_scale: float = 1.0,
    seed: int = 0,
    modes: Tuple[str, ...] = ("live", "sim"),
) -> LiveObsComparison:
    """Run the slow-replica burn through every requested mode.

    ``time_scale`` stretches the phase timeline *and* the SLO windows
    together (warm 4s, fault 4s, recovery 8s, window 0.5s at scale
    1.0) without touching service times, so ``--fast`` shrinks
    wall-clock while keeping the burn-rate arithmetic intact. The
    fault onset lands exactly on a window boundary — windows anchor at
    the run origin — so alert latency is measured in whole windows.
    """
    if time_scale <= 0:
        raise ValueError("time_scale must be positive")
    scale = time_scale
    warm = 4.0 * scale
    fault_duration = 4.0 * scale
    post = 8.0 * scale
    fault_end = warm + fault_duration
    horizon = warm + fault_duration + post
    qps = _LOAD_FRACTION * _N_SERVERS / _APP.service.mean

    # SLO: 90% of requests under 100 ms. Healthy operation sits at
    # ~1% bad (burn ~0.1x); the fault pushes the send-anchored bad
    # fraction to ~1/3 (the faulted replica's share of round-robin
    # traffic), a ~3.3x fast burn — comfortably over the 2.5x fast
    # threshold after two fault windows, never before the fault.
    slo = SloConfig(
        enabled=True,
        target=0.1,
        objective=0.9,
        window=0.5 * scale,
        fast_windows=2,
        slow_windows=6,
        fast_burn=2.5,
        slow_burn=1.0,
        clear_factor=0.5,
        exemplars_per_window=3,
    )
    observability = ObservabilityConfig(tracing=True, slo=slo)
    scenario = slow_replica(
        server_id=_FAULT_SERVER,
        start=warm,
        duration=fault_duration,
        pause=_SLOW_PAUSE,
    )
    measure = dict(fault_start=warm, fault_end=fault_end, slo=slo)

    fields = dict(
        configuration="integrated",
        n_threads=1,
        n_servers=_N_SERVERS,
        balancer="round_robin",
        seed=seed,
        load_profile=((horizon, qps),),
        scenario=scenario,
        observability=observability,
    )
    arms: Dict[str, LiveObsArm] = {
        mode: _measure_arm(mode, _APP.run(mode, **fields), **measure)
        for mode in ("sim", "live")
        if mode in modes
    }
    return LiveObsComparison(
        time_scale=scale,
        fault_start=warm,
        fault_end=fault_end,
        horizon=horizon,
        offered_qps=qps,
        slo=slo,
        arms=arms,
    )


def render_fig_live(result: LiveObsComparison) -> str:
    headers = [
        "mode", "alert", "fired+", "cleared", "top cause",
        "share", "p99 pre", "p99 fault", "attain", "coll",
    ]
    rows = []
    for mode in ("live", "sim"):
        arm = result.arms.get(mode)
        if arm is None:
            continue
        cause = (
            f"{arm.top_cause[0]}@s{arm.top_cause[1]}/{arm.top_cause[2]}"
            if arm.top_cause is not None
            else "-"
        )
        rows.append([
            mode,
            "fired" if arm.alert_fired else "quiet",
            f"{arm.fire_offset:.2f}s" if arm.fire_offset is not None else "-",
            "yes" if arm.alert_cleared else "no",
            cause,
            f"{arm.top_share:.0%}",
            f"{arm.p99_pre * 1e3:.1f}ms",
            f"{arm.p99_fault * 1e3:.1f}ms",
            f"{arm.attainment:.1%}",
            f"{arm.collector_attainment:.1%}",
        ])
    table = ascii_table(
        headers,
        rows,
        title=(
            f"Live SLO engine vs slow replica at "
            f"{result.offered_qps:.0f} qps over {_N_SERVERS} replicas "
            f"(fault {result.fault_start:g}s-{result.fault_end:g}s on "
            f"server {_FAULT_SERVER}; SLO "
            f"{result.slo.objective:.0%} < {result.slo.target * 1e3:.0f}ms, "
            f"window {result.slo.window:g}s)"
        ),
    )
    _, sentence = result.verdict()
    return f"{table}\n{sentence}"
