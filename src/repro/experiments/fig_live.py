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

import functools
from typing import Tuple

from ..core.config import ObservabilityConfig, SloConfig
from ..faults import slow_replica
from ..stats import LogNormal
from .figure import Arm, Report, claim, fault_timeline, ms, run_figure
from .sleep_app import SleepApp

__all__ = ["run_fig_live"]

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


def _measure(
    result, *, fault_start: float, fault_end: float, slo: SloConfig
) -> dict:
    live = result.obs.live
    # Windows anchor at the run origin: virtual t=0 in sim, the wall
    # clock's run-start instant live. Re-anchoring phase boundaries
    # there maps both modes onto the same axis.
    origin = live.windows[0].start if live.windows else 0.0
    t_fault_start = origin + fault_start
    t_fault_end = origin + fault_end
    fires = live.alerts.fires()
    phases = (
        ("pre", float("-inf"), t_fault_start),
        ("fault", t_fault_start, t_fault_end),
        ("post", t_fault_end, float("inf")),
    )
    top = result.obs.tail_report(pct=99.0, phases=phases).top()

    def mean_p99(start: float, end: float) -> float:
        """Mean p99 of the windows that lie inside ``[start, end]``."""
        p99s = [
            w.quantiles["p99"]
            for w in live.windows
            if start <= w.start and w.end <= end and "p99" in w.quantiles
        ]
        return sum(p99s) / len(p99s) if p99s else 0.0

    return dict(
        alert_fired=bool(fires),
        # Fire instant minus fault onset (None if it never fired).
        fire_offset=fires[0].ts - t_fault_start if fires else None,
        alert_cleared=bool(live.alerts.clears()),
        # Top-ranked tail cause, as (component, server_id, phase), and
        # the share of tail excess it explains.
        top_cause=(
            (top.component, top.server_id, top.phase)
            if top is not None
            else None
        ),
        top_share=top.share if top is not None else 0.0,
        # Send-anchored SLO attainment over the whole run.
        attainment=live.attainment,
        # Mean per-window p99 before the fault vs during it.
        p99_pre=mean_p99(float("-inf"), t_fault_start),
        p99_fault=mean_p99(t_fault_start, t_fault_end),
        # Completion-side attainment from the collector, for
        # cross-check (counts only completed requests; the streaming
        # number also charges work that never completed).
        collector_attainment=result.stats.slo_attainment(slo.target),
    )


def run_fig_live(
    time_scale: float = 1.0,
    seed: int = 0,
    modes: Tuple[str, ...] = ("live", "sim"),
) -> Report:
    """Run the slow-replica burn through every requested mode.

    ``time_scale`` stretches the phase timeline *and* the SLO windows
    together (warm 4s, fault 4s, recovery 8s, window 0.5s at scale
    1.0) without touching service times, so ``--fast`` shrinks
    wall-clock while keeping the burn-rate arithmetic intact. The
    fault onset lands exactly on a window boundary — windows anchor at
    the run origin — so alert latency is measured in whole windows.
    """
    scale = time_scale
    qps = _LOAD_FRACTION * _N_SERVERS / _APP.service.mean
    warm, fault_end, _, timeline = fault_timeline(
        scale, 4.0, 4.0, 8.0, qps, functools.partial(
            slow_replica, server_id=_FAULT_SERVER, pause=_SLOW_PAUSE
        ),
    )

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

    def claims(rows):
        """Reproduced means: the burn-rate alert fired within one fast
        horizon of the fault onset, and the tail report's top cause is
        queue wait on the faulted replica in the fault phase. Judged on
        the simulator arm; a live-only invocation is reported on the
        live arm instead."""
        mode = "sim" if rows["sim"] else "live"
        arm = rows[mode]["slow_replica"]
        fast_horizon = slo.fast_horizon
        fired_in_time = (
            arm.alert_fired
            and arm.fire_offset is not None
            and -1e-9 <= arm.fire_offset <= fast_horizon + 1e-9
        )
        blamed_queue = arm.top_cause == ("queue", _FAULT_SERVER, "fault")
        return [claim(
            fired_in_time and blamed_queue,
            f"SLO burn caught and explained: alert fired "
            f"{arm.fire_offset:.2f}s after fault onset (fast horizon "
            f"{fast_horizon:g}s), attribution ranks queue wait on "
            f"server {_FAULT_SERVER} in the fault phase as the top "
            f"p99 cause ({arm.top_share:.0%} of tail excess); "
            f"window p99 rose from {arm.p99_pre * 1e3:.1f}ms to "
            f"{arm.p99_fault * 1e3:.1f}ms",
            "expected burn-rate alert timing and queue-wait attribution "
            f"did not reproduce (fired={arm.alert_fired}, "
            f"offset={arm.fire_offset}, top={arm.top_cause})",
            judged=mode == "sim",
        )]

    return run_figure(
        title=(
            f"Live SLO engine vs slow replica at {qps:.0f} qps over "
            f"{_N_SERVERS} replicas (fault {warm:g}s-{fault_end:g}s on "
            f"server {_FAULT_SERVER}; SLO {slo.objective:.0%} < "
            f"{slo.target * 1e3:.0f}ms, window {slo.window:g}s)"
        ),
        columns=(
            ("alert", lambda r: "fired" if r.alert_fired else "quiet"),
            ("fired+", lambda r: (
                "-" if r.fire_offset is None else f"{r.fire_offset:.2f}s"
            )),
            ("cleared", lambda r: "yes" if r.alert_cleared else "no"),
            ("top cause", lambda r: (
                "-" if r.top_cause is None
                else "{}@s{}/{}".format(*r.top_cause)
            )),
            ("share", "{top_share:.0%}"),
            ("p99 pre", ms("p99_pre", 1)),
            ("p99 fault", ms("p99_fault", 1)),
            ("attain", "{attainment:.1%}"),
            ("coll", "{collector_attainment:.1%}"),
        ),
        run=_APP.run,
        base=dict(
            n_servers=_N_SERVERS,
            balancer="round_robin",
            seed=seed,
            observability=ObservabilityConfig(tracing=True, slo=slo),
            **timeline,
        ),
        arms=[Arm("slow_replica")],
        measure=lambda result: _measure(
            result, fault_start=warm, fault_end=fault_end, slo=slo
        ),
        claims=claims,
        modes=modes,
    )
