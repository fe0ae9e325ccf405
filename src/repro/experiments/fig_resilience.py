"""Resilience extension: reproducing (and curing) metastable failure.

Plays the ``retry_storm`` chaos scenario — one of three replicas
serving every request ~75x slower than normal for a timed window —
against two client/serving stacks:

- **undefended** — deadlines + aggressive retries, nothing else. Every
  attempt routed to the degraded replica times out and is retried onto
  the survivors; the amplified attempt rate exceeds the survivors'
  aggregate capacity, their queues blow past the deadline, *their*
  requests start timing out and retrying too, and the system enters
  the classic metastable state [Bronson et al., HotOS'21; Huang et
  al., OSDI'22]: goodput stays collapsed long after the fault clears,
  because the retry amplification — not the original fault — is now
  the overload.
- **defended** — the identical retry policy plus :mod:`repro.health`:
  outlier ejection routes around the degraded replica within a few
  hundred milliseconds, per-replica circuit breakers stop dead-end
  attempts, and the global retry budget caps amplification at
  ~1.1x. The fault window costs a dip; recovery follows within
  seconds of the window closing.

Both arms run in both execution modes — the live harness (sleep
application) and the discrete-event simulator with the identical
service-time distribution and the identical scenario — extending the
paper's live-vs-simulated validation methodology (Fig. 5/6) to
failure dynamics: the simulator reproduces not just healthy tails but
the *onset and cure of a metastable collapse*. The verdict is judged
on the deterministic simulator; the live arms corroborate it but
carry scheduler noise.
"""

from __future__ import annotations

import functools
import math
from typing import List, Sequence, Tuple

from ..core.resilience import ResilienceConfig
from ..faults import retry_storm
from ..health import HealthConfig
from ..stats import LogNormal
from .figure import Arm, Report, claim, fault_timeline, run_figure
from .sleep_app import SleepApp

__all__ = ["run_fig_resilience"]

#: Service-time distribution shared by the live sleep app and the
#: simulator: 10 ms mean, moderate tail — long enough that live
#: sleep()/scheduler overhead (tens of microseconds per request) stays
#: second-order even at the storm's amplified attempt rates.
_APP = SleepApp(LogNormal(mean=10e-3, sigma=0.3))

#: Replicas behind the (deliberately blind) round-robin balancer.
_N_SERVERS = 3

#: Offered load as a fraction of aggregate healthy capacity. The
#: separating regime: with one replica out, the survivors sit just
#: *below* capacity under budget-capped amplification (defended arm —
#: stable, if slow, through the fault) but just *above* the timeout
#: threshold once unbounded retries pile on (undefended arm — waits
#: cross the attempt timeout, every timeout spawns retries, and the
#: amplification spiral takes the system supercritical).
_LOAD_FRACTION = 0.58

#: The degraded replica's per-request stall during the fault window:
#: ~75x the mean service time, far beyond the attempt timeout, so the
#: undefended client times out on every attempt it routes there.
_STORM_PAUSE = 0.3


def _goodput_rate(
    times: Sequence[float], start: float, end: float
) -> float:
    """Successful completions per second inside ``[start, end)``."""
    if end <= start:
        return 0.0
    n = sum(1 for t in times if start <= t < end)
    return n / (end - start)


def _success_times(result) -> List[float]:
    """Success completion instants, relative to the first arrival.

    The resilient collector only ``add()``s deadline-met successes, so
    the retained records *are* the goodput stream; anchoring at the
    earliest generation instant maps live wall-clock stamps and sim
    virtual-time stamps onto the same axis.
    """
    records = result.stats.records
    if not records:
        return []
    t0 = min(r.generated_at for r in records)
    return sorted(
        r.response_received_at - t0
        for r in records
        if r.response_received_at is not None
    )


def _measure(
    result, *, warm: float, fault_end: float, horizon: float, scale: float
) -> dict:
    times = _success_times(result)
    pre = _goodput_rate(times, 0.5 * warm, warm)
    buckets = []
    k = 0
    while fault_end + (k + 1) * scale <= horizon + 1e-9:
        buckets.append(_goodput_rate(
            times, fault_end + k * scale, fault_end + (k + 1) * scale
        ))
        k += 1
    # Seconds after the fault cleared until goodput reached >= 90% of
    # pre-fault *and stayed there on average for the rest of the run*.
    # The second clause matters: the instant the fault lifts, the
    # degraded replica drains its backlog in a brief goodput burst
    # even when the retry spiral then re-collapses the system — a
    # burst is not recovery. inf = never recovered within the run.
    recovered_after = math.inf
    if pre > 0:
        for k in range(len(buckets)):
            tail = buckets[k:]
            sustained = sum(tail) / len(tail) >= 0.9 * pre
            if buckets[k] >= 0.9 * pre and sustained:
                recovered_after = (k + 1) * scale
                break
    health = result.health_counts
    return dict(
        pre_goodput=pre,
        fault_goodput=_goodput_rate(times, warm, fault_end),
        late_goodput=_goodput_rate(
            times, fault_end + 9.0 * scale, fault_end + 10.0 * scale
        ),
        recovered_after=recovered_after,
        amplification=result.retry_amplification,
        timed_out=result.outcomes.get("timed_out", 0),
        ejections=health.get("ejections", 0),
        readmissions=health.get("readmissions", 0),
        retries_denied=health.get("retries_denied", 0),
    )


def run_fig_resilience(
    time_scale: float = 1.0,
    seed: int = 0,
    modes: Tuple[str, ...] = ("live", "sim"),
) -> Report:
    """Run the retry storm through every requested (mode, arm) cell.

    ``time_scale`` stretches the phase timeline (warm 5s, fault 10s,
    recovery 15s at scale 1.0) without touching service times or
    client timeouts, so ``--fast`` shrinks wall-clock while keeping
    the queueing dynamics intact.
    """
    scale = time_scale
    qps = _LOAD_FRACTION * _N_SERVERS / _APP.service.mean
    warm, fault_end, horizon, timeline = fault_timeline(
        scale, 5.0, 10.0, 15.0, qps, functools.partial(
            retry_storm, server_id=_N_SERVERS - 1, pause=_STORM_PAUSE
        ),
    )

    def claims(rows):
        """Reproduced means: the undefended arm's goodput is still below
        half its pre-fault level ten (scaled) seconds after the fault
        cleared — the collapse outlived its cause — while the defended
        arm was back to >= 90% of pre-fault within five (scaled)
        seconds. Judged on the simulator arms; a live-only invocation
        is reported on the (noisier) live arms instead."""
        mode = "sim" if rows["sim"] else "live"
        undefended, defended = rows[mode]["undefended"], rows[mode]["defended"]
        collapse_persists = (
            undefended.late_goodput < 0.5 * undefended.pre_goodput
            and undefended.recovered_after > 10.0 * scale
        )
        return [claim(
            collapse_persists and defended.recovered_after <= 5.0 * scale,
            f"metastable failure reproduced: {10 * scale:g}s after the "
            f"fault cleared the undefended arm still serves "
            f"{undefended.late_goodput:.0f}/s of a pre-fault "
            f"{undefended.pre_goodput:.0f}/s (amplification "
            f"{undefended.amplification:.2f}x), while the defended arm "
            f"recovered to >=90% within {defended.recovered_after:g}s "
            f"({defended.ejections} ejection(s), "
            f"{defended.retries_denied} retries denied by budget)",
            "expected metastable-collapse separation between undefended "
            "and defended arms did not reproduce",
            judged=mode == "sim",
        )]

    # attempt_timeout is the spiral's trigger: five mean service times,
    # tight enough that survivor queues cross it once the storm's
    # redirected load lands on them, loose enough that healthy replicas
    # at _LOAD_FRACTION almost never do.
    resilience = ResilienceConfig(
        deadline=0.5,
        attempt_timeout=0.05,
        max_retries=3,
        backoff_base=0.005,
        backoff_cap=0.02,
    )
    return run_figure(
        title=(
            f"Retry storm at {qps:.0f} qps over {_N_SERVERS} replicas "
            f"(fault {warm:g}s-{fault_end:g}s; 'late' = goodput "
            f"{9 * scale:g}-{10 * scale:g}s after it cleared)"
        ),
        columns=(
            ("arm", "{arm}"),
            ("pre", "{pre_goodput:.0f}/s"),
            ("fault", "{fault_goodput:.0f}/s"),
            ("late", "{late_goodput:.0f}/s"),
            ("recovery", lambda r: (
                f"{r.recovered_after:g}s"
                if math.isfinite(r.recovered_after)
                else "never"
            )),
            ("ampl", "{amplification:.2f}x"),
            ("timeouts", "{timed_out}"),
            ("ejects", "{ejections}"),
            ("readmits", "{readmissions}"),
            ("denied", "{retries_denied}"),
        ),
        run=_APP.run,
        base=dict(
            n_servers=_N_SERVERS,
            balancer="round_robin",
            seed=seed,
            resilience=resilience,
            **timeline,
        ),
        arms=[
            Arm("undefended"),
            Arm("defended", dict(
                health=HealthConfig(enabled=True, probe_interval=50)
            )),
        ],
        measure=lambda result: _measure(
            result, warm=warm, fault_end=fault_end, horizon=horizon,
            scale=scale,
        ),
        claims=claims,
        modes=modes,
    )
