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

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core.resilience import ResilienceConfig
from ..faults import retry_storm
from ..health import HealthConfig
from ..stats import LogNormal
from .reporting import ascii_table
from .sleep_app import SleepApp

__all__ = [
    "ResilienceArm",
    "ResilienceComparison",
    "run_fig_resilience",
    "render_fig_resilience",
]

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


@dataclass(frozen=True)
class ResilienceArm:
    """One (mode, arm) cell of the comparison."""

    mode: str  # "live" | "sim"
    arm: str  # "undefended" | "defended"
    pre_goodput: float
    fault_goodput: float
    late_goodput: float
    #: Seconds after the fault cleared until goodput reached >= 90% of
    #: pre-fault *and stayed there on average for the rest of the run*.
    #: The second clause matters: the instant the fault lifts, the
    #: degraded replica drains its backlog in a brief goodput burst
    #: even when the retry spiral then re-collapses the system — a
    #: burst is not recovery. inf = never recovered within the run.
    recovered_after: float
    amplification: float
    timed_out: int
    ejections: int
    readmissions: int
    breaker_opens: int
    retries_denied: int

    def recovered_within(self, seconds: float) -> bool:
        return self.recovered_after <= seconds


@dataclass(frozen=True)
class ResilienceComparison:
    """Undefended vs defended under the same retry storm."""

    time_scale: float
    warm: float
    fault_start: float
    fault_end: float
    horizon: float
    offered_qps: float
    #: (mode, arm) -> cell; arms "undefended"/"defended".
    arms: Dict[Tuple[str, str], ResilienceArm]

    def verdict(self) -> Tuple[bool, str]:
        """(reproduced?, sentence), judged on the simulator arms.

        Reproduced means: the undefended arm's goodput is still below
        half its pre-fault level ten (scaled) seconds after the fault
        cleared — the collapse outlived its cause — while the defended
        arm was back to >= 90% of pre-fault within five (scaled)
        seconds.
        """
        scale = self.time_scale
        # Judge on the deterministic simulator when it ran; a live-only
        # invocation is judged on the (noisier) live arms instead.
        mode = "sim" if ("sim", "undefended") in self.arms else "live"
        undefended = self.arms[(mode, "undefended")]
        defended = self.arms[(mode, "defended")]
        collapse_persists = (
            undefended.late_goodput < 0.5 * undefended.pre_goodput
            and not undefended.recovered_within(10.0 * scale)
        )
        defense_recovers = defended.recovered_within(5.0 * scale)
        ok = collapse_persists and defense_recovers
        if ok:
            sentence = (
                f"metastable failure reproduced: {10 * scale:g}s after "
                f"the fault cleared the undefended arm still serves "
                f"{undefended.late_goodput:.0f}/s of a pre-fault "
                f"{undefended.pre_goodput:.0f}/s "
                f"(amplification {undefended.amplification:.2f}x), while "
                f"the defended arm recovered to >=90% within "
                f"{defended.recovered_after:g}s "
                f"({defended.ejections} ejection(s), "
                f"{defended.retries_denied} retries denied by budget)"
            )
        else:
            sentence = (
                "WARNING: expected metastable-collapse separation "
                "between undefended and defended arms did not reproduce"
            )
        return ok, sentence


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


def _measure_arm(
    mode: str,
    arm: str,
    result,
    *,
    warm: float,
    fault_end: float,
    horizon: float,
    scale: float,
) -> ResilienceArm:
    times = _success_times(result)
    pre = _goodput_rate(times, 0.5 * warm, warm)
    fault_rate = _goodput_rate(times, warm, fault_end)
    late = _goodput_rate(
        times, fault_end + 9.0 * scale, fault_end + 10.0 * scale
    )
    buckets = []
    k = 0
    while fault_end + (k + 1) * scale <= horizon + 1e-9:
        buckets.append(_goodput_rate(
            times, fault_end + k * scale, fault_end + (k + 1) * scale
        ))
        k += 1
    recovered_after = math.inf
    if pre > 0:
        for k in range(len(buckets)):
            tail = buckets[k:]
            sustained = sum(tail) / len(tail) >= 0.9 * pre
            if buckets[k] >= 0.9 * pre and sustained:
                recovered_after = (k + 1) * scale
                break
    health = result.health_counts
    return ResilienceArm(
        mode=mode,
        arm=arm,
        pre_goodput=pre,
        fault_goodput=fault_rate,
        late_goodput=late,
        recovered_after=recovered_after,
        amplification=result.retry_amplification,
        timed_out=result.outcomes.get("timed_out", 0),
        ejections=health.get("ejections", 0),
        readmissions=health.get("readmissions", 0),
        breaker_opens=health.get("breaker_opens", 0),
        retries_denied=health.get("retries_denied", 0),
    )


def run_fig_resilience(
    time_scale: float = 1.0,
    seed: int = 0,
    modes: Tuple[str, ...] = ("live", "sim"),
) -> ResilienceComparison:
    """Run the retry storm through every requested (mode, arm) cell.

    ``time_scale`` stretches the phase timeline (warm 5s, fault 10s,
    recovery 15s at scale 1.0) without touching service times or
    client timeouts, so ``--fast`` shrinks wall-clock while keeping
    the queueing dynamics intact.
    """
    if time_scale <= 0:
        raise ValueError("time_scale must be positive")
    scale = time_scale
    warm = 5.0 * scale
    fault_duration = 10.0 * scale
    post = 15.0 * scale
    fault_end = warm + fault_duration
    horizon = warm + fault_duration + post
    qps = _LOAD_FRACTION * _N_SERVERS / _APP.service.mean

    scenario = retry_storm(
        server_id=_N_SERVERS - 1,
        start=warm,
        duration=fault_duration,
        pause=_STORM_PAUSE,
    )
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
    defense = HealthConfig(enabled=True, probe_interval=50)

    arms: Dict[Tuple[str, str], ResilienceArm] = {}
    for arm_name, health in (("undefended", None), ("defended", defense)):
        measure = dict(
            warm=warm, fault_end=fault_end, horizon=horizon, scale=scale
        )
        fields = dict(
            configuration="integrated",
            n_threads=1,
            n_servers=_N_SERVERS,
            balancer="round_robin",
            seed=seed,
            load_profile=((horizon, qps),),
            resilience=resilience,
            scenario=scenario,
        )
        if health is not None:
            fields["health"] = health
        for mode in ("sim", "live"):
            if mode in modes:
                arms[(mode, arm_name)] = _measure_arm(
                    mode, arm_name, _APP.run(mode, **fields), **measure
                )
    return ResilienceComparison(
        time_scale=scale,
        warm=warm,
        fault_start=warm,
        fault_end=fault_end,
        horizon=horizon,
        offered_qps=qps,
        arms=arms,
    )


def render_fig_resilience(result: ResilienceComparison) -> str:
    headers = [
        "mode", "arm", "pre", "fault", "late", "recovery",
        "ampl", "timeouts", "ejects", "readmits", "denied",
    ]
    rows = []
    for mode in ("live", "sim"):
        for arm_name in ("undefended", "defended"):
            cell = result.arms.get((mode, arm_name))
            if cell is None:
                continue
            recovery = (
                f"{cell.recovered_after:g}s"
                if math.isfinite(cell.recovered_after)
                else "never"
            )
            rows.append([
                mode,
                arm_name,
                f"{cell.pre_goodput:.0f}/s",
                f"{cell.fault_goodput:.0f}/s",
                f"{cell.late_goodput:.0f}/s",
                recovery,
                f"{cell.amplification:.2f}x",
                str(cell.timed_out),
                str(cell.ejections),
                str(cell.readmissions),
                str(cell.retries_denied),
            ])
    table = ascii_table(
        headers,
        rows,
        title=(
            f"Retry storm at {result.offered_qps:.0f} qps over "
            f"{_N_SERVERS} replicas (fault {result.fault_start:g}s-"
            f"{result.fault_end:g}s; 'late' = goodput "
            f"{9 * result.time_scale:g}-{10 * result.time_scale:g}s "
            f"after it cleared)"
        ),
    )
    _, sentence = result.verdict()
    return f"{table}\n{sentence}"
