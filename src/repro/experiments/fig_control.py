"""Control-plane extension: closed-loop SLO defense under a load step.

Drives a 0.5×→1.5×-of-capacity load step through one replica's worth
of service capacity, twice per execution mode:

- **static** — the paper's original harness shape: one replica, an
  unbounded FIFO, no controller. During the overload phase the queue
  grows without bound, so p99 sojourn blows through any latency SLO
  and keeps climbing until the step ends.
- **controlled** — the same offered schedule with :mod:`repro.control`
  engaged: CoDel + AIMD admission sheds work the instant queueing
  delay exceeds target, while the autoscaler grows the replica set
  (up to ``max_servers``) to absorb the new rate; between the two,
  the p99 of *served* requests holds near the SLO at the cost of
  explicit, accounted shedding instead of unbounded queueing.

Both arms run in **both** execution modes — the live harness (sleep
application) and the discrete-event simulator with the identical
service-time distribution — extending the paper's live-vs-simulated
validation methodology (Fig. 5/6) to closed-loop control: the
simulator must reproduce not just open-loop tails but the *behavior
of the controllers themselves*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..control import (
    AdmissionConfig,
    AutoscalerConfig,
    ControlPlaneConfig,
)
from ..stats import LogNormal
from .reporting import ascii_table
from .sleep_app import SleepApp

__all__ = [
    "ControlArm",
    "ControlComparison",
    "run_fig_control",
    "render_fig_control",
]

#: The same 1 ms-mean synthetic service the topology figure uses.
_APP = SleepApp(LogNormal(mean=1e-3, sigma=0.5))

#: The latency objective both arms are judged against.
DEFAULT_SLO_P99 = 0.05


@dataclass(frozen=True)
class ControlArm:
    """One (mode, config) cell of the comparison."""

    mode: str  # "live" | "sim"
    arm: str  # "static" | "controlled"
    p99: float
    served: int
    shed: int
    goodput_qps: float
    scale_ups: int
    active_servers: int

    def meets_slo(self, slo_p99: float) -> bool:
        return self.p99 <= slo_p99


@dataclass(frozen=True)
class ControlComparison:
    """Static vs controlled under the same load step, live and sim."""

    slo_p99: float
    step_qps: Tuple[Tuple[float, float], ...]
    #: (mode, arm) -> cell; modes "live"/"sim", arms "static"/"controlled".
    arms: Dict[Tuple[str, str], ControlArm]

    def verdict(self) -> Tuple[bool, str]:
        """(reproduced?, sentence). The claim is judged on the
        deterministic simulator; the live arms corroborate it but carry
        scheduler noise, so they are reported rather than gated on."""
        sim_static = self.arms[("sim", "static")]
        sim_controlled = self.arms[("sim", "controlled")]
        ok = not sim_static.meets_slo(self.slo_p99) and (
            sim_controlled.meets_slo(self.slo_p99)
        )
        if ok:
            sentence = (
                f"under the load step the static server violates the "
                f"{self.slo_p99 * 1e3:.0f}ms p99 SLO "
                f"({sim_static.p99 * 1e3:.1f}ms) while the controlled "
                f"server holds it ({sim_controlled.p99 * 1e3:.1f}ms) by "
                f"shedding {sim_controlled.shed} requests and scaling "
                f"to {sim_controlled.active_servers} replicas"
            )
        else:
            sentence = (
                "WARNING: expected SLO separation between static and "
                "controlled arms did not reproduce"
            )
        return ok, sentence


def _control_config(slo_p99: float) -> ControlPlaneConfig:
    return ControlPlaneConfig(
        enabled=True,
        tick_interval=0.02,
        admission=AdmissionConfig(
            target_p99=slo_p99,
            codel_target=slo_p99 / 2.5,
            codel_interval=0.05,
            initial_limit=32,
            min_limit=8,
            additive_increase=2,
            multiplicative_decrease=0.5,
        ),
        autoscaler=AutoscalerConfig(
            min_servers=1,
            max_servers=3,
            scale_up_depth=4.0,
            scale_down_util=0.2,
            hysteresis_ticks=2,
            cooldown=0.2,
        ),
    )


def run_fig_control(
    step_seconds: float = 2.0,
    seed: int = 0,
    slo_p99: float = DEFAULT_SLO_P99,
) -> ControlComparison:
    """Run the load step through all four (mode, arm) cells.

    ``step_seconds`` scales the whole profile (the overload phase lasts
    twice that), so ``--fast`` shrinks wall-clock without changing the
    shape of the step.
    """
    capacity = 1.0 / _APP.service.mean  # one replica's service rate
    profile_steps = (
        (step_seconds, 0.5 * capacity),
        (2.0 * step_seconds, 1.5 * capacity),
    )
    control = _control_config(slo_p99)

    arms: Dict[Tuple[str, str], ControlArm] = {}
    for arm_name, plane in (("static", None), ("controlled", control)):
        fields = dict(
            configuration="integrated",
            n_threads=1,
            n_servers=1,
            seed=seed,
            load_profile=profile_steps,
        )
        if plane is not None:
            fields["control"] = plane
        for mode in ("live", "sim"):
            result = _APP.run(mode, **fields)
            arms[(mode, arm_name)] = ControlArm(
                mode=mode,
                arm=arm_name,
                p99=result.sojourn.p99,
                served=result.stats.count,
                shed=result.outcomes.get("shed", 0),
                goodput_qps=result.goodput_qps,
                scale_ups=result.control_counts.get("scale_ups", 0),
                active_servers=result.control_counts.get("active_servers", 1),
            )
    return ControlComparison(
        slo_p99=slo_p99, step_qps=profile_steps, arms=arms
    )


def render_fig_control(result: ControlComparison) -> str:
    headers = [
        "mode", "arm", "p99", "SLO", "served", "shed",
        "goodput", "scale_ups", "replicas",
    ]
    rows = []
    for mode in ("live", "sim"):
        for arm_name in ("static", "controlled"):
            cell = result.arms[(mode, arm_name)]
            rows.append([
                mode,
                arm_name,
                f"{cell.p99 * 1e3:.2f}ms",
                "met" if cell.meets_slo(result.slo_p99) else "VIOLATED",
                str(cell.served),
                str(cell.shed),
                f"{cell.goodput_qps:.0f}/s",
                str(cell.scale_ups),
                str(cell.active_servers),
            ])
    steps = " -> ".join(
        f"{qps:.0f}qps x {duration:g}s" for duration, qps in result.step_qps
    )
    table = ascii_table(
        headers,
        rows,
        title=(
            f"Control plane under a load step ({steps}; "
            f"SLO p99 <= {result.slo_p99 * 1e3:.0f}ms)"
        ),
    )
    _, sentence = result.verdict()
    return f"{table}\n{sentence}"
