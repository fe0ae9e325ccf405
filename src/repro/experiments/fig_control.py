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

from ..control import (
    AdmissionConfig,
    AutoscalerConfig,
    ControlPlaneConfig,
)
from ..stats import LogNormal
from .figure import Arm, Report, claim, ms, run_figure
from .sleep_app import SleepApp

__all__ = ["run_fig_control"]

#: The same 1 ms-mean synthetic service the topology figure uses.
_APP = SleepApp(LogNormal(mean=1e-3, sigma=0.5))

#: The latency objective both arms are judged against.
DEFAULT_SLO_P99 = 0.05


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
) -> Report:
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

    def claims(rows):
        # Judged on the deterministic simulator; the live arms
        # corroborate it but carry scheduler noise.
        static, controlled = rows["sim"]["static"], rows["sim"]["controlled"]
        return [claim(
            static.p99 > slo_p99 >= controlled.p99,
            f"under the load step the static server violates the "
            f"{slo_p99 * 1e3:.0f}ms p99 SLO ({static.p99 * 1e3:.1f}ms) "
            f"while the controlled server holds it "
            f"({controlled.p99 * 1e3:.1f}ms) by shedding {controlled.shed} "
            f"requests and scaling to {controlled.active_servers} replicas",
            "expected SLO separation between static and controlled arms "
            "did not reproduce",
        )]

    steps = " -> ".join(
        f"{qps:.0f}qps x {duration:g}s" for duration, qps in profile_steps
    )
    return run_figure(
        title=(
            f"Control plane under a load step ({steps}; "
            f"SLO p99 <= {slo_p99 * 1e3:.0f}ms)"
        ),
        columns=(
            ("arm", "{arm}"),
            ("p99", ms("p99")),
            ("SLO", lambda r: "met" if r.p99 <= slo_p99 else "VIOLATED"),
            ("served", "{served}"),
            ("shed", "{shed}"),
            ("goodput", "{goodput_qps:.0f}/s"),
            ("scale_ups", "{scale_ups}"),
            ("replicas", "{active_servers}"),
        ),
        run=_APP.run,
        base=dict(
            seed=seed,
            load_profile=profile_steps,
        ),
        arms=[
            Arm("static"),
            Arm("controlled", dict(control=_control_config(slo_p99))),
        ],
        measure=lambda result: dict(
            p99=result.sojourn.p99,
            served=result.stats.count,
            shed=result.outcomes.get("shed", 0),
            goodput_qps=result.goodput_qps,
            scale_ups=result.control_counts.get("scale_ups", 0),
            active_servers=result.control_counts.get("active_servers", 1),
        ),
        claims=claims,
    )
