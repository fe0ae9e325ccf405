"""Topology extension: load-balancing policy vs tail latency.

Sweeps offered load against a 4-replica topology under round-robin and
join-shortest-queue routing, in *both* execution modes the codebase
provides:

- **live** — the real harness (integrated configuration), each replica
  a worker thread sleeping through lognormal service times;
- **sim** — the discrete-event simulator with the identical
  service-time distribution and topology.

The judged claim is that depth-aware routing (JSQ) beats blind
round-robin in the tail: the simulated JSQ p99 is below round-robin's
at every swept load — load *imbalance* is a tail-latency mechanism of
its own ["The Tail at Scale"]. At the default 5 000 measured requests
the gap also widens with load; at ``--fast``'s 1 200 it need not (seed
0: 0.46 ms at 50 % load, 0.45 ms at 65 %).
Whether the live harness and the simulator agree on the p99 *ordering*
of the two policies at every load — the topology-level extension of
the paper's live-vs-simulated validation (Fig. 5/6) — is reported, not
judged: the live ordering is one noisy shot per load.
"""

from __future__ import annotations

from typing import Tuple

from ..stats import LogNormal
from .figure import Arm, Report, claim, ms, run_figure
from .sleep_app import SleepApp

__all__ = ["run_fig_topology", "TOPOLOGY_POLICIES"]

TOPOLOGY_POLICIES: Tuple[str, ...] = ("round_robin", "jsq")
DEFAULT_TOPOLOGY_LOADS: Tuple[float, ...] = (0.5, 0.65, 0.8, 0.9)

#: Synthetic service-time distribution used by both modes: 1 ms mean
#: with a moderate lognormal tail, long enough that sleep() jitter is
#: second-order in the live runs.
_APP = SleepApp(LogNormal(mean=1e-3, sigma=0.5))

#: A live p99 gap within this share of the larger p99 is a tie
#: (consistent with either ordering): live tails carry scheduler noise.
_NOISE_TOLERANCE = 0.15


def run_fig_topology(
    measure_requests: int = 5000,
    seed: int = 0,
    n_servers: int = 4,
    load_points: Tuple[float, ...] = DEFAULT_TOPOLOGY_LOADS,
    policies: Tuple[str, ...] = TOPOLOGY_POLICIES,
) -> Report:
    """Sweep load x policy through the live harness and the simulator."""
    capacity = n_servers / _APP.service.mean

    def name(policy: str, load: float) -> str:
        return f"{policy} {load:g}"

    def claims(rows):
        def gap(mode, load):
            rr = rows[mode][name("round_robin", load)].p99
            jsq = rows[mode][name("jsq", load)].p99
            return rr - jsq, max(rr, jsq)

        agree = True
        for load in load_points:
            live_gap, live_max = gap("live", load)
            if abs(live_gap) > _NOISE_TOLERANCE * live_max and (
                (gap("sim", load)[0] >= 0) != (live_gap >= 0)
            ):
                agree = False
        return [
            claim(
                all(gap("sim", load)[0] > 0 for load in load_points),
                "JSQ beats round-robin: the simulated JSQ p99 is below "
                "round-robin's at every swept load",
                "the simulated JSQ p99 is not below round-robin's at "
                "every swept load",
            ),
            claim(
                agree,
                "live and simulated runs agree on the p99 policy ordering "
                "at every swept load",
                "live and simulated p99 policy orderings disagree at some "
                "load (one live shot per load; reported, not judged)",
                judged=False,
            ),
        ]

    return run_figure(
        title=(
            f"Topology: {n_servers} replicas, round-robin vs JSQ "
            "(sojourn, integrated configuration)"
        ),
        columns=(
            ("policy", "{policy}"),
            ("load", lambda r: f"{r.qps / capacity:.0%}"),
            ("qps", "{qps:.0f}"),
            ("p95", ms("p95")),
            ("p99", ms("p99")),
        ),
        run=_APP.run,
        base=dict(
            n_servers=n_servers,
            warmup_requests=max(100, measure_requests // 10),
            measure_requests=measure_requests,
            seed=seed,
        ),
        arms=[
            Arm(name(policy, load), dict(qps=load * capacity, balancer=policy))
            for policy in policies
            for load in load_points
        ],
        measure=lambda result: dict(
            qps=result.config.qps,
            policy=result.config.balancer,
            p95=result.sojourn.p95,
            p99=result.sojourn.p99,
        ),
        claims=claims,
    )
