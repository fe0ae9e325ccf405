"""Topology extension: load-balancing policy vs tail latency.

Sweeps offered load against a 4-replica topology under round-robin and
join-shortest-queue routing, in *both* execution modes the codebase
provides:

- **live** — the real harness (integrated configuration), each replica
  a worker thread sleeping through lognormal service times;
- **sim** — the discrete-event simulator with the identical
  service-time distribution and topology.

The reproduced claim is twofold. First, depth-aware routing (JSQ)
dominates blind round-robin in the tail, and the gap widens with load
— load *imbalance* is a tail-latency mechanism of its own ["The Tail
at Scale"]. Second, the live harness and the simulator agree on the
p99 *ordering* of the two policies at every swept load, which is the
topology-level extension of the paper's live-vs-simulated validation
methodology (Fig. 5/6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..stats import LatencySummary, LogNormal
from .reporting import ascii_table
from .sleep_app import SleepApp

__all__ = [
    "TopologyComparison",
    "run_fig_topology",
    "render_fig_topology",
    "TOPOLOGY_POLICIES",
]

TOPOLOGY_POLICIES: Tuple[str, ...] = ("round_robin", "jsq")
DEFAULT_TOPOLOGY_LOADS: Tuple[float, ...] = (0.5, 0.65, 0.8, 0.9)

#: Synthetic service-time distribution used by both modes: 1 ms mean
#: with a moderate lognormal tail, long enough that sleep() jitter is
#: second-order in the live runs.
_APP = SleepApp(LogNormal(mean=1e-3, sigma=0.5))


@dataclass(frozen=True)
class TopologyComparison:
    """p95/p99 sojourn per policy per load point, live and simulated."""

    n_servers: int
    load_points: Tuple[float, ...]
    qps_points: Tuple[float, ...]
    #: mode -> policy -> one LatencySummary per qps point.
    live: Dict[str, Tuple[LatencySummary, ...]]
    sim: Dict[str, Tuple[LatencySummary, ...]]

    def ordering_agreement(self, noise_tolerance: float = 0.15) -> bool:
        """Do live and sim rank the policies identically at every load?

        The simulator's ordering is exact; live tails carry scheduler
        noise, so a live difference within ``noise_tolerance`` of the
        larger p99 is treated as a tie (consistent with either order).
        """
        for i in range(len(self.qps_points)):
            sim_gap = self.sim["round_robin"][i].p99 - self.sim["jsq"][i].p99
            live_rr = self.live["round_robin"][i].p99
            live_jsq = self.live["jsq"][i].p99
            live_gap = live_rr - live_jsq
            if abs(live_gap) <= noise_tolerance * max(live_rr, live_jsq):
                continue
            if (sim_gap >= 0) != (live_gap >= 0):
                return False
        return True


def run_fig_topology(
    measure_requests: int = 5000,
    seed: int = 0,
    n_servers: int = 4,
    load_points: Tuple[float, ...] = DEFAULT_TOPOLOGY_LOADS,
    policies: Tuple[str, ...] = TOPOLOGY_POLICIES,
) -> TopologyComparison:
    """Sweep load x policy through the live harness and the simulator."""
    capacity = n_servers / _APP.service.mean
    qps_points = tuple(load * capacity for load in load_points)
    warmup = max(100, measure_requests // 10)

    summaries: Dict[str, Dict[str, Tuple[LatencySummary, ...]]] = {
        mode: {
            policy: tuple(
                _APP.run(
                    mode,
                    configuration="integrated",
                    qps=qps,
                    n_threads=1,
                    n_servers=n_servers,
                    balancer=policy,
                    warmup_requests=warmup,
                    measure_requests=measure_requests,
                    seed=seed,
                ).sojourn
                for qps in qps_points
            )
            for policy in policies
        }
        for mode in ("live", "sim")
    }
    return TopologyComparison(
        n_servers=n_servers,
        load_points=tuple(load_points),
        qps_points=qps_points,
        **summaries,
    )


def render_fig_topology(result: TopologyComparison) -> str:
    headers = ["load", "qps"]
    for mode in ("live", "sim"):
        for policy in result.live:
            headers += [f"{mode} {policy} p95", f"{mode} {policy} p99"]
    rows = []
    for i, load in enumerate(result.load_points):
        row = [f"{load:.0%}", f"{result.qps_points[i]:.0f}"]
        for mode_data in (result.live, result.sim):
            for summaries in mode_data.values():
                row += [
                    f"{summaries[i].p95 * 1e3:.2f}ms",
                    f"{summaries[i].p99 * 1e3:.2f}ms",
                ]
        rows.append(row)
    table = ascii_table(
        headers,
        rows,
        title=(
            f"Topology: {result.n_servers} replicas, round-robin vs JSQ "
            "(sojourn, integrated configuration)"
        ),
    )
    verdict = (
        "live and simulated runs agree on the p99 policy ordering at "
        "every swept load"
        if result.ordering_agreement()
        else "WARNING: live and simulated p99 policy orderings disagree"
    )
    return f"{table}\n{verdict}"
