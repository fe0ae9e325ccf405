"""Request-dispatch policies: why the harness uses one shared queue.

TailBench's server keeps a single request queue shared among all
worker threads (Fig. 1). The alternative — statically partitioning
arrivals across per-worker queues — is common in real servers
(per-connection handling, RSS hashing) and much worse for tails: a
random dispatch can pile requests behind one busy worker while others
idle.

A per-worker-queue server *is* a topology: ``n_threads`` one-worker
replicas behind a balancer, which is what :func:`simulate_dispatch`
asks :func:`~repro.sim.latency_sim.simulate_load` to run. So the two
designs are compared under identical load by the same run assembly,
any policy from :mod:`repro.core.balancer` (round-robin, random,
power-of-two, join-shortest-queue) can steer arrivals — quantifying
how much smarter dispatch recovers of the shared queue's tail
advantage — and every other :class:`SimConfig` field (faults, load
profile, wire latency, tracing, resilience) means what it means
anywhere else. Random dispatch is ``policy="random"``, the default;
there is no separate entry point for it.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from ..stats import ScaledDistribution
from .calibration import AppProfile
from .latency_sim import SimConfig, SimResult, simulate_load

__all__ = ["simulate_dispatch", "compare_dispatch"]


def simulate_dispatch(
    profile: AppProfile, config: SimConfig, policy: str = "random"
) -> SimResult:
    """Per-worker-queue server under the named dispatch policy.

    ``policy`` is a :mod:`repro.core.balancer` name; ``config.n_threads``
    is the number of workers, each behind its own queue. The workers
    still share one machine, so service times keep the contention
    dilation of ``n_threads`` threads although every replica runs one.
    """
    workers = config.n_threads
    contended = dataclasses.replace(
        profile,
        name=f"{profile.name}/{policy}-dispatch",
        service=ScaledDistribution(
            profile.service,
            profile.contention.factor(
                workers, ideal_memory=config.ideal_memory
            ),
        ),
    )
    return simulate_load(
        contended,
        config.replace(n_servers=workers, n_threads=1, balancer=policy),
    )


def compare_dispatch(
    profile: AppProfile,
    config: SimConfig,
    extra_policies: Sequence[str] = (),
) -> dict:
    """Shared-queue vs per-worker-queue p95/p99 at identical load.

    Always compares the shared queue against random dispatch; any
    additional balancer names in ``extra_policies`` (e.g. ``"jsq"``,
    ``"power_of_two"``) are simulated per-worker-queue too.
    """
    results = {
        "shared": simulate_load(profile, config),
        "random": simulate_dispatch(profile, config, policy="random"),
    }
    for policy in extra_policies:
        results[policy] = simulate_dispatch(profile, config, policy=policy)
    return results
