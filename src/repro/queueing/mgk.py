"""M/G/k queueing analysis.

The Fig. 8 baselines: what latency *would* be with k threads if adding
threads carried no overhead (service times unchanged). Mean waits use
the Lee–Longton approximation (exact for k=1, asymptotically good
under moderate load); percentiles come from the exact FCFS recursion
(:func:`~repro.queueing.recursion.fcfs_sojourns`) over one seeded
sample path, not from the simulator whose ideal-memory runs Fig. 8
checks against them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ..core.traffic import ArrivalSchedule, PoissonArrivals, service_stream
from ..stats import Distribution, LatencySummary
from .recursion import fcfs_sojourns

__all__ = [
    "erlang_c",
    "mmk_mean_wait",
    "mgk_mean_wait",
    "mgk_mean_sojourn",
    "mgk_percentiles",
]


def erlang_c(k: int, offered: float) -> float:
    """Erlang-C probability that an arrival must wait (M/M/k).

    ``offered`` is the offered load in Erlangs, ``a = lambda * E[S]``;
    must be below ``k``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if offered < 0:
        raise ValueError("offered load must be non-negative")
    if offered >= k:
        return 1.0
    # Numerically stable iterative form of the Erlang-B recursion,
    # then convert B -> C.
    b = 1.0
    for i in range(1, k + 1):
        b = offered * b / (i + offered * b)
    rho = offered / k
    return b / (1.0 - rho + rho * b)


def mmk_mean_wait(arrival_rate: float, mean_service: float, k: int) -> float:
    """Mean waiting time in M/M/k."""
    if arrival_rate <= 0 or mean_service <= 0:
        raise ValueError("rates must be positive")
    offered = arrival_rate * mean_service
    if offered >= k:
        return float("inf")
    pw = erlang_c(k, offered)
    return pw * mean_service / (k - offered)


def mgk_mean_wait(arrival_rate: float, service: Distribution, k: int) -> float:
    """Lee–Longton M/G/k mean wait: ``(1 + SCV)/2 * W(M/M/k)``."""
    base = mmk_mean_wait(arrival_rate, service.mean, k)
    if math.isinf(base):
        return base
    return (1.0 + service.scv) / 2.0 * base


def mgk_mean_sojourn(arrival_rate: float, service: Distribution, k: int) -> float:
    """Mean time in system under M/G/k."""
    wait = mgk_mean_wait(arrival_rate, service, k)
    return float("inf") if math.isinf(wait) else wait + service.mean


class _Summaries(NamedTuple):
    sojourn: LatencySummary
    queue: LatencySummary


def mgk_percentiles(
    service: Distribution,
    qps: float,
    k: int,
    measure_requests: int = 20_000,
    seed: int = 0,
) -> _Summaries:
    """Percentile latencies of the pure M/G/k model, on one sample path.

    This is the dashed-line baseline of Fig. 8: ``k`` FCFS workers, the
    *unmodified* service distribution (no contention, no network, no
    simulator error). The path is the one a run seeded ``seed`` would
    draw: its Poisson schedule and server 0's service stream. The first
    ``max(100, measure_requests // 10)`` completions are warmup, as in
    a run. Returns the ``(sojourn, queue)`` pair of
    :class:`~repro.stats.LatencySummary`, also readable as ``.sojourn``
    and ``.queue``.
    """
    if measure_requests < 1:
        raise ValueError("measure_requests must be >= 1")
    warmup = max(100, measure_requests // 10)
    arrivals = ArrivalSchedule.generate(
        PoissonArrivals(qps), warmup + measure_requests, seed=seed
    ).times
    rng = service_stream(seed, 0)
    windows = fcfs_sojourns(
        arrivals, [service.sample(rng) for _ in arrivals], k
    )
    # Completion order, as the collector sees it: by end, then by start
    # (a worker's next completion is scheduled when it starts), then by
    # arrival (equal starts begin in arrival order).
    done = sorted(
        (end, start, i) for i, (start, end) in enumerate(windows)
    )[warmup:]
    return _Summaries(
        LatencySummary.from_samples([end - arrivals[i] for end, _, i in done]),
        LatencySummary.from_samples(
            [start - arrivals[i] for _, start, i in done]
        ),
    )
