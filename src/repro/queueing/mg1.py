"""M/G/1 queueing analysis (Pollaczek–Khinchine).

Poisson arrivals into a single FCFS server with a general service-time
distribution — the analytic model of a single-threaded TailBench
application. Exact formulas for the mean waiting and sojourn times and
the mean queue length. Closed forms for M/G/1 percentiles do not exist
in general; :func:`repro.queueing.mgk_percentiles` with ``k=1`` reads
them off one seeded sample path of the exact FCFS recursion.
"""

from __future__ import annotations

from ..stats import Distribution

__all__ = [
    "utilization",
    "mean_wait",
    "mean_sojourn",
    "mean_queue_length",
]


def utilization(arrival_rate: float, service: Distribution) -> float:
    """Offered load rho = lambda * E[S]."""
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    return arrival_rate * service.mean


def mean_wait(arrival_rate: float, service: Distribution) -> float:
    """Pollaczek–Khinchine mean waiting time.

    ``E[W] = lambda * E[S^2] / (2 * (1 - rho))``; infinite at or beyond
    saturation.
    """
    rho = utilization(arrival_rate, service)
    if rho >= 1.0:
        return float("inf")
    return arrival_rate * service.second_moment / (2.0 * (1.0 - rho))


def mean_sojourn(arrival_rate: float, service: Distribution) -> float:
    """Mean time in system: waiting plus service."""
    return mean_wait(arrival_rate, service) + service.mean


def mean_queue_length(arrival_rate: float, service: Distribution) -> float:
    """Mean number waiting (Little's law on the waiting room)."""
    wait = mean_wait(arrival_rate, service)
    return float("inf") if wait == float("inf") else arrival_rate * wait
