"""The exact sample-path recursion of a first-come-first-served queue.

``k`` identical workers drain one FIFO queue. Request ``i`` arrives at
``a_i`` and needs ``s_i`` of a worker; it starts the moment both it has
arrived and a worker is free, and it takes the worker that frees up
first. For ``k = 1`` that is Lindley's recursion, for ``k > 1``
Kiefer–Wolfowitz's: keep the ``k`` next-free instants in a heap, start
each arrival at ``max(a_i, earliest free)``, and put its end back.

Given the same arrivals and service draws this is the simulator's
n-worker FCFS server with no event engine at all, which makes it both
the M/G/k baseline of Fig. 8 and an oracle for the simulator
(DESIGN.md §4, "An exact oracle").
"""

from __future__ import annotations

import heapq
import math
from typing import List, Sequence, Tuple

__all__ = ["fcfs_sojourns"]


def fcfs_sojourns(
    arrivals: Sequence[float], services: Sequence[float], k: int
) -> List[Tuple[float, float]]:
    """Each request's ``(start, end)`` of service, in arrival order.

    ``arrivals`` must be non-decreasing and as long as ``services``.
    Request ``i``'s sojourn is ``end - arrivals[i]`` and its wait in the
    queue ``start - arrivals[i]``; the instants are returned rather than
    the differences so a caller can add a wire delay or order the
    completions with no rounding in between.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(arrivals) != len(services):
        raise ValueError(
            f"{len(arrivals)} arrivals but {len(services)} service times"
        )
    free = [-math.inf] * k  # a heap: the instant each worker frees up
    windows = []
    last = -math.inf
    for arrival, service in zip(arrivals, services):
        if arrival < last:
            raise ValueError("arrivals must be non-decreasing")
        last = arrival
        start = max(arrival, free[0])
        end = start + service
        heapq.heapreplace(free, end)
        windows.append((start, end))
    return windows
