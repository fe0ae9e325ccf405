"""Pluggable load-balancing policies for the multi-server topology.

TailBench's harness (Fig. 1) models one client driving one server.
Once the harness hosts *N* independent server instances, every request
must be routed to one of them, and the routing policy itself becomes a
first-class experimental variable: load imbalance is a tail-latency
mechanism in its own right ["The Tail at Scale", Dean & Barroso 2013].

Four classic policies are provided behind one interface:

- **round_robin** — cycle through servers in order. Deterministic and
  perfectly fair in counts, but blind to queue state: a slow replica
  keeps receiving its share and grows a deep queue.
- **random** — uniform random choice. Stateless; its binomial arrival
  spread produces transient imbalance that shows up in the tails.
- **power_of_two** — sample two distinct servers, send to the one with
  the shorter queue [Mitzenmacher 2001]. Exponentially better maximum
  load than random at the cost of two depth probes.
- **jsq** — join-the-shortest-queue: send to the global minimum-depth
  server. The strongest of the four on tails, but needs full state.

Depth-aware policies consume a *depth vector*: one integer per server
counting the requests currently at (or in flight to) that server. The
live transport maintains per-instance outstanding counts; the
simulator exposes ``queued + in service``. Policies never inspect
servers directly, so live and simulated runs share this module
verbatim — one of the invariants that keeps the two modes comparable.

Every policy accepts an optional ``avoid`` server: the resilient
client passes the first attempt's server when hedging, so a hedge
lands on a *different* replica whenever more than one exists (hedging
to the same stuck queue is pointless).
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Optional, Sequence, Type

__all__ = [
    "LoadBalancer",
    "RoundRobinBalancer",
    "RandomBalancer",
    "PowerOfTwoBalancer",
    "JoinShortestQueueBalancer",
    "BALANCERS",
    "balancer_names",
    "make_balancer",
    "pick_active",
]


class LoadBalancer:
    """Routing policy: map a per-server depth vector to a server index.

    Implementations must be thread-safe — the live harness calls
    :meth:`pick` from the traffic-shaper thread and from the resilience
    timer thread concurrently — and deterministic given their seed,
    so simulated runs replay identically. The four below take no lock:
    each step of their state is one C call (a draw of a seeded
    generator, ``next`` of a counter), atomic under the GIL, so
    concurrent picks interleave whole draws and every pick is valid.
    """

    #: Registry/display name; subclasses override.
    name: str = "base"

    def __init__(self, seed: int = 0) -> None:
        """Stateless policies ignore ``seed``; accepted for uniformity."""

    def pick(self, depths: Sequence[int], avoid: Optional[int] = None) -> int:
        """Choose a server index given current per-server depths.

        ``avoid`` excludes one server from consideration when at least
        one alternative exists (hedge-to-a-different-replica); with a
        single server it is ignored.
        """
        raise NotImplementedError

    @staticmethod
    def _candidates(n: int, avoid: Optional[int]) -> Sequence[int]:
        if n < 1:
            raise ValueError("depth vector must not be empty")
        if avoid is None or n == 1 or not 0 <= avoid < n:
            return range(n)
        return [i for i in range(n) if i != avoid]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class RoundRobinBalancer(LoadBalancer):
    """Cycle through servers in index order, ignoring queue state."""

    name = "round_robin"

    def __init__(self, seed: int = 0) -> None:  # seed accepted for parity
        self._turns = itertools.count()

    def pick(self, depths: Sequence[int], avoid: Optional[int] = None) -> int:
        n = len(depths)
        if n < 1:
            raise ValueError("depth vector must not be empty")
        turn = next(self._turns)
        choice = turn % n
        if avoid is not None and n > 1 and choice == avoid:
            # The avoided server's turn passes to the one after it, and
            # uses up that one's turn too (the cycle moves on by two).
            # The choice comes from this pick's own turn, not from the
            # counter: a concurrent pick may take turns in between.
            next(self._turns)
            choice = (turn + 1) % n
        return choice


class RandomBalancer(LoadBalancer):
    """Uniform random choice, seeded for reproducibility."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def pick(self, depths: Sequence[int], avoid: Optional[int] = None) -> int:
        candidates = self._candidates(len(depths), avoid)
        if isinstance(candidates, range):
            return self._rng.randrange(len(depths))
        return self._rng.choice(candidates)


class PowerOfTwoBalancer(LoadBalancer):
    """Sample two distinct servers; join the shorter of the two queues.

    Ties go to the first-sampled server, so the policy never picks the
    strictly longer of its two sampled queues. The pair is the one
    ``random.sample(candidates, 2)`` returns, drawn with the same
    ``getrandbits`` draws its ``randrange`` calls make and no
    candidate list.
    """

    name = "power_of_two"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def pick(self, depths: Sequence[int], avoid: Optional[int] = None) -> int:
        n = len(depths)
        if n < 1:
            raise ValueError("depth vector must not be empty")
        # The candidates are the servers but ``avoid``, in index order:
        # candidate p is server p below ``skip``, server p + 1 from it.
        skip = avoid if avoid is not None and n > 1 and 0 <= avoid < n else n
        m = n - 1 if skip < n else n
        if m == 1:
            # One candidate, drawn for by nobody: candidate 0.
            return 1 if skip == 0 else 0
        bits = self._rng.getrandbits
        # randrange(m): m.bit_length() random bits, redrawn until < m.
        k = m.bit_length()
        first = bits(k)
        while first >= m:
            first = bits(k)
        if m <= 21:
            # sample()'s pool rule: the first pick's slot is refilled
            # with the last candidate, then one of m - 1 is drawn.
            k = (m - 1).bit_length()
            second = bits(k)
            while second >= m - 1:
                second = bits(k)
            if second == first:
                second = m - 1
        else:
            # Its set rule: draw again until the two differ.
            second = first
            while second == first:
                second = bits(k)
                while second >= m:
                    second = bits(k)
        if first >= skip:
            first += 1
        if second >= skip:
            second += 1
        return first if depths[first] <= depths[second] else second


class JoinShortestQueueBalancer(LoadBalancer):
    """Global minimum-depth choice; ties break to the lowest index."""

    name = "jsq"

    def pick(self, depths: Sequence[int], avoid: Optional[int] = None) -> int:
        candidates = self._candidates(len(depths), avoid)
        return min(candidates, key=lambda i: (depths[i], i))


BALANCERS: Dict[str, Type[LoadBalancer]] = {
    policy.name: policy
    for policy in (
        RoundRobinBalancer,
        RandomBalancer,
        PowerOfTwoBalancer,
        JoinShortestQueueBalancer,
    )
}


def balancer_names() -> Sequence[str]:
    """All registered policy names, sorted."""
    return sorted(BALANCERS)


def make_balancer(name: str, seed: int = 0) -> LoadBalancer:
    """Build a policy by name (``round_robin`` / ``random`` /
    ``power_of_two`` / ``jsq``), seeding any internal RNG."""
    try:
        policy = BALANCERS[name]
    except KeyError:
        raise ValueError(
            f"unknown balancer {name!r}; known: {balancer_names()}"
        ) from None
    return policy(seed=seed)


def pick_active(
    balancer: LoadBalancer,
    depths: Sequence[int],
    active_ids: Sequence[int],
    avoid: Optional[int] = None,
) -> int:
    """Route over the *active* replica subset; return a real server id.

    With runtime membership (autoscaling), the instance list is
    append-only and draining replicas stay in place — so the balancer
    must never see them as candidates. ``active_ids`` lists distinct
    server ids in ascending order, as the transport keeps them. When it
    holds every replica (as many ids as depths) it is
    ``range(len(depths))``, so the policy sees ``depths`` and ``avoid``
    as they are and its position is the server id: static topologies
    map nothing and build nothing. Otherwise the policy sees a dense
    depth vector of only the active replicas and its positional pick
    is mapped back to the true server id.

    ``avoid`` is a server id (not a position); it is translated into
    the dense space, and dropped when the avoided replica is not active
    (routing away from a drained replica is automatic). Every policy
    ignores an ``avoid`` outside its depth vector, as it does None.

    Degrades gracefully: when upstream filtering (avoid + draining +
    health ejection) leaves zero candidates, the full replica set is
    used instead — under a storm, routing *somewhere* beats raising on
    the send path.
    """
    n = len(active_ids)
    if not n:
        n = len(depths)
        if not n:
            raise ValueError("no servers exist to route to")
        active_ids = range(n)
    if n == 1:
        return active_ids[0]
    if n == len(depths):
        position = balancer.pick(depths, avoid=avoid)
    else:
        dense_depths = [depths[server_id] for server_id in active_ids]
        dense_avoid: Optional[int] = None
        if avoid is not None:
            try:
                dense_avoid = list(active_ids).index(avoid)
            except ValueError:
                dense_avoid = None
        position = balancer.pick(dense_depths, avoid=dense_avoid)
    if not 0 <= position < n:
        raise ValueError(f"balancer picked position {position} of {n}")
    return active_ids[position]
