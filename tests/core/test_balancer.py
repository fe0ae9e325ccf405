"""Tests for the pluggable load-balancing policies."""

import random

import pytest

from repro.core.balancer import (
    BALANCERS,
    JoinShortestQueueBalancer,
    LoadBalancer,
    PowerOfTwoBalancer,
    RandomBalancer,
    RoundRobinBalancer,
    balancer_names,
    make_balancer,
    pick_active,
)


class TestRegistry:
    def test_all_policies_registered(self):
        assert set(BALANCERS) == {"round_robin", "random", "power_of_two", "jsq"}
        assert balancer_names() == sorted(BALANCERS)

    def test_make_balancer_builds_each_policy(self):
        for name, policy in BALANCERS.items():
            built = make_balancer(name, seed=3)
            assert isinstance(built, policy)
            assert built.name == name

    def test_make_balancer_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown balancer"):
            make_balancer("least-loaded")

    def test_base_pick_is_abstract(self):
        with pytest.raises(NotImplementedError):
            LoadBalancer().pick([0])


class TestRoundRobin:
    def test_deterministic_cycle(self):
        balancer = RoundRobinBalancer()
        depths = [0, 0, 0, 0]
        picks = [balancer.pick(depths) for _ in range(10)]
        assert picks == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]

    def test_ignores_depths(self):
        balancer = RoundRobinBalancer()
        assert balancer.pick([99, 0, 0]) == 0
        assert balancer.pick([99, 0, 0]) == 1

    def test_avoid_skips_to_next(self):
        balancer = RoundRobinBalancer()
        assert balancer.pick([0, 0, 0], avoid=0) == 1
        # The skipped slot is consumed: the cycle continues from there.
        assert balancer.pick([0, 0, 0]) == 2

    def test_avoid_ignored_for_single_server(self):
        balancer = RoundRobinBalancer()
        assert balancer.pick([5], avoid=0) == 0

    def test_empty_depths_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinBalancer().pick([])


class TestRandom:
    def test_seeded_reproducibility(self):
        depths = [0] * 8
        one = RandomBalancer(seed=7)
        two = RandomBalancer(seed=7)
        assert [one.pick(depths) for _ in range(50)] == [
            two.pick(depths) for _ in range(50)
        ]

    def test_covers_all_servers(self):
        balancer = RandomBalancer(seed=1)
        picks = {balancer.pick([0, 0, 0, 0]) for _ in range(200)}
        assert picks == {0, 1, 2, 3}

    def test_avoid_never_picked(self):
        balancer = RandomBalancer(seed=2)
        assert all(
            balancer.pick([0, 0, 0], avoid=1) != 1 for _ in range(100)
        )


class TestPowerOfTwo:
    def test_never_picks_longer_of_sampled_pair(self):
        """P2C must always join the shorter of its two sampled queues."""
        balancer = PowerOfTwoBalancer(seed=0)

        class _ScriptedRng:
            """Stands in for the policy RNG: yields a scripted pair.

            As the two draws ``random.sample(range(4), 2)`` makes for
            it: one of the four candidates, then one of the three left,
            where the last candidate has taken the first one's slot.
            """

            def __init__(self):
                self.pair = (0, 1)
                self.draws = []

            def getrandbits(self, k):
                # randrange(bound) draws bound.bit_length() bits.
                if not self.draws:
                    first, second = self.pair
                    self.draws = [first, first if second == 3 else second]
                bound = 4 if len(self.draws) == 2 else 3
                assert k == bound.bit_length()
                return self.draws.pop(0)

        scripted = _ScriptedRng()
        balancer._rng = scripted
        depths = [4, 1, 9, 0]
        for first in range(4):
            for second in range(4):
                if first == second:
                    continue
                scripted.pair = (first, second)
                choice = balancer.pick(depths)
                assert choice in (first, second)
                assert depths[choice] <= min(depths[first], depths[second])

    def test_tie_goes_to_first_sampled(self):
        balancer = PowerOfTwoBalancer(seed=0)

        class _ScriptedRng:
            def __init__(self):
                # random.sample's draws for the pair (2, 1).
                self.draws = [2, 1]

            def getrandbits(self, k):
                return self.draws.pop(0)

        balancer._rng = _ScriptedRng()
        assert balancer.pick([0, 3, 3]) == 2

    def test_statistically_beats_long_queue(self):
        balancer = PowerOfTwoBalancer(seed=5)
        depths = [50, 0, 0, 0]
        picks = [balancer.pick(depths) for _ in range(300)]
        # Server 0 only wins when never sampled against an empty queue,
        # which cannot happen with two distinct samples here.
        assert picks.count(0) == 0

    def test_avoid_with_two_servers_forces_the_other(self):
        balancer = PowerOfTwoBalancer(seed=0)
        assert all(
            balancer.pick([0, 0], avoid=0) == 1 for _ in range(20)
        )


class TestJoinShortestQueue:
    def test_picks_global_minimum(self):
        balancer = JoinShortestQueueBalancer()
        assert balancer.pick([3, 1, 2]) == 1
        assert balancer.pick([9, 9, 0, 9]) == 2

    def test_forced_imbalance(self):
        """Under persistent imbalance JSQ always drains the short queue."""
        rng = random.Random(0)
        balancer = JoinShortestQueueBalancer()
        for _ in range(100):
            depths = [rng.randrange(2, 30) for _ in range(6)]
            short = rng.randrange(6)
            depths[short] = 0
            assert balancer.pick(depths) == short

    def test_tie_breaks_to_lowest_index(self):
        assert JoinShortestQueueBalancer().pick([2, 1, 1, 1]) == 1

    def test_avoid_excludes_minimum(self):
        assert JoinShortestQueueBalancer().pick([0, 1, 2], avoid=0) == 1


#: Every size sample() treats with its pool rule, and two with its set
#: rule (more than 21 candidates).
SIZES = (*range(2, 22), 22, 40)


class TestPowerOfTwoDraws:
    """Power-of-two's pair is ``random.sample(candidates, 2)``'s, drawn
    without the candidate list: same pair, same draws, same RNG state."""

    @staticmethod
    def _pair(n, seed, avoid):
        candidates = [i for i in range(n) if i != avoid]
        rng = random.Random(seed)
        if len(candidates) == 1:
            return (candidates[0], candidates[0]), rng.getstate()
        return tuple(rng.sample(candidates, 2)), rng.getstate()

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("avoiding", [False, True])
    def test_the_pair_is_random_sample_s(self, n, avoiding):
        for seed in range(200):
            avoid = seed % n if avoiding else None
            (first, second), state = self._pair(n, seed, avoid)
            # Equal depths: a tie goes to the first of the pair.
            balancer = PowerOfTwoBalancer(seed=seed)
            assert balancer.pick([0] * n, avoid=avoid) == first
            assert balancer._rng.getstate() == state
            # The first of the pair longer: the second one wins.
            depths = [0] * n
            depths[first] = 1
            balancer = PowerOfTwoBalancer(seed=seed)
            assert balancer.pick(depths, avoid=avoid) == second
            assert balancer._rng.getstate() == state


def _randrange_pick(rng, depths, avoid):
    """Power-of-two's pick drawn with ``randrange``, as it was first
    written: the reference for its ``getrandbits`` draws."""
    n = len(depths)
    skip = avoid if avoid is not None and n > 1 and 0 <= avoid < n else n
    m = n - 1 if skip < n else n
    if m == 1:
        return 1 if skip == 0 else 0
    first = rng.randrange(m)
    if m <= 21:
        second = rng.randrange(m - 1)
        if second == first:
            second = m - 1
    else:
        second = rng.randrange(m)
        while second == first:
            second = rng.randrange(m)
    first += first >= skip
    second += second >= skip
    return first if depths[first] <= depths[second] else second


class TestGetrandbitsDraws:
    """Each draw is ``randrange(m)``'s, for every candidate count m of
    1..64: the same picks and the same generator state after each."""

    @pytest.mark.parametrize("m", range(1, 65))
    def test_the_draws_are_randrange_s(self, m):
        for seed in range(25):
            picks = random.Random(seed ^ m)
            balancer = PowerOfTwoBalancer(seed=seed)
            reference = random.Random(seed)
            for _ in range(20):
                # m candidates: m servers, or m + 1 with one avoided.
                avoiding = picks.random() < 0.5
                n = m + 1 if avoiding else m
                if n == 1:
                    continue
                avoid = picks.randrange(n) if avoiding else None
                depths = [picks.randrange(3) for _ in range(n)]
                assert balancer.pick(depths, avoid) == _randrange_pick(
                    reference, depths, avoid
                )
                assert balancer._rng.getstate() == reference.getstate()


class TestAllActivePath:
    """``pick_active`` over every replica hands the policy the depth
    vector itself; over a strict subset it builds a dense one. With one
    more, inactive replica the same picks must take the dense path and
    come out the same."""

    @pytest.mark.parametrize("policy", sorted(BALANCERS))
    @pytest.mark.parametrize("n", [2, 3, 8, 23])
    def test_routes_as_the_dense_remap(self, policy, n):
        draws = random.Random(n)
        direct = make_balancer(policy, seed=11)
        remapped = make_balancer(policy, seed=11)
        active = list(range(n))
        for _ in range(300):
            depths = [draws.randrange(4) for _ in range(n)]
            # None, an active replica, or the inactive one (dropped by
            # the remap, out of range for the policy).
            avoid = draws.choice([None, draws.randrange(n), n])
            assert pick_active(direct, depths, active, avoid) == pick_active(
                remapped, depths + [-1], active, avoid
            )
