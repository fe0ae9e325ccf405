"""Tests for the exact FCFS recursion (Lindley / Kiefer–Wolfowitz)."""

import random

import pytest

from repro.queueing import fcfs_sojourns


class TestHandWorked:
    def test_one_worker(self):
        # Idle start, a queue of one, back to back, then idle again.
        windows = fcfs_sojourns([0.0, 1.0, 2.0, 10.0], [2.0, 2.0, 1.0, 1.0], 1)
        assert windows == [(0.0, 2.0), (2.0, 4.0), (4.0, 5.0), (10.0, 11.0)]

    def test_two_workers_take_the_first_free(self):
        # Three arrive at once: the third waits for the worker that
        # frees first (at 2, not at 4); the fourth waits for the other.
        windows = fcfs_sojourns([0.0, 0.0, 0.0, 1.0], [4.0, 2.0, 2.0, 1.0], 2)
        assert windows == [(0.0, 4.0), (0.0, 2.0), (2.0, 4.0), (4.0, 5.0)]

    def test_two_workers_never_queue_below_capacity(self):
        windows = fcfs_sojourns(
            [0.0, 0.0, 1.0, 2.0, 3.0], [3.0, 1.0, 1.0, 2.0, 1.0], 2
        )
        assert [start for start, _ in windows] == [0.0, 0.0, 1.0, 2.0, 3.0]
        assert [end for _, end in windows] == [3.0, 1.0, 2.0, 4.0, 4.0]

    def test_empty(self):
        assert fcfs_sojourns([], [], 3) == []


class TestAgainstClosedRecursions:
    def test_one_worker_is_lindley(self):
        # W_{n+1} = max(0, W_n + S_n - (A_{n+1} - A_n)), on integer
        # times so both sides compute without rounding.
        rng = random.Random(1)
        arrivals, t = [], 0
        for _ in range(2000):
            t += rng.randint(0, 5)
            arrivals.append(float(t))
        services = [float(rng.randint(1, 6)) for _ in arrivals]
        windows = fcfs_sojourns(arrivals, services, 1)
        wait = 0.0
        for i, (start, _) in enumerate(windows):
            assert start - arrivals[i] == wait
            if i + 1 < len(arrivals):
                gap = arrivals[i + 1] - arrivals[i]
                wait = max(0.0, wait + services[i] - gap)

    def test_k_workers_without_queueing_never_wait(self):
        # As many workers as requests: every start is its arrival.
        arrivals = sorted(random.Random(2).uniform(0, 1) for _ in range(50))
        windows = fcfs_sojourns(arrivals, [5.0] * 50, 50)
        assert [start for start, _ in windows] == arrivals

    def test_more_workers_never_later(self):
        rng = random.Random(3)
        arrivals = sorted(rng.uniform(0, 100) for _ in range(500))
        services = [rng.expovariate(1.0) for _ in arrivals]
        ends = [
            [end for _, end in fcfs_sojourns(arrivals, services, k)]
            for k in (1, 2, 4)
        ]
        for fewer, more in zip(ends, ends[1:]):
            assert all(b <= a for a, b in zip(fewer, more))


class TestValidation:
    def test_k_below_one(self):
        with pytest.raises(ValueError):
            fcfs_sojourns([0.0], [1.0], 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fcfs_sojourns([0.0, 1.0], [1.0], 1)

    def test_unsorted_arrivals(self):
        with pytest.raises(ValueError):
            fcfs_sojourns([1.0, 0.5], [1.0, 1.0], 2)
