"""Tests for dispatch policies and bursty (MMPP) arrivals."""

import random

import pytest

from repro.core import ArrivalSchedule, BurstyArrivals, PoissonArrivals
from repro.sim import (
    SimConfig,
    compare_dispatch,
    paper_profile,
    simulate_dispatch,
    simulate_load,
)
from repro.stats import Exponential


class TestBurstyArrivals:
    def test_average_rate_preserved(self):
        process = BurstyArrivals(qps=1000.0, burstiness=8.0, burst_fraction=0.15)
        schedule = ArrivalSchedule.generate(process, 60_000, seed=1)
        assert schedule.observed_qps == pytest.approx(1000.0, rel=0.1)

    def test_regime_rates(self):
        process = BurstyArrivals(qps=1000.0, burstiness=10.0, burst_fraction=0.1)
        # f*B*c + (1-f)*c = qps
        recovered = (
            0.1 * process.burst_rate + 0.9 * process.calm_rate
        )
        assert recovered == pytest.approx(1000.0)
        assert process.burst_rate == pytest.approx(10 * process.calm_rate)

    def test_burstier_than_poisson(self):
        # Index of dispersion of counts: MMPP must exceed Poisson's ~1.
        def dispersion(process, seed=2):
            schedule = ArrivalSchedule.generate(process, 40_000, seed=seed)
            window = 0.05
            counts = {}
            for t in schedule:
                counts[int(t / window)] = counts.get(int(t / window), 0) + 1
            values = list(counts.values())
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / len(values)
            return var / mean

        poisson = dispersion(PoissonArrivals(1000.0))
        bursty = dispersion(
            BurstyArrivals(qps=1000.0, burstiness=10.0, burst_fraction=0.1)
        )
        assert bursty > 3 * poisson

    def test_gaps_positive(self):
        process = BurstyArrivals(qps=500.0)
        rng = random.Random(0)
        assert all(process.next_gap(rng) > 0 for _ in range(1000))

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstyArrivals(qps=0.0)
        with pytest.raises(ValueError):
            BurstyArrivals(qps=10.0, burstiness=1.0)
        with pytest.raises(ValueError):
            BurstyArrivals(qps=10.0, burst_fraction=0.0)
        with pytest.raises(ValueError):
            BurstyArrivals(qps=10.0, regime_dwell=0.0)

    def test_bursty_load_inflates_tails_at_equal_rate(self):
        # The methodology point: same offered QPS, far worse tails.
        service = Exponential.from_mean(1e-3)
        qps = 600.0

        def run(process):
            # Reuse the simulator's machinery with a custom schedule.
            from repro.core.collector import StatsCollector
            from repro.sim import Engine, SimulatedServer, ServiceTimeModel
            from repro.sim.network_model import NETWORK_MODELS

            engine = Engine()
            collector = StatsCollector(warmup_requests=2000)
            server = SimulatedServer(
                engine, ServiceTimeModel(service),
                NETWORK_MODELS["integrated"], 1, random.Random(1),
                lambda request: collector.add(request.finish()),
            )
            schedule = ArrivalSchedule.generate(process, 22_000, seed=4)
            for t in schedule:
                server.submit(t)
            engine.run()
            return collector.snapshot().summary("sojourn")

        poisson = run(PoissonArrivals(qps))
        bursty = run(
            BurstyArrivals(qps=qps, burstiness=6.0, burst_fraction=0.15)
        )
        assert bursty.p99 > 1.5 * poisson.p99


class TestDispatchPolicies:
    def test_shared_queue_beats_random_dispatch_on_tails(self):
        profile = paper_profile("masstree")
        config = SimConfig(
            qps=0.7 * 4 / profile.service.mean,
            n_threads=4,
            measure_requests=12_000,
        )
        results = compare_dispatch(profile, config)
        assert results["shared"].sojourn.p95 < 0.6 * results["random"].sojourn.p95
        assert results["shared"].sojourn.p99 < results["random"].sojourn.p99

    def test_equal_throughput_despite_latency_gap(self):
        profile = paper_profile("masstree")
        config = SimConfig(
            qps=0.6 * 4 / profile.service.mean,
            n_threads=4,
            measure_requests=8000,
        )
        results = compare_dispatch(profile, config)
        assert results["random"].utilization == pytest.approx(
            results["shared"].utilization, abs=0.05
        )

    def test_single_worker_designs_equivalent(self):
        # With one worker there is nothing to dispatch over: both
        # designs reduce to the same M/G/1 queue.
        profile = paper_profile("xapian")
        config = SimConfig(
            qps=0.5 / profile.service.mean, n_threads=1,
            measure_requests=10_000,
        )
        shared = simulate_load(profile, config)
        partitioned = simulate_dispatch(profile, config, policy="random")
        assert partitioned.sojourn.mean == pytest.approx(
            shared.sojourn.mean, rel=0.15
        )

    def test_records_valid(self):
        profile = paper_profile("silo")
        result = simulate_dispatch(
            profile,
            SimConfig(qps=5000, n_threads=2, measure_requests=2000),
            policy="random",
        )
        for record in result.stats.records:
            assert record.sojourn_time >= record.service_time >= 0
