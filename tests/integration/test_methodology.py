"""Integration: the measurement-methodology claims of Sec. IV.

These tests demonstrate, inside the simulator, the methodological
points the paper builds its harness on: coordinated omission, open-
vs closed-loop behaviour, and warmup effects.
"""

import random

import pytest

from repro.sim import (
    AppProfile,
    Engine,
    ServiceTimeModel,
    SimConfig,
    SimulatedServer,
    simulate_load,
)
from repro.core import StatsCollector
from repro.sim.network_model import NETWORK_MODELS
from repro.stats import Deterministic, Exponential


def closed_loop_latencies(service_mean, n_requests, think_time=0.0):
    """A 1-client closed loop over the same simulated server.

    The client sends request i+1 only after response i returns — the
    design flaw (coordinated omission) of conventional load testers.
    """
    engine = Engine()
    collector = StatsCollector()
    state = {"sent": 0}

    def send_next():
        if state["sent"] >= n_requests:
            return
        state["sent"] += 1
        server.submit(engine.now)

    # The response both is recorded and drives the loop.
    def on_response(request):
        collector.add(request.finish())
        engine.after(think_time, send_next)

    server = SimulatedServer(
        engine,
        ServiceTimeModel(Exponential.from_mean(service_mean)),
        NETWORK_MODELS["integrated"],
        1,
        random.Random(0),
        on_response,
    )
    send_next()
    engine.run()
    return collector.snapshot()


class TestCoordinatedOmission:
    def test_closed_loop_underestimates_tail(self):
        # Same server, same mean service time. The open loop at 80%
        # load sees real queueing in its tail; the closed loop can
        # never observe queueing at all (it only ever has one request
        # outstanding), so its p99 hugely underestimates what a
        # constant-rate user population would experience.
        service_mean = 1e-3
        profile = AppProfile(
            name="co", service=Exponential.from_mean(service_mean)
        )
        open_loop = simulate_load(
            profile,
            SimConfig(qps=0.8 / service_mean, measure_requests=20_000,
                      warmup_requests=2000),
        )
        closed = closed_loop_latencies(service_mean, 20_000)
        closed_summary = closed.summary("sojourn")
        assert closed_summary.p99 < open_loop.sojourn.p99 / 2
        # And the closed loop never queues:
        assert closed.summary("queue").maximum == pytest.approx(0.0)

    def test_open_loop_latency_independent_of_response_times(self):
        # Open-loop arrivals are drawn from the schedule regardless of
        # completions; offered QPS is preserved even under overload.
        service_mean = 1e-3
        profile = AppProfile(name="od", service=Deterministic(service_mean))
        result = simulate_load(
            profile,
            SimConfig(qps=2.0 / service_mean, measure_requests=3000),
        )
        assert result.utilization > 0.99  # server pinned
        # Sojourn keeps growing with arrival index under overload:
        records = result.stats.records
        first_quarter = [r.sojourn_time for r in records[: len(records) // 4]]
        last_quarter = [r.sojourn_time for r in records[-len(records) // 4:]]
        assert (sum(last_quarter) / len(last_quarter)) > 3 * (
            sum(first_quarter) / len(first_quarter)
        )


class TestWarmup:
    def test_warmup_removes_cold_start_bias(self):
        # A server whose first requests are artificially slow (cold
        # caches): without warmup the p95 is contaminated.
        class ColdStartModel(ServiceTimeModel):
            def __init__(self):
                super().__init__(Deterministic(1e-3))
                self.served = 0

            def sample(self, rng):
                self.served += 1
                if self.served <= 100:
                    return 20e-3  # cold
                return 1e-3

        def run(warmup):
            engine = Engine()
            collector = StatsCollector(warmup_requests=warmup)
            server = SimulatedServer(
                engine, ColdStartModel(), NETWORK_MODELS["integrated"],
                1, random.Random(0),
                lambda request: collector.add(request.finish()),
            )
            for i in range(2000):
                server.submit(i * 0.05)
            engine.run()
            return collector.snapshot().summary("service")

        contaminated = run(warmup=0)
        clean = run(warmup=200)
        assert contaminated.p99 > 10 * clean.p99
        assert clean.p99 == pytest.approx(1e-3, rel=0.05)


class TestRandomizedRepetition:
    def test_different_seeds_give_independent_estimates(self):
        service_mean = 1e-3
        profile = AppProfile(
            name="rep", service=Exponential.from_mean(service_mean)
        )
        p95s = [
            simulate_load(
                profile,
                SimConfig(qps=0.7 / service_mean, measure_requests=12_000,
                          warmup_requests=1000, seed=seed),
            ).sojourn.p95
            for seed in range(5)
        ]
        assert len(set(p95s)) == 5  # genuinely re-randomized
        spread = (max(p95s) - min(p95s)) / min(p95s)
        assert spread < 0.5  # but statistically consistent
