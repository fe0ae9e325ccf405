"""Tests for the virtual-time server model."""

import random

import pytest

from repro.core import StatsCollector
from repro.sim import Engine, SimulatedServer, ServiceTimeModel
from repro.sim.network_model import NETWORK_MODELS
from repro.stats import Deterministic, Exponential


def run_server(service, arrivals, n_threads=1, network="integrated"):
    engine = Engine()
    collector = StatsCollector()
    server = SimulatedServer(
        engine,
        ServiceTimeModel(service),
        NETWORK_MODELS[network],
        n_threads,
        random.Random(0),
        lambda request: collector.add(request.finish()),
    )
    for t in arrivals:
        server.submit(t)
    engine.run()
    return server, collector.snapshot(), engine


class TestSingleServer:
    def test_no_queueing_when_spaced_out(self):
        # Deterministic 1 ms service, arrivals 10 ms apart: zero waits.
        server, stats, _ = run_server(
            Deterministic(0.001), [i * 0.01 for i in range(10)]
        )
        assert stats.count == 10
        assert all(q == pytest.approx(0.0) for q in stats.samples("queue"))
        assert all(
            s == pytest.approx(0.001) for s in stats.samples("service")
        )

    def test_back_to_back_arrivals_queue_fifo(self):
        # All arrive at t=0; waits are 0, S, 2S, ... (FIFO).
        server, stats, _ = run_server(Deterministic(0.001), [0.0] * 5)
        waits = sorted(stats.samples("queue"))
        assert waits == pytest.approx([0.0, 0.001, 0.002, 0.003, 0.004])

    def test_peak_queue_depth(self):
        server, _, _ = run_server(Deterministic(0.001), [0.0] * 5)
        assert server.peak_queue_depth == 4  # one in service

    def test_utilization(self):
        server, _, engine = run_server(
            Deterministic(0.001), [i * 0.002 for i in range(100)]
        )
        # 1 ms busy every 2 ms => ~50% utilization.
        assert server.utilization(engine.now) == pytest.approx(0.5, rel=0.05)


class TestMultiServer:
    def test_parallel_service(self):
        # 4 simultaneous arrivals, 2 workers: waits 0,0,S,S.
        server, stats, _ = run_server(
            Deterministic(0.001), [0.0] * 4, n_threads=2
        )
        waits = sorted(stats.samples("queue"))
        assert waits == pytest.approx([0.0, 0.0, 0.001, 0.001])

    def test_more_threads_less_waiting(self):
        arrivals = [i * 0.0005 for i in range(200)]
        _, one, _ = run_server(Deterministic(0.001), arrivals, n_threads=1)
        _, four, _ = run_server(Deterministic(0.001), arrivals, n_threads=4)
        assert (
            sum(four.samples("queue")) < sum(one.samples("queue"))
        )


class TestNetworkEffects:
    def test_wire_latency_added_to_sojourn_not_service(self):
        _, integrated, _ = run_server(Deterministic(0.001), [0.0])
        _, networked, _ = run_server(
            Deterministic(0.001), [0.0], network="networked"
        )
        net = NETWORK_MODELS["networked"]
        delta = (
            networked.samples("sojourn")[0] - integrated.samples("sojourn")[0]
        )
        assert delta == pytest.approx(net.round_trip_wire)
        assert networked.samples("service")[0] == pytest.approx(0.001)

    def test_records_have_valid_chains(self):
        _, stats, _ = run_server(
            Exponential.from_mean(0.001),
            [i * 0.0015 for i in range(50)],
            network="networked",
        )
        for record in stats.records:
            assert record.sojourn_time >= record.service_time
            assert record.queue_time >= 0

    def test_thread_validation(self):
        with pytest.raises(ValueError):
            run_server(Deterministic(0.001), [0.0], n_threads=0)
