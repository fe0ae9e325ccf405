"""Tests for the virtual-time server model."""

import random
from unittest import mock

import pytest

from repro.batching import BatchingConfig
from repro.control import ControlPlaneConfig
from repro.core import ObservabilityConfig, StatsCollector
from repro.faults import FaultPlan
from repro.sim import Engine, SimulatedServer, ServiceTimeModel, simulate_load
from repro.sim.network_model import NETWORK_MODELS
from repro.stats import Deterministic, Exponential

from .test_engine import (
    CONSTANT,
    GAP,
    observed,
    responses_always_scheduled,
    tied_config,
)


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
        assert server.queue.peak_depth == 4  # one in service

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


class TestInlineResponses:
    """A zero-delay response runs inside its completion exactly when it
    would have been the next event popped."""

    @staticmethod
    def _config(**overrides):
        # Service, batch windows and pauses are multiples of GAP, so
        # completions, batch deadlines and arrivals keep coinciding, and
        # a metrics sample every 2 GAP is often due with a completion.
        fields = dict(
            observability=ObservabilityConfig(
                tracing=True, metrics_interval=2 * GAP
            ),
            control=ControlPlaneConfig(),
            scenario=None,
            batching=BatchingConfig(
                enabled=True, max_batch_size=3, max_batch_delay=2 * GAP,
                sim_marginal_cost=0.5,
            ),
            faults=FaultPlan(worker_pause_rate=0.25, worker_pause=4 * GAP),
        )
        fields.update(overrides)
        return tied_config(**fields)

    @staticmethod
    def _run(config):
        """The run, and how each completion delivered its responses."""
        asked = []
        real = SimulatedServer._nothing_else_due

        def nothing_else_due(server, now):
            asked.append(real(server, now))
            return asked[-1]

        with mock.patch.object(
            SimulatedServer, "_nothing_else_due", nothing_else_due
        ):
            result = simulate_load(CONSTANT, config)
        return result, asked

    @staticmethod
    def _seen(result):
        stats = result.stats
        return (
            observed(result), stats.batch_occupancy, stats.send_audit()
        )

    @pytest.mark.parametrize("batched", [True, False])
    def test_equals_the_run_that_schedules_every_response(self, batched):
        config = self._config()
        if not batched:
            config = self._config(batching=BatchingConfig())
        inline, asked = self._run(config)
        with responses_always_scheduled():
            reference = simulate_load(CONSTANT, config)
        assert self._seen(inline) == self._seen(reference)
        # Both answers were given: some completions had company at their
        # instant (an arrival, a batch deadline, a sample, another
        # worker's completion) and kept their responses on the heap.
        assert asked.count(True) > 0 and asked.count(False) > 0
        assert inline.fault_counts["pauses"] > 0

    def test_a_networked_wire_still_schedules_every_response(self):
        config = self._config(configuration="networked")
        scheduled = []
        real = SimulatedServer._schedule_response

        def schedule(server, request, now):
            scheduled.append(request)
            return real(server, request, now)

        with mock.patch.object(
            SimulatedServer, "_schedule_response", schedule
        ):
            networked, asked = self._run(config)
        with responses_always_scheduled():
            reference = simulate_load(CONSTANT, config)
        assert self._seen(networked) == self._seen(reference)
        assert asked == []  # the wire is not zero: nothing to ask
        assert len(scheduled) == sum(networked.routed_counts)
