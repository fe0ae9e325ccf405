"""Tests for the simulator's multi-server topology."""

import pytest

from repro.core.resilience import ResilienceConfig
from repro.faults import FaultPlan
from repro.sim import SimConfig, simulate_app, simulate_dispatch
from repro.sim.calibration import paper_profile
from repro.sim.dispatch import compare_dispatch


def _sim(**overrides):
    params = dict(
        qps=9000, warmup_requests=200, measure_requests=2500, seed=17
    )
    params.update(overrides)
    return simulate_app("xapian", SimConfig(**params))


class TestSimTopology:
    @pytest.mark.parametrize(
        "balancer", ["round_robin", "random", "power_of_two", "jsq"]
    )
    def test_four_servers_complete_everything(self, balancer):
        result = _sim(n_servers=4, balancer=balancer)
        assert result.stats.count == 2500
        assert sum(result.routed_counts) == 2700
        assert result.alive_workers == (1, 1, 1, 1)

    def test_round_robin_splits_exactly(self):
        result = _sim(n_servers=4, measure_requests=2200)
        assert result.routed_counts == (600, 600, 600, 600)

    def test_per_server_stats_partition_aggregate(self):
        result = _sim(n_servers=4, balancer="power_of_two")
        counts = [
            result.stats.server_count(server_id)
            for server_id in result.stats.server_ids
        ]
        assert sum(counts) == result.stats.count
        merged = sorted(
            sample
            for server_id in result.stats.server_ids
            for sample in result.stats.server_samples(server_id, "sojourn")
        )
        assert merged == sorted(result.stats.samples("sojourn"))

    def test_topology_runs_are_deterministic(self):
        a = _sim(n_servers=4, balancer="jsq")
        b = _sim(n_servers=4, balancer="jsq")
        assert a.sojourn.p99 == b.sojourn.p99
        assert a.routed_counts == b.routed_counts
        assert a.virtual_time == b.virtual_time

    def test_single_server_unaffected_by_topology_fields(self):
        """n_servers=1 must reproduce the pre-topology simulator."""
        explicit = _sim(n_servers=1, n_clients=2, balancer="jsq")
        default = _sim()
        assert explicit.sojourn.p99 == default.sojourn.p99
        assert explicit.virtual_time == default.virtual_time

    def test_jsq_beats_round_robin_at_high_load(self):
        """Depth-aware routing dominates blind routing in the tail."""
        rr = _sim(n_servers=4, balancer="round_robin", qps=11000)
        jsq = _sim(n_servers=4, balancer="jsq", qps=11000)
        assert jsq.sojourn.p99 <= rr.sojourn.p99

    def test_describe_mentions_topology(self):
        result = _sim(n_servers=2, measure_requests=500)
        assert "topology: 2 servers" in result.describe()


class TestSimTopologyFaults:
    def test_faults_scoped_to_one_server(self):
        plan = FaultPlan(worker_crash_rate=1.0, server_ids=(1,))
        result = _sim(
            n_servers=2,
            n_threads=2,
            qps=4000,
            measure_requests=800,
            faults=plan,
            resilience=ResilienceConfig(deadline=1.0),
        )
        assert result.alive_workers[0] == 2
        assert result.alive_workers[1] == 0

    def test_hedging_with_replicas_succeeds(self):
        result = _sim(
            n_servers=2,
            qps=4000,
            measure_requests=800,
            resilience=ResilienceConfig(
                deadline=1.0, hedge_after=0.005, max_hedges=1
            ),
        )
        assert result.outcomes.get("succeeded", 0) == 1000


class TestDispatchPolicies:
    def test_depth_aware_dispatch_beats_random(self):
        profile = paper_profile("xapian")
        config = SimConfig(
            qps=2500,
            n_threads=4,
            warmup_requests=200,
            measure_requests=2000,
            seed=9,
        )
        results = compare_dispatch(profile, config, extra_policies=("jsq",))
        assert results["jsq"].sojourn.p99 <= results["random"].sojourn.p99
        # The shared queue remains the best design of the three.
        assert results["shared"].sojourn.p99 <= results["jsq"].sojourn.p99

    def test_dispatch_counts_cover_all_workers(self):
        profile = paper_profile("xapian")
        config = SimConfig(
            qps=2000,
            n_threads=4,
            warmup_requests=100,
            measure_requests=1000,
            seed=4,
        )
        result = simulate_dispatch(profile, config, policy="round_robin")
        assert sum(result.routed_counts) == config.total_requests
        assert result.routed_counts == (275, 275, 275, 275)

    # A dispatch study is a SimConfig like any other: every field means
    # what it means to simulate_load.
    CONFIG = SimConfig(
        qps=2000, n_threads=4, warmup_requests=100, measure_requests=1000,
        seed=4,
    )

    def test_dispatch_honours_the_fault_plan(self):
        result = simulate_dispatch(
            paper_profile("xapian"),
            self.CONFIG.replace(faults=FaultPlan(error_rate=0.2)),
            policy="jsq",
        )
        errors = result.fault_counts["app_errors"]
        assert 150 < errors < 300
        assert result.outcomes["errors"] == errors
        assert result.outcomes["succeeded"] == 1100 - errors

    def test_dispatch_honours_the_load_profile(self):
        # 0.1 s at 1000 qps then 0.1 s at 3000: ~400 arrivals, not the
        # 1100 the request counts ask for.
        result = simulate_dispatch(
            paper_profile("xapian"),
            self.CONFIG.replace(
                load_profile=((0.1, 1000.0), (0.1, 3000.0)),
                deterministic_arrivals=True,
            ),
            policy="round_robin",
        )
        assert 395 <= result.outcomes["offered"] <= 400
        assert sum(result.routed_counts) == result.outcomes["offered"]
        assert result.virtual_time < 0.25

    def test_dispatch_honours_the_wire(self):
        from repro.sim.network_model import network_model_for

        profile = paper_profile("xapian")
        integrated = simulate_dispatch(profile, self.CONFIG, policy="jsq")
        networked = simulate_dispatch(
            profile, self.CONFIG.replace(configuration="networked"),
            policy="jsq",
        )
        wire = 2 * network_model_for("networked").wire_latency_each_way
        assert wire > 0
        assert min(networked.stats.samples("sojourn")) >= wire
        assert networked.sojourn.mean > integrated.sojourn.mean + 0.9 * wire

    def test_dispatch_reports_each_worker(self):
        result = simulate_dispatch(
            paper_profile("xapian"), self.CONFIG, policy="power_of_two"
        )
        per_worker = result.per_server()
        assert sorted(per_worker) == [0, 1, 2, 3]
        assert sum(s.count for s in per_worker.values()) == result.stats.count
        assert result.alive_workers == (1, 1, 1, 1)
