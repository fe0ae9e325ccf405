"""Tests for harness and system configuration objects."""

from dataclasses import fields

import pytest

from repro.batching import BatchingConfig
from repro.control import (
    AdmissionConfig,
    AutoscalerConfig,
    ControlPlaneConfig,
)
from repro.core import (
    PAPER_SYSTEM,
    CacheConfig,
    FanoutConfig,
    HarnessConfig,
    ResilienceConfig,
    SystemConfig,
)
from repro.core.config import RunConfig
from repro.faults import FaultPlan, retry_storm
from repro.health import HealthConfig
from repro.sim import SimConfig

_FANOUT2 = FanoutConfig(enabled=True, shards=2)
_CACHE = CacheConfig(enabled=True)

#: Every invalid combination the shared core rejects, with a fragment
#: of the message that proves the intended check (not an earlier one)
#: fired.
_SHARED_REJECTIONS = [
    (dict(qps=0), "qps must be positive"),
    (dict(n_threads=0), "n_threads"),
    (dict(measure_requests=0), "request counts"),
    (dict(warmup_requests=-1), "request counts"),
    (dict(queue_capacity=0), "queue_capacity"),
    (dict(n_servers=0), "n_servers"),
    (dict(n_clients=0), "n_clients"),
    (dict(balancer="nope"), "balancer must be one of"),
    (dict(load_profile=()), ">= 1 segment"),
    (dict(load_profile=((1.0,),)), "(duration, qps) pairs"),
    (dict(load_profile=((1.0, -5.0),)), "must be positive"),
    (
        dict(
            n_servers=5,
            control=ControlPlaneConfig(
                enabled=True, autoscaler=AutoscalerConfig(max_servers=3)
            ),
        ),
        "autoscaler's",
    ),
    (
        dict(n_servers=2, fanout=FanoutConfig(enabled=True, shards=4)),
        "n_servers == fanout.shards",
    ),
    # The two fan-out rejections that survive; what goes wrong without
    # them is exhibited in tests/core/test_fanout.py::TestWhyRejected.
    (
        dict(
            n_servers=2, fanout=_FANOUT2,
            control=ControlPlaneConfig(
                enabled=True, autoscaler=AutoscalerConfig(max_servers=3)
            ),
        ),
        "control.autoscaler must be None under fan-out",
    ),
    (
        dict(n_servers=2, cache=_CACHE, fanout=_FANOUT2),
        "cache must be off under fan-out",
    ),
]


class TestSharedCore:
    """HarnessConfig and SimConfig are one core under two clocks."""

    def test_every_shared_field_is_on_both(self):
        shared = {f.name for f in fields(RunConfig)}
        assert len(shared) == 21
        assert shared <= {f.name for f in fields(HarnessConfig)}
        assert shared <= {f.name for f in fields(SimConfig)}

    @pytest.mark.parametrize("kwargs, fragment", _SHARED_REJECTIONS)
    def test_shared_rejections_say_the_same_thing(self, kwargs, fragment):
        with pytest.raises(ValueError) as live:
            HarnessConfig(**kwargs)
        with pytest.raises(ValueError) as sim:
            SimConfig(**kwargs)
        assert fragment in str(live.value)
        assert str(live.value) == str(sim.value)

    @pytest.mark.parametrize(
        "kwargs",
        [
            # The lookup is per member inside the one service stage
            # (tests/cache/test_cache_batching.py runs it).
            dict(batching=BatchingConfig(enabled=True)),
            # The key is the request payload on the one wire, so every
            # retry, hedge and duplicate carries it under both clocks
            # (tests/cache/test_sim_cache.py::TestComposition runs it).
            dict(resilience=ResilienceConfig(max_retries=1)),
            dict(n_servers=2, health=HealthConfig(enabled=True)),
            dict(faults=FaultPlan(drop_rate=0.1, duplicate_rate=0.1)),
            dict(
                n_servers=2,
                scenario=retry_storm(server_id=1, start=0.1, duration=0.1,
                                     pause=0.01),
            ),
        ],
        ids=["batching", "resilience", "health", "faults", "scenario"],
    )
    def test_cache_compositions_accepted_by_both(self, kwargs):
        for cls in (HarnessConfig, SimConfig):
            assert cls(cache=_CACHE, **kwargs).cache.enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            # Fan-out is the top layer of the client stack: its legs are
            # calls of whatever lies beneath, and a leg that fails,
            # fails its gather (tests/sim/test_config_invariants.py and
            # tests/core/test_fanout_two_clocks.py run these).
            dict(resilience=ResilienceConfig(max_retries=1)),
            dict(health=HealthConfig(enabled=True)),
            dict(faults=FaultPlan(drop_rate=0.1)),
            dict(
                scenario=retry_storm(server_id=1, start=0.1, duration=0.1,
                                     pause=0.01),
            ),
            dict(
                control=ControlPlaneConfig(
                    enabled=True, admission=AdmissionConfig()
                ),
            ),
        ],
        ids=["resilience", "health", "faults", "scenario", "admission"],
    )
    def test_fanout_compositions_accepted_by_both(self, kwargs):
        for cls in (HarnessConfig, SimConfig):
            assert cls(n_servers=2, fanout=_FANOUT2, **kwargs).fanout.enabled


class TestHarnessConfig:
    def test_defaults_valid(self):
        config = HarnessConfig()
        assert config.configuration == "integrated"
        assert config.total_requests == config.warmup_requests + config.measure_requests

    def test_rejects_unknown_configuration(self):
        with pytest.raises(ValueError):
            HarnessConfig(configuration="multiverse")

    def test_with_seed_changes_only_seed(self):
        config = HarnessConfig(qps=123.0, n_threads=2)
        other = config.with_seed(99)
        assert other.seed == 99
        assert other.qps == 123.0
        assert other.n_threads == 2

    def test_with_qps_changes_only_qps(self):
        config = HarnessConfig(seed=5)
        other = config.with_qps(777.0)
        assert other.qps == 777.0
        assert other.seed == 5

    def test_frozen(self):
        with pytest.raises(Exception):
            HarnessConfig().qps = 1.0

    def test_with_seed_preserves_robustness_fields(self):
        # dataclasses.replace keeps every field, including the ones
        # added after with_seed was first written.
        plan = FaultPlan(drop_rate=0.1)
        policy = ResilienceConfig(deadline=0.5, max_retries=2)
        config = HarnessConfig(
            faults=plan, resilience=policy, queue_capacity=32
        )
        for other in (config.with_seed(9), config.with_qps(50.0)):
            assert other.faults == plan
            assert other.resilience == policy
            assert other.queue_capacity == 32

    def test_replace(self):
        config = HarnessConfig().replace(qps=9.0, n_threads=3)
        assert config.qps == 9.0
        assert config.n_threads == 3
        with pytest.raises(ValueError):
            HarnessConfig().replace(qps=-1.0)  # validation re-runs


class TestSystemConfig:
    def test_paper_system_matches_table2(self):
        # Table II: 8 SandyBridge cores @ 2.4 GHz, 32KB 8-way L1s,
        # 256KB 8-way L2, 20MB 20-way L3, 32GB RAM.
        assert PAPER_SYSTEM.cores == 8
        assert PAPER_SYSTEM.frequency_ghz == 2.4
        assert PAPER_SYSTEM.l1d_kb == 32
        assert PAPER_SYSTEM.l1d_ways == 8
        assert PAPER_SYSTEM.l2_kb == 256
        assert PAPER_SYSTEM.l3_mb == 20
        assert PAPER_SYSTEM.l3_ways == 20
        assert PAPER_SYSTEM.memory_gb == 32

    def test_rejects_degenerate_geometry(self):
        with pytest.raises(ValueError):
            SystemConfig(cores=0)
        with pytest.raises(ValueError):
            SystemConfig(l3_ways=0)
