"""The simulator checked against queueing theory, not against itself.

A k-worker FCFS server has an exact sample-path recursion
(:func:`repro.queueing.fcfs_sojourns`). Fed the run's own arrivals and
each replica's own service stream, it must reproduce every simulated
sojourn with ``==``, not approximately. Routing is read from the
records (each request's ``server_id``), so the check holds under any
balancer, including those that read queue state. DESIGN.md §4 ("An
exact oracle") states where exactness ends; the boundary tests below
pin both sides of it.
"""

from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batching import BatchingConfig
from repro.control.config import (
    AdmissionConfig,
    AutoscalerConfig,
    ControlPlaneConfig,
    PriorityConfig,
    RequestClassSpec,
)
from repro.core import CacheConfig, FanoutConfig, ResilienceConfig
from repro.core.traffic import service_stream
from repro.energy import DeepSleep, NoSleep, PowerStage, StaticFrequency
from repro.faults import FaultPlan, StallWindow
from repro.health import HealthConfig
from repro.queueing import fcfs_sojourns, mgk_percentiles
from repro.sim import NO_CONTENTION, AppProfile, SimConfig, simulate_load
from repro.sim.calibration import paper_profile
from repro.sim.network_model import network_model_for
from repro.stats import Exponential

from .test_config_invariants import MEAN, N_OFFERED, PROFILE, _config, runs

CONFIGURATIONS = ("integrated", "loopback", "networked")


def sojourn_pairs(profile, config, power=None, arrive_at_enqueue=False):
    """``(simulated, recursion)`` sojourn lists over one run's records.

    Per server, in arrival order: each record arrives at its
    ``generated_at`` plus the wire latency (or, with
    ``arrive_at_enqueue``, at its own ``enqueued_at``), draws its
    service from the server's stream through the run's service model,
    and its response rides the wire back.
    """
    result = simulate_load(profile, config, power=power)
    network = network_model_for(config.configuration)
    model = profile.service_model(
        n_threads=config.n_threads,
        ideal_memory=config.ideal_memory,
        simulated_system=config.simulated_system,
        added_occupancy=network.server_occupancy,
    )
    wire = network.wire_latency_each_way
    by_server = defaultdict(list)
    for record in result.stats.records:
        by_server[record.server_id].append(record)
    simulated, recursion = [], []
    for server_id, served in sorted(by_server.items()):
        if arrive_at_enqueue:
            served.sort(key=lambda r: (r.enqueued_at, r.request_id))
            arrivals = [r.enqueued_at for r in served]
        else:
            served.sort(key=lambda r: (r.generated_at, r.request_id))
            arrivals = [r.generated_at + wire for r in served]
        rng = service_stream(config.seed, server_id)
        windows = fcfs_sojourns(
            arrivals, [model.sample(rng) for _ in served], config.n_threads
        )
        for record, (_, end) in zip(served, windows):
            simulated.append(record.sojourn_time)
            recursion.append((end + wire) - record.generated_at)
    return result, simulated, recursion


def _load(n_servers, n_threads, load=0.85, configuration="integrated"):
    occupancy = network_model_for(configuration).server_occupancy
    return load * n_servers * n_threads / (MEAN + occupancy)


TOPOLOGIES = [
    # (n_servers, balancer, n_threads)
    (1, "round_robin", 1),
    (1, "round_robin", 4),
    (3, "round_robin", 2),
    (3, "random", 1),
    (3, "jsq", 2),
    (4, "power_of_two", 1),
]


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
@pytest.mark.parametrize(
    "n_servers,balancer,n_threads", TOPOLOGIES,
    ids=[f"{n}x{b}-k{k}" for n, b, k in TOPOLOGIES],
)
def test_simulator_equals_recursion(
    configuration, n_servers, balancer, n_threads
):
    config = SimConfig(
        qps=_load(n_servers, n_threads, configuration=configuration),
        configuration=configuration,
        n_servers=n_servers,
        n_threads=n_threads,
        balancer=balancer,
        warmup_requests=0,
        measure_requests=4000,
        seed=11,
    )
    _, simulated, recursion = sojourn_pairs(PROFILE, config)
    assert len(simulated) == 4000
    assert simulated == recursion


#: What the property leaves on: topology, balancer, threads, load and
#: seed, under every configuration. Everything the recursion has no
#: term for is off.
_FEATURES_OFF = dict(
    fanout=False, queue_capacity=None, batching=None, faults=None,
    resilience=None, health=False, cached=False,
)


@given(
    draw=runs.map(lambda d: dict(d, **_FEATURES_OFF)),
    configuration=st.sampled_from(CONFIGURATIONS),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_simulator_equals_recursion_over_the_config_strategy(
    draw, configuration
):
    config = replace(
        _config(draw),
        configuration=configuration,
        warmup_requests=0,
        measure_requests=N_OFFERED,
    )
    _, simulated, recursion = sojourn_pairs(PROFILE, config)
    assert len(simulated) == N_OFFERED
    assert simulated == recursion


def test_mgk_percentiles_is_the_simulators_mgk():
    # The Fig. 8 baseline no longer runs the simulator, but it still
    # computes exactly what the simulator computes for that model.
    for service, k, load in (
        (Exponential.from_mean(1e-3), 1, 0.9),
        (Exponential.from_mean(1e-3), 4, 0.7),
        (paper_profile("moses").service, 4, 0.95),
        (paper_profile("silo").service, 1, 0.5),
    ):
        qps = load * k / service.mean
        baseline = mgk_percentiles(
            service, qps=qps, k=k, measure_requests=3000, seed=5
        )
        simulated = simulate_load(
            AppProfile(name="mgk", service=service, contention=NO_CONTENTION),
            SimConfig(
                qps=qps, n_threads=k, warmup_requests=300,
                measure_requests=3000, seed=5,
            ),
        )
        assert baseline.sojourn == simulated.sojourn
        assert baseline.queue == simulated.queue


# -- where exactness ends ---------------------------------------------------

M = MEAN
_BASE = SimConfig(
    qps=_load(3, 2), n_servers=3, n_threads=2, balancer="jsq",
    warmup_requests=0, measure_requests=2000, seed=11,
)
_OVERLOAD = replace(_BASE, qps=_load(3, 2, load=1.3), balancer="round_robin")
_MOSES = paper_profile("moses")

#: Beyond the property's strategy and still exact: whatever never
#: reaches a worker (shed, dropped) is simply absent from both sides,
#: and routing, membership and the service model's dilations are read
#: from the run.
EXACT = {
    "queue bound sheds": (replace(_OVERLOAD, queue_capacity=2), {}),
    "admission control sheds": (
        replace(
            _OVERLOAD,
            control=ControlPlaneConfig(
                enabled=True, admission=AdmissionConfig()
            ),
        ),
        {},
    ),
    "wire drops": (replace(_BASE, faults=FaultPlan(drop_rate=0.1)), {}),
    "wire delays, arriving at the enqueue instant": (
        replace(_BASE, faults=FaultPlan(delay_rate=0.2, delay=5 * M)),
        {"arrive_at_enqueue": True},
    ),
    "batches of one": (
        replace(
            _BASE,
            batching=BatchingConfig(
                enabled=True, max_batch_size=1, max_batch_delay=0.0
            ),
        ),
        {},
    ),
    "health tracking": (
        replace(_BASE, health=HealthConfig(enabled=True, min_samples=5)),
        {},
    ),
    "deadline that never fires": (
        replace(_BASE, resilience=ResilienceConfig(deadline=400 * M)),
        {},
    ),
    "autoscaler": (
        replace(
            _BASE, n_servers=1, qps=_load(1, 2, load=1.5),
            control=ControlPlaneConfig(
                enabled=True, tick_interval=0.01,
                autoscaler=AutoscalerConfig(max_servers=4, cooldown=0.02),
            ),
        ),
        {},
    ),
    "load profile": (
        replace(
            _BASE, load_profile=((0.1, _load(3, 2, 0.5)), (0.1, _load(3, 2, 0.9)))
        ),
        {},
    ),
    "deterministic arrivals": (
        replace(_BASE, deterministic_arrivals=True), {}
    ),
    "contention, ideal memory, simulated system": (
        replace(
            _BASE, qps=0.8 * 3 * 4 / _MOSES.service.mean, n_threads=4,
            ideal_memory=True, simulated_system=True,
        ),
        {"profile": _MOSES},
    ),
    "power stage at full speed, no sleep": (
        _BASE, {"power": lambda: PowerStage(StaticFrequency(1.0), NoSleep())}
    ),
}

#: Beyond the boundary: a served attempt is missing from the records
#: (errors, duplicates, attempts that lost to a timeout, retry or
#: hedge, fan-out legs), the worker is not FCFS over single requests
#: (batches, priority classes), or the window is not one draw of the
#: model (pauses, stalls, cache hits, DVFS, wakeups).
INEXACT = {
    "worker pauses": (
        replace(
            _BASE, faults=FaultPlan(worker_pause_rate=0.1, worker_pause=5 * M)
        ),
        {},
    ),
    "queue stall": (
        replace(
            _BASE, faults=FaultPlan(queue_stalls=(StallWindow(0.01, 10 * M),))
        ),
        {},
    ),
    "application errors": (
        replace(_BASE, faults=FaultPlan(error_rate=0.2)), {}
    ),
    "duplicates": (replace(_BASE, faults=FaultPlan(duplicate_rate=0.15)), {}),
    "wire delays, arriving after the wire": (
        replace(_BASE, faults=FaultPlan(delay_rate=0.2, delay=5 * M)), {}
    ),
    "batches of four": (
        replace(_BASE, batching=BatchingConfig(enabled=True, max_batch_size=4)),
        {},
    ),
    "cache hits": (
        replace(
            _BASE,
            cache=CacheConfig(enabled=True, capacity=16, sim_keyspace=64),
        ),
        {},
    ),
    "priority classes": (
        replace(
            _OVERLOAD,
            control=ControlPlaneConfig(
                enabled=True,
                priority=PriorityConfig(classes=(
                    RequestClassSpec("lc", priority=1, fraction=0.5),
                    RequestClassSpec("batch", priority=0, fraction=0.5),
                )),
            ),
        ),
        {},
    ),
    "deadline timeouts": (
        replace(_OVERLOAD, resilience=ResilienceConfig(deadline=40 * M)), {}
    ),
    "retries": (
        replace(
            _OVERLOAD,
            resilience=ResilienceConfig(attempt_timeout=15 * M, max_retries=2),
        ),
        {},
    ),
    "hedges": (
        replace(_OVERLOAD, resilience=ResilienceConfig(hedge_after=8 * M)), {}
    ),
    "fan-out": (
        replace(
            _BASE, qps=_load(1, 2), fanout=FanoutConfig(enabled=True, shards=3)
        ),
        {},
    ),
    "DVFS": (
        _BASE, {"power": lambda: PowerStage(StaticFrequency(0.6), NoSleep())}
    ),
    "deep sleep": (
        _BASE, {"power": lambda: PowerStage(StaticFrequency(1.0), DeepSleep())}
    ),
}


def _pairs(config, options):
    return sojourn_pairs(
        options.get("profile", PROFILE),
        config,
        power=options.get("power", lambda: None)(),
        arrive_at_enqueue=options.get("arrive_at_enqueue", False),
    )


@pytest.mark.parametrize("case", sorted(EXACT))
def test_exact_beyond_the_strategy(case):
    result, simulated, recursion = _pairs(*EXACT[case])
    assert simulated == recursion
    if case == "autoscaler":
        assert sum(1 for n in result.routed_counts if n) > 1
    if case.endswith("sheds"):
        assert result.outcomes["shed"] > 0


@pytest.mark.parametrize("case", sorted(INEXACT))
def test_inexact_past_the_boundary(case):
    _, simulated, recursion = _pairs(*INEXACT[case])
    assert simulated != recursion
