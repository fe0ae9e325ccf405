"""Whole-run invariants over the space of valid ``SimConfig``s.

``test_stage_invariants.py`` checks one simulated server; this lifts
the same idea one level, to whole runs assembled from a config: one
Hypothesis strategy over topology, balancer, queue bound, fault plan,
resilience, health, batching, cache and fan-out — pruned only by the
one composition of these ``RunConfig`` still rejects, cache × fan-out
— and the properties every
accepted composition must keep, whatever it does to latency: requests
are conserved, timestamp chains are monotone, the routing books
balance, and no replica is left holding an attempt — and the engine's
heap of what is in flight runs every drawn config exactly as the heap
that held the whole schedule and every timer did. Virtual time only,
so it is fast and a failing example replays exactly.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.batching import BatchingConfig
from repro.core import (
    CacheConfig,
    FanoutConfig,
    ObservabilityConfig,
    ResilienceConfig,
)
from repro.core.balancer import balancer_names
from repro.faults import FaultPlan, StallWindow
from repro.health import HealthConfig
from repro.obs.trace import LIFECYCLE_EVENTS
from repro.sim import SimConfig, simulate_load
from repro.sim.calibration import paper_profile

from .test_engine import (
    arrivals_up_front,
    observed,
    responses_always_scheduled,
    timers_on_the_heap,
)

PROFILE = paper_profile("masstree")
MEAN = PROFILE.service.mean
N_WARMUP, N_MEASURED = 20, 160
N_OFFERED = N_WARMUP + N_MEASURED
_CHAIN = {kind: i for i, (kind, _) in enumerate(LIFECYCLE_EVENTS)}

plans = st.builds(
    FaultPlan,
    drop_rate=st.sampled_from([0.1, 0.0]),
    delay_rate=st.sampled_from([0.2, 0.0]),
    delay=st.just(5 * MEAN),
    duplicate_rate=st.sampled_from([0.15, 0.0]),
    queue_stalls=st.lists(
        st.builds(StallWindow, st.floats(0.0, 0.02), st.just(10 * MEAN)),
        max_size=1,
    ).map(tuple),
    worker_pause_rate=st.sampled_from([0.1, 0.0]),
    worker_pause=st.just(5 * MEAN),
    error_rate=st.sampled_from([0.2, 0.0]),
)  # the faulty value first: Hypothesis starts from first alternatives
resilience = st.builds(
    ResilienceConfig,
    deadline=st.sampled_from([400 * MEAN, 40 * MEAN, None]),
    attempt_timeout=st.sampled_from([15 * MEAN, None]),
    max_retries=st.integers(0, 2),
    hedge_after=st.sampled_from([8 * MEAN, None]),
)
batching = st.one_of(
    st.none(),
    st.builds(
        BatchingConfig,
        enabled=st.just(True),
        max_batch_size=st.integers(1, 6),
        max_batch_delay=st.sampled_from([0.0, 3 * MEAN]),
    ),
)
runs = st.fixed_dictionaries(dict(
    # One run in four scatters, over whatever the other draws put
    # beneath it; only the cache draw is ignored then.
    fanout=st.integers(0, 3).map(lambda k: k == 0),
    n_servers=st.integers(1, 4),
    n_threads=st.integers(1, 2),
    queue_capacity=st.one_of(st.none(), st.integers(2, 12)),
    batching=batching,
    load=st.sampled_from([0.4, 0.9, 1.6]),
    seed=st.integers(0, 2**16),
    balancer=st.sampled_from(sorted(balancer_names())),
    faults=st.one_of(plans, st.none()),
    resilience=st.one_of(resilience, st.none()),
    health=st.booleans(),
    cached=st.booleans(),
))
#: The compositions this round unlocked, pinned so they are always run.
CACHE_RESILIENCE_FAULTS = dict(
    fanout=False, n_servers=3, n_threads=1, queue_capacity=None,
    batching=None, load=0.9, seed=5, balancer="power_of_two",
    faults=FaultPlan(
        drop_rate=0.1, duplicate_rate=0.15, delay_rate=0.2, delay=5 * MEAN,
        error_rate=0.2,
    ),
    resilience=ResilienceConfig(
        deadline=400 * MEAN, attempt_timeout=15 * MEAN, max_retries=2,
        hedge_after=8 * MEAN,
    ),
    health=False, cached=True,
)
CACHE_HEALTH_BATCHING = dict(
    CACHE_RESILIENCE_FAULTS, resilience=None, health=True,
    batching=BatchingConfig(enabled=True, max_batch_size=4),
)
#: Fan-out over each client stack. The first fails with the parent's
#: gatherer: a dropped leg left its gather open and uncounted, and a
#: duplicate's discarded copy spoiled one and double-recorded the real.
FANOUT_DROP_DUPLICATE = dict(
    CACHE_RESILIENCE_FAULTS, fanout=True, n_threads=2, cached=False,
    resilience=None, faults=FaultPlan(drop_rate=0.1, duplicate_rate=0.15),
)
FANOUT_RESILIENCE_DROP_ERROR = dict(
    FANOUT_DROP_DUPLICATE, n_threads=1,
    resilience=ResilienceConfig(deadline=400 * MEAN, max_retries=2),
    faults=FaultPlan(drop_rate=0.1, error_rate=0.2),
)
FANOUT_HEALTH_BATCHING = dict(
    FANOUT_DROP_DUPLICATE, health=True,
    batching=BatchingConfig(enabled=True, max_batch_size=4),
    faults=FaultPlan(
        error_rate=0.2, worker_pause_rate=0.1, worker_pause=5 * MEAN
    ),
)


def _config(draw: dict) -> SimConfig:
    kwargs = dict(
        warmup_requests=N_WARMUP,
        measure_requests=N_MEASURED,
        observability=ObservabilityConfig(tracing=True),
        n_servers=draw["n_servers"],
        n_threads=draw["n_threads"],
        queue_capacity=draw["queue_capacity"],
        seed=draw["seed"],
        balancer=draw["balancer"],
        faults=draw["faults"],
    )
    if draw["batching"] is not None:
        kwargs["batching"] = draw["batching"]
    servers = draw["n_servers"]
    if draw["fanout"]:
        kwargs["fanout"] = FanoutConfig(enabled=True, shards=servers)
        servers = 1  # every shard sees every request
    elif draw["cached"]:
        kwargs["cache"] = CacheConfig(
            enabled=True, capacity=16, sim_keyspace=64
        )
    if draw["resilience"] is not None:
        kwargs["resilience"] = draw["resilience"]
    if draw["health"]:
        kwargs["health"] = HealthConfig(enabled=True, min_samples=5)
    return SimConfig(
        qps=draw["load"] * servers * draw["n_threads"] / MEAN, **kwargs
    )


@given(draw=runs)
@example(draw=CACHE_RESILIENCE_FAULTS)
@example(draw=CACHE_HEALTH_BATCHING)
@example(draw=FANOUT_DROP_DUPLICATE)
@example(draw=FANOUT_RESILIENCE_DROP_ERROR)
@example(draw=FANOUT_HEALTH_BATCHING)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_run_invariants(draw):
    config = _config(draw)
    result = simulate_load(PROFILE, config)
    outcomes, faults = result.outcomes, result.fault_counts
    drops = faults.get("drops", 0)
    duplicates = faults.get("duplicates", 0)

    # Conservation: every offered request ends in exactly one bucket.
    assert outcomes["offered"] == N_OFFERED
    if config.fanout.enabled:
        # A gather resolves exactly once, whatever lies beneath.
        fanout = result.fanout
        assert N_OFFERED == fanout.completed + fanout.failed
        assert outcomes["succeeded"] == fanout.completed
    if config.resilience.enabled:
        # The top of the client stack resolves each logical request
        # exactly once; shed and errored *attempts* are tallies on the
        # side.
        assert N_OFFERED == (
            outcomes["succeeded"] + outcomes["failed"] + outcomes["timed_out"]
        )
    elif not config.fanout.enabled:
        # One attempt each: answered well, answered with an error,
        # refused by admission, or lost on the wire.
        assert N_OFFERED == (
            outcomes["succeeded"] + outcomes["errors"] + outcomes["shed"]
            + drops
        )
    measured = result.stats.count + result.stats.dropped_warmup
    assert measured == outcomes["succeeded"]

    # The routing books: every attempt the wire delivered (an injected
    # duplicate is one more delivery, a drop one fewer) was routed to
    # exactly one replica, and each replica has answered all of them.
    assert sum(result.routed_counts) == (
        outcomes["attempts"] - drops + duplicates
    )
    snapshot = result.obs.snapshot
    assert snapshot["tb_inflight"] == 0
    for server_id in range(config.n_servers):
        assert snapshot[f'tb_outstanding{{server="{server_id}"}}'] == 0
        assert snapshot[f'tb_queue_depth{{server="{server_id}"}}'] == 0
        assert snapshot[f'tb_busy_workers{{server="{server_id}"}}'] == 0

    # Every attempt's stamped lifecycle edges are in chain order and
    # non-decreasing in time.
    assert result.obs.dropped == 0
    chains = {}
    for event in result.obs.events:
        if event.kind in _CHAIN and event.request_id is not None:
            chains.setdefault(event.request_id, []).append(event)
    assert len(chains) == sum(result.routed_counts)
    for chain in chains.values():
        assert [e.kind for e in chain] == sorted(
            (e.kind for e in chain), key=_CHAIN.__getitem__
        )
        assert all(a.ts <= b.ts for a, b in zip(chain, chain[1:]))
        assert chain[0].kind == "generated" and chain[-1].kind == "received"
    if config.cache.enabled:
        counts = result.cache_counts
        # Every attempt that reached a worker looked its key up once.
        served = sum(1 for c in chains.values() if len(c) == len(_CHAIN))
        assert counts["hits"] + counts["misses"] == served


@given(draw=runs)
@example(draw=CACHE_RESILIENCE_FAULTS)
@example(draw=FANOUT_HEALTH_BATCHING)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_the_heap_of_what_is_in_flight_changes_nothing(draw):
    # Streamed arrivals, laned timers and inline responses against the
    # heap that held every arrival from the start, every timer, and
    # every response as an event.
    config = _config(draw)
    result = simulate_load(PROFILE, config)
    with arrivals_up_front(), timers_on_the_heap(), (
        responses_always_scheduled()
    ):
        reference = simulate_load(PROFILE, config)
    assert observed(result) == observed(reference)
