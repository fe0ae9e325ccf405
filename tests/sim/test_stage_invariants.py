"""Whole-stage invariants of the simulated server, over its config space.

One Hypothesis strategy covers worker count, queue bound, batching,
cache and a fault plan (stalls, pauses, errors, crashes) at once; the
properties are the ones every composition must keep, whatever the
features do to latency. Virtual time only, so it is fast and a failing
example replays exactly.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batching import BatchPolicy
from repro.cache import build_cache
from repro.core import CacheConfig
from repro.faults import FaultInjector, FaultPlan, StallWindow
from repro.obs.trace import Tracer
from repro.sim import Engine, ServiceTimeModel, SimulatedServer
from repro.sim.network_model import NETWORK_MODELS
from repro.stats import Exponential

N_REQUESTS = 120
MEAN_SERVICE = 0.001

batching = st.one_of(
    st.none(),
    st.builds(
        BatchPolicy,
        st.integers(1, 8),
        st.floats(0.0, 0.002, allow_nan=False),
    ),
)
plans = st.builds(
    FaultPlan,
    queue_stalls=st.lists(
        st.builds(
            StallWindow,
            st.floats(0.0, 0.1, allow_nan=False),
            st.floats(0.001, 0.02, allow_nan=False),
        ),
        max_size=2,
    ).map(tuple),
    worker_pause_rate=st.sampled_from([0.0, 0.1]),
    worker_pause=st.just(0.002),
    error_rate=st.sampled_from([0.0, 0.2]),
    worker_crash_rate=st.sampled_from([0.0, 0.02]),
)


@given(
    n_threads=st.integers(1, 4),
    queue_capacity=st.one_of(st.none(), st.integers(1, 8)),
    batching=batching,
    cached=st.booleans(),
    plan=st.one_of(st.none(), plans),
    load=st.sampled_from([0.5, 1.5, 4.0]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=120, deadline=None, derandomize=True)
def test_stage_invariants(
    n_threads, queue_capacity, batching, cached, plan, load, seed
):
    engine = Engine()
    tracer = Tracer()
    responses = []
    server = None

    def on_response(request):
        responses.append(request)
        assert 0 <= server.busy_workers <= server.alive_workers

    server = SimulatedServer(
        engine,
        ServiceTimeModel(Exponential.from_mean(MEAN_SERVICE)),
        NETWORK_MODELS["loopback"],
        n_threads,
        random.Random(seed),
        on_response,
        injector=None if plan is None else FaultInjector(plan, seed),
        queue_capacity=queue_capacity,
        tracer=tracer,
        batching=batching,
        cache=(
            build_cache(CacheConfig(enabled=True, capacity=8), tracer=tracer)
            if cached else None
        ),
    )
    arrivals = random.Random(seed + 1)
    t = 0.0
    for _ in range(N_REQUESTS):
        t += arrivals.expovariate(load * n_threads / MEAN_SERVICE)
        server.submit(t, payload=arrivals.randrange(16) if cached else None)
    engine.run()

    # Conservation: one response per request. Only a pool that lost
    # every worker to crashes may strand what is still queued.
    assert len(responses) + len(server.queue) == N_REQUESTS
    assert len({r.request_id for r in responses}) == len(responses)
    if server.alive_workers:
        assert len(server.queue) == 0
    shed = [r for r in responses if r.shed]
    errored = [r for r in responses if r.error is not None]
    good = [r for r in responses if not r.shed and r.error is None]
    assert len(shed) + len(errored) + len(good) == len(responses)
    assert len(shed) == server.queue.total_shed
    assert not any(r.shed and r.error is not None for r in responses)

    assert server.busy_workers == 0
    assert server.alive_workers == n_threads - server.crashed_workers

    for r in responses:
        if r.shed:
            assert r.service_start_at is None and r.service_end_at is None
            assert r.sent_at <= r.enqueued_at <= r.response_received_at
        else:
            assert (
                r.sent_at <= r.enqueued_at <= r.service_start_at
                <= r.service_end_at <= r.response_received_at
            )

    # Every member of one batch shares the batch's service window.
    by_id = {r.request_id: r for r in responses}
    members = {}
    for event in tracer.events():
        if event.kind == "batch_form":
            members.setdefault(event.value, []).append(by_id[event.request_id])
    assert (batching is None) == (not members)
    for batch in members.values():
        assert len(batch) == batch[0].batch_size <= batching.max_batch_size
        assert len({(r.service_start_at, r.service_end_at) for r in batch}) == 1
    if batching is None:
        assert all(r.batch_size == 1 for r in responses)
