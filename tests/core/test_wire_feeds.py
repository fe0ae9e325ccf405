"""The list is the config: what observes the wire, per enabled feature.

``RunParts.wire`` builds the transport's two feed lists and its sink
from the features a run enables (DESIGN.md §5 "The order on the
wire"). A default run gets two empty lists and the transport's own
``record``; each feature adds exactly its feeds, in the written order;
an injected duplicate's answer reaches the trace and nothing else.
Every case runs under both clocks: ``IntegratedTransport`` on the wall
clock and ``SimulatedTransport`` on the engine.
"""

from contextlib import contextmanager

import pytest

from repro.control import (
    AdmissionConfig,
    AutoscalerConfig,
    ControlPlaneConfig,
    PriorityConfig,
    RequestClassSpec,
)
from repro.core import (
    FanoutConfig,
    HarnessConfig,
    ObservabilityConfig,
    ResilienceConfig,
    StatsCollector,
    run_harness,
)
from repro.core.clock import WallClock
from repro.core.config import SloConfig
from repro.core.run import RunParts
from repro.core.scheduler import Scheduler
from repro.core.transport import IntegratedTransport
from repro.faults import FaultInjector, FaultPlan
from repro.health import HealthConfig
from repro.obs import Tracer
from repro.sim import (
    Engine,
    ServiceTimeModel,
    SimConfig,
    SimulatedTransport,
    simulate_load,
)
from repro.sim.calibration import AppProfile
from repro.sim.network_model import network_model_for
from repro.stats import Deterministic

from .test_harness import ConstantApp

LEGS = ["live", "simulated"]
SERVICE = 0.001


@contextmanager
def _wired(leg, **fields):
    """``RunParts.wire`` over a real transport of ``leg``'s clock."""
    if leg == "live":
        config = HarnessConfig(**fields)
        clock = WallClock()
        scheduler = Scheduler(clock)
        transport, app = IntegratedTransport(clock), ConstantApp(iterations=5)
    else:
        config = SimConfig(**fields)
        engine = Engine()
        clock, scheduler = engine.clock, engine
        transport = SimulatedTransport(engine, network_model_for("integrated"))
        app = ServiceTimeModel(Deterministic(SERVICE))
    parts = RunParts(config)
    parts.wire(transport, app, clock, scheduler)
    try:
        yield parts
    finally:
        transport.stop()
        if leg == "live":
            scheduler.stop()


def _names(feeds):
    """``Owner.method`` per feed; a lambda is named after what it feeds."""
    names = []
    for feed in feeds:
        owner = getattr(feed, "__self__", None)
        if owner is None:
            (cell,) = feed.__closure__
            owner = cell.cell_contents
        names.append(f"{type(owner).__name__}.{feed.__name__}")
    return names


TRACING = ObservabilityConfig(tracing=True)
SLO = ObservabilityConfig(tracing=True, slo=SloConfig(enabled=True))
HEALTH = HealthConfig(enabled=True)
ADMISSION = AdmissionConfig()
PRIORITY = PriorityConfig(classes=(RequestClassSpec("all"),))
AUTOSCALER = AutoscalerConfig()
RESILIENCE = ResilienceConfig(deadline=1.0)


def _control(**parts):
    return ControlPlaneConfig(enabled=True, **parts)


#: feature -> (config fields, on_send names, on_complete names)
FEATURES = {
    "tracing": (dict(observability=TRACING), ["Histogram.<lambda>"], []),
    "slo": (
        dict(observability=SLO),
        ["Histogram.<lambda>", "LiveObs.<lambda>"],
        ["LiveObs.observe"],
    ),
    "health": (dict(health=HEALTH), [], ["HealthManager.observe"]),
    "admission": (
        dict(control=_control(admission=ADMISSION)),
        [],
        ["ControlPlane.observe_sojourn"],
    ),
    "priority": (
        dict(control=_control(priority=PRIORITY)),
        ["ControlPlane.classify"],
        [],
    ),
    "autoscaler": (dict(control=_control(autoscaler=AUTOSCALER)), [], []),
    "resilience": (dict(resilience=RESILIENCE), [], []),
    "fanout": (
        dict(n_servers=2, fanout=FanoutConfig(enabled=True, shards=2)), [], []
    ),
    "fanout-over-resilience": (
        dict(
            n_servers=2, fanout=FanoutConfig(enabled=True, shards=2),
            resilience=RESILIENCE,
        ),
        [],
        [],
    ),
    # Everything at once: DESIGN.md §5's order, send side and
    # completion side.
    "all": (
        dict(
            observability=SLO, health=HEALTH, resilience=RESILIENCE,
            control=_control(
                admission=ADMISSION, priority=PRIORITY, autoscaler=AUTOSCALER
            ),
        ),
        ["ControlPlane.classify", "Histogram.<lambda>", "LiveObs.<lambda>"],
        [
            "LiveObs.observe",
            "ControlPlane.observe_sojourn",
            "HealthManager.observe",
        ],
    ),
}


@pytest.mark.parametrize("leg", LEGS)
def test_a_default_run_has_empty_feeds_and_records_itself(leg):
    with _wired(leg) as parts:
        transport = parts.transport
        assert transport.on_send == transport.on_complete == ()
        assert transport.sink == transport.record


@pytest.mark.parametrize("feature", FEATURES)
@pytest.mark.parametrize("leg", LEGS)
def test_each_feature_contributes_exactly_its_feeds(leg, feature):
    fields, on_send, on_complete = FEATURES[feature]
    with _wired(leg, **fields) as parts:
        transport = parts.transport
        assert _names(transport.on_send) == on_send
        assert _names(transport.on_complete) == on_complete
        # The bottom layer of the client stack is the sink.
        client, gatherer = parts.client, parts.fanout
        if client is not None:
            assert transport.sink == client.on_attempt_complete
            assert client.sink == (
                gatherer.leg_resolved if gatherer is not None
                else client.record
            )
        elif gatherer is not None:
            assert transport.sink == gatherer.on_complete
        else:
            assert transport.sink == transport.record


# -- an injected duplicate's answer ------------------------------------
N_SENDS = 20


def _bare(leg):
    """A transport of ``leg``'s clock, an app for it, and its settle."""
    if leg == "live":
        clock = WallClock()
        transport = IntegratedTransport(clock)
        app, settle = ConstantApp(iterations=5), transport.drain
    else:
        engine = Engine()
        clock = engine.clock
        transport = SimulatedTransport(engine, network_model_for("integrated"))
        app, settle = ServiceTimeModel(Deterministic(SERVICE)), engine.run
    return clock, transport, app, settle


@pytest.mark.parametrize("errors", [False, True], ids=["ok", "errored"])
@pytest.mark.parametrize("leg", LEGS)
def test_a_duplicates_answer_reaches_the_trace_and_nothing_else(leg, errors):
    clock, transport, app, settle = _bare(leg)
    plan = FaultPlan(duplicate_rate=1.0, error_rate=1.0 if errors else 0.0)
    tracer = Tracer()
    transport.start(
        app, 1, StatsCollector(), injector=FaultInjector(plan, seed=3),
        n_servers=2,
    )
    transport.set_observability(tracer, None)
    sent, completed, sunk = [], [], []
    transport.on_send = (sent.append,)
    transport.on_complete = (completed.append,)
    transport.sink = sunk.append
    try:
        for _ in range(N_SENDS):
            transport.send(clock.now(), payload=None)
        settle()
    finally:
        transport.stop()
    # Every original was fed and sunk once; no copy was.
    assert len(sent) == len(completed) == len(sunk) == N_SENDS
    assert not any(request.discard for request in completed + sunk)
    assert {r.request_id for r in completed} == {r.request_id for r in sent}
    # Both copies were served and answered ...
    stats = transport.stats
    assert stats.sent == N_SENDS and stats.completed == 2 * N_SENDS
    assert sum(instance.routed for instance in transport.instances) == (
        2 * N_SENDS
    )
    # ... but only the originals' fates are outcomes.
    assert stats.errored == (N_SENDS if errors else 0)
    assert stats.shed == 0
    assert sum(instance.completed for instance in transport.instances) == (
        0 if errors else N_SENDS
    )
    # The trace has each copy's answered chain, closed by its flags.
    events = tracer.events()
    copies = {e.request_id for e in events if e.kind == "fault_duplicate"}
    assert len(copies) == N_SENDS
    received = {e.request_id for e in events if e.kind == "received"}
    assert copies <= received
    closing = [
        e.kind for e in events
        if e.request_id in copies and e.kind in ("discard", "error")
    ]
    assert closing == ["error" if errors else "discard"] * N_SENDS


_PROFILE = AppProfile(name="constant", service=Deterministic(SERVICE))
K = 3
N_GATHERS = 40


class _ShardedConstantApp(ConstantApp):
    def merge_responses(self, partials):
        return partials


def _duplicated_run(leg, resilience):
    fields = dict(
        qps=100, warmup_requests=0, measure_requests=N_GATHERS, seed=5,
        n_servers=K, fanout=FanoutConfig(enabled=True, shards=K),
        faults=FaultPlan(duplicate_rate=1.0),
    )
    if resilience:
        fields["resilience"] = RESILIENCE
    if leg == "live":
        return run_harness(
            _ShardedConstantApp(iterations=5), HarnessConfig(**fields)
        )
    return simulate_load(_PROFILE, SimConfig(**fields))


@pytest.mark.parametrize("resilience", [False, True], ids=["bare", "resilient"])
@pytest.mark.parametrize("leg", LEGS)
def test_a_duplicate_is_neither_a_leg_nor_a_late_answer(leg, resilience):
    result = _duplicated_run(leg, resilience)
    assert result.fault_counts["duplicates"] == K * N_GATHERS
    # Every gather merged once from its originals: a copy neither
    # completed a leg early nor spoiled a gather ...
    fanout = result.fanout
    assert (fanout.completed, fanout.failed) == (N_GATHERS, 0)
    assert result.stats.count == N_GATHERS
    assert sum(result.routed_counts) == 2 * K * N_GATHERS
    if resilience:
        # ... and the client saw no answer to a call already resolved.
        outcomes = result.outcomes
        assert outcomes["succeeded"] == N_GATHERS
        assert outcomes["late"] == 0
        assert outcomes["attempts"] == K * N_GATHERS
