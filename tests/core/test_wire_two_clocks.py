"""One wire, two clocks.

Routing, transport-layer faults, outstanding/routed accounting, runtime
membership and the health / trace feeds live once, in ``Transport``.
The same scripted send sequence — a seeded injector dropping, delaying
and duplicating attempts, a power-of-two balancer, a health manager
that ejects the one failing replica, one ``add_server`` and one
``drain_server`` mid-run — is driven through ``IntegratedTransport``
(real worker threads) and through ``SimulatedTransport`` (engine
events). Both must route identically, keep identical books, consume
identical random draws per stream and feed health and the tracer the
same things.

The script is causal, not raced: sends come in bursts with no
completion in between, then everything outstanding settles. The
wall-clock leg gets that by parking responses where a socket transport
would ship them (``_on_response``) until the burst is over; the
virtual leg gets it for free — a burst is one instant.
"""

import random
import threading
import time
from collections import Counter

import pytest

from repro.core import StatsCollector
from repro.core.balancer import make_balancer
from repro.core.clock import VirtualClock, WallClock
from repro.core.scheduler import Scheduler
from repro.core.transport import IntegratedTransport
from repro.faults import FaultInjector, FaultPlan
from repro.health import HealthConfig, HealthManager
from repro.obs import MetricsRegistry, Tracer
from repro.sim import Engine, ServiceTimeModel, SimulatedTransport
from repro.sim.network_model import network_model_for
from repro.stats import Deterministic

from .test_harness import ConstantApp

SEED = 23
PLAN = FaultPlan(
    drop_rate=0.1, delay_rate=0.2, delay=0.002, duplicate_rate=0.15,
    # Server-side faults are scoped to replica 1: it fails every
    # request, which is what gets it ejected.
    error_rate=1.0, server_ids=(1,),
)
HEALTH = HealthConfig(
    enabled=True, min_samples=5, probe_interval=6, breaker=False,
    retry_budget=False,
)
#: (sends in the burst, membership change after it settles)
SCRIPT = [(12, None), (12, "add"), (14, "drain"), (12, None)]


class CountingRandom(random.Random):
    """A ``random.Random`` that counts what is drawn from it."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)


def _counting(rng: random.Random) -> CountingRandom:
    counted = CountingRandom()
    counted.setstate(rng.getstate())
    return counted


class HeldIntegratedTransport(IntegratedTransport):
    """``IntegratedTransport`` whose responses wait for the script.

    Its clock is frozen, so fault-delayed sends are released by a
    wall-clock timer thread (``timers``, passed to ``start``).
    """

    def __init__(self, clock):
        super().__init__(clock)
        self._parked = []
        self._parked_lock = threading.Lock()
        self.timers = Scheduler(WallClock())

    def stop(self):
        super().stop()
        self.timers.stop()

    def _on_response(self, request):
        with self._parked_lock:
            self._parked.append(request)

    def settle(self, timeout=10.0):
        deadline = time.monotonic() + timeout
        while True:
            with self._parked_lock, self._lock:
                if len(self._parked) == self._outstanding:
                    batch, self._parked = self._parked, []
                    break
            assert time.monotonic() < deadline, "responses never arrived"
            time.sleep(0.001)
        for request in sorted(batch, key=lambda r: r.request_id):
            self._complete(request)


def _live():
    clock = VirtualClock()
    transport = HeldIntegratedTransport(clock)
    return (
        clock, transport, ConstantApp(iterations=5), transport.settle,
        transport.timers,
    )


def _simulated():
    engine = Engine()
    transport = SimulatedTransport(engine, network_model_for("integrated"))
    app = ServiceTimeModel(Deterministic(0.001))
    return engine.clock, transport, app, engine.run, engine


def _start(leg, plan=PLAN, health=None, tracer=None, n_servers=3):
    clock, transport, app, settle, scheduler = leg()
    injector = FaultInjector(plan, seed=SEED)
    injector._rngs = {k: _counting(v) for k, v in injector._rngs.items()}
    balancer = make_balancer("power_of_two", seed=SEED)
    balancer._rng = _counting(balancer._rng)
    transport.start(
        app, 1, StatsCollector(), injector=injector, n_servers=n_servers,
        balancer=balancer, scheduler=scheduler, health=health,
    )
    if health is not None:
        # What ``RunParts.wire`` lists for a health-only run.
        transport.on_complete = (health.observe,)
    if tracer is not None:
        transport.set_observability(tracer, MetricsRegistry())
    return clock, transport, settle, injector, balancer


def _books(transport):
    return (
        transport.queue_depths(),
        [instance.routed for instance in transport.instances],
        transport.active_server_ids(),
    )


def _run_script(leg):
    tracer = Tracer()
    health = HealthManager(HEALTH, tracer=tracer)
    feed = []
    real_record = health.record_attempt

    def record_attempt(server_id, latency, ok, now):
        feed.append((server_id, ok))
        real_record(server_id, latency, ok, now)

    health.record_attempt = record_attempt
    clock, transport, settle, injector, balancer = _start(
        leg, health=health, tracer=tracer
    )
    trajectory, feeds = [], []
    try:
        for burst, change in SCRIPT:
            for _ in range(burst):
                routed_to = transport.send(clock.now(), payload=None)
                trajectory.append((routed_to,) + _books(transport))
            settle()
            # Completion order across replicas is the clock's business;
            # what each replica reports, and how often, is the wire's.
            feeds.append(sorted(feed))
            del feed[:]
            if change == "add":
                assert transport.add_server() == 3
            elif change == "drain":
                assert transport.drain_server() == 3
            trajectory.append((change,) + _books(transport))
    finally:
        transport.stop()
    return {
        "trajectory": trajectory,
        "stats": dict(vars(transport.stats)),
        "health_feed": feeds,
        "health_counts": health.counts(),
        "fault_counts": injector.counts(),
        "draws": {
            "balancer": balancer._rng.draws,
            **{k: rng.draws for k, rng in injector._rngs.items()},
        },
        "trace_kinds": Counter(e.kind for e in tracer.events()),
    }


def test_same_script_same_wire_under_both_clocks():
    live, simulated = _run_script(_live), _run_script(_simulated)
    for key in live:
        assert live[key] == simulated[key], key

    # ... and the script really exercised the wire.
    fired = live["fault_counts"]
    assert fired["drops"] and fired["delays"] and fired["duplicates"]
    assert live["health_counts"]["ejections"] == 1
    assert live["health_counts"]["probes"] >= 1
    stats = live["stats"]
    n_sends = sum(burst for burst, _ in SCRIPT)
    assert stats["sent"] == n_sends
    assert stats["dropped"] == fired["drops"]
    assert stats["completed"] == n_sends - fired["drops"] + fired["duplicates"]
    assert stats["errored"] > 0
    final_depths, final_routed, final_active = live["trajectory"][-1][1:]
    assert final_depths == [0, 0, 0, 0]
    assert sum(final_routed) == stats["completed"]
    assert final_routed[3] > 0 and final_active == [0, 1, 2]
    # Nothing routed to the drained replica after the drain.
    drain_at = next(
        i for i, step in enumerate(live["trajectory"]) if step[0] == "drain"
    )
    assert all(step[0] != 3 for step in live["trajectory"][drain_at + 1:])
    kinds = live["trace_kinds"]
    for kind in ("fault_drop", "fault_delay", "fault_duplicate",
                 "fault_app_error", "discard", "error", "eject", "probe"):
        assert kinds[kind], kind
    assert kinds["fault_drop"] == fired["drops"]
    assert live["draws"]["transport"] > n_sends and live["draws"]["app"] > 0
    assert live["draws"]["worker"] == 0


@pytest.mark.parametrize("leg", [_live, _simulated], ids=["live", "simulated"])
def test_a_dropped_attempt_never_reaches_a_router(leg):
    """One order on the wire: the fault action first, then the route."""
    clock, transport, settle, injector, balancer = _start(
        leg, plan=FaultPlan(drop_rate=1.0)
    )
    try:
        returned = [transport.send(clock.now(), payload=None) for _ in range(25)]
        settle()
        assert returned == [None] * 25
        assert injector._rngs["transport"].draws == 25
        assert balancer._rng.draws == 0
        assert [i.routed for i in transport.instances] == [0, 0, 0]
        assert transport.queue_depths() == [0, 0, 0]
        assert (transport.stats.sent, transport.stats.dropped) == (25, 25)
        assert transport.stats.completed == 0
    finally:
        transport.stop()
