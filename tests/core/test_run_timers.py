"""Time has one owner per run.

Everything a run does *later* goes through one ``at / after / cancel``
scheduler: the ``Scheduler`` timer thread under the wall clock, the
``Engine`` in virtual time. These tests pin the scheduler's own
guarantees (a raising callback, a prompt stop, no thread until used),
drive ``RunParts.start`` / ``stop`` once under each clock from one
``RunConfig`` and require the same callbacks at the same scheduled
instants, and take a thread census of a live run with everything
time-driven switched on.

The two-clock comparison is not raced: each firing of a cadence
schedules the next from its *scheduled* instant, so the order in which
the timer thread runs callbacks is the heap's, however late it runs.
"""

import threading
import time

import pytest

from repro.control import AutoscalerConfig, ControlPlaneConfig
from repro.core import (
    HarnessConfig,
    ObservabilityConfig,
    ResilienceConfig,
    RunConfig,
    Scheduler,
    WallClock,
    make_transport,
    run_harness,
)
from repro.core.run import RunParts
from repro.faults import FaultPhase, FaultPlan, Scenario, error_burst
from repro.sim import Engine, ServiceTimeModel, SimulatedTransport
from repro.sim.network_model import network_model_for
from repro.stats import Deterministic

from .test_harness import ConstantApp


class TestScheduler:
    def test_no_thread_until_the_first_timer(self):
        before = threading.active_count()
        scheduler = Scheduler(WallClock())
        assert threading.active_count() == before
        scheduler.stop()  # never started: nothing to join
        assert threading.active_count() == before

    def test_a_raising_callback_does_not_take_the_timers_with_it(self):
        clock = WallClock()
        scheduler = Scheduler(clock)
        later = threading.Event()

        def boom():
            raise ValueError("boom")

        scheduler.after(0.0, boom)
        scheduler.after(0.0, boom)  # only the first is kept
        scheduler.after(0.02, later.set)
        try:
            assert later.wait(5.0), "the timer after the failure never fired"
        finally:
            with pytest.raises(ValueError, match="boom"):
                scheduler.stop()
        scheduler.stop()  # the failure is reported once

    def test_stop_does_not_wait_for_a_pending_timer(self):
        clock = WallClock()
        scheduler = Scheduler(clock)
        fired = []
        scheduler.after(30.0, fired.append, "late")
        began = time.monotonic()
        scheduler.stop()
        assert time.monotonic() - began < 2.0
        assert fired == [] and scheduler.pending() == 1
        # What a stopped scheduler is handed never fires.
        scheduler.after(0.0, fired.append, "x")
        time.sleep(0.05)
        assert fired == []


# -- RunParts.start / stop under both clocks ------------------------------

UNTIL = 0.25
SAMPLE_EVERY, TICK_EVERY = 0.045, 0.035
#: No two scheduled instants coincide, so order never rests on a tie.
BOUNDARIES = (0.05, 0.10, 0.15, 0.20)
CONFIG = RunConfig(
    scenario=Scenario(
        name="two_phase",
        phases=(
            FaultPhase(0.05, 0.05, FaultPlan(error_rate=1.0), label="errors"),
            FaultPhase(0.15, 0.05, FaultPlan(drop_rate=1.0), label="drops"),
        ),
    ),
    observability=ObservabilityConfig(
        tracing=True, metrics_interval=SAMPLE_EVERY
    ),
    control=ControlPlaneConfig(
        enabled=True, tick_interval=TICK_EVERY,
        autoscaler=AutoscalerConfig(min_servers=1, max_servers=2),
    ),
)


class _Recording:
    """Scheduler proxy: remembers the instant the running callback was
    scheduled for."""

    def __init__(self, inner):
        self._inner = inner
        self.scheduled_for = None
        self.cancel = inner.cancel

    def at(self, when, fn, *args):
        def fire():
            self.scheduled_for = when
            fn(*args)

        return self._inner.at(when, fire)

    def after(self, delay, fn, *args):
        return self._inner.after(delay, fn, *args)


def _drive(clock, transport, app, scheduler, started, wait):
    """One run of nothing but its timers; what fired, when, and why."""
    parts = RunParts(CONFIG)
    proxy = _Recording(scheduler)
    parts.wire(transport, app, clock, proxy)
    fired, plans = [], []

    def logged(name, fn):
        def call(*args):
            fired.append((name, round(proxy.scheduled_for - started, 6)))
            return fn(*args)

        return call

    def advance_to(offset):
        swap(offset)
        plan = parts.injector.plan
        plans.append((offset, plan.error_rate, plan.drop_rate, plan.is_noop))

    swap = logged("phase", parts.injector.advance_to)
    parts.injector.advance_to = advance_to
    parts.sampler.sample = logged("sample", parts.sampler.sample)
    parts.plane.tick = logged("tick", parts.plane.tick)
    try:
        parts.start(started, until=started + UNTIL)
        wait()
    finally:
        stop = getattr(scheduler, "stop", None)
        if stop is not None:
            stop()
        by_timers = list(fired)  # stop() samples once more, unscheduled
        parts.stop()
        transport.stop()
    (series,) = [
        [point.time - started for point in points]
        for name, points in parts.sampler.series.items()
        if name == "tb_inflight"
    ]
    return {
        "fired": by_timers,
        "plans": plans,
        "phase_changes": parts.injector.counts()["phase_changes"],
        "ticks": parts.plane.counts()["ticks"],
        "series": series,
    }


def _under_wall_clock():
    clock = WallClock()
    scheduler = Scheduler(clock)

    def wait():
        deadline = time.monotonic() + 10.0
        while scheduler.pending():
            assert time.monotonic() < deadline, "timers never ran dry"
            time.sleep(0.005)

    return _drive(
        clock, make_transport("integrated", clock), ConstantApp(),
        scheduler, clock.now(), wait,
    )


def _under_virtual_clock():
    engine = Engine()
    transport = SimulatedTransport(engine, network_model_for("integrated"))
    return _drive(
        engine.clock, transport, ServiceTimeModel(Deterministic(0.001)),
        engine, 0.0, engine.run,
    )


def _cadence(interval, first):
    offsets, offset = [], first
    while offset <= UNTIL:
        offsets.append(round(offset, 6))
        offset += interval
    return offsets


def test_same_callbacks_at_the_same_instants_under_both_clocks():
    live, simulated = _under_wall_clock(), _under_virtual_clock()

    assert live["fired"] == simulated["fired"]
    fired = simulated["fired"]
    assert [t for _, t in fired] == sorted(t for _, t in fired)
    for name, expected in (
        ("phase", list(BOUNDARIES)),
        # Samples start with the run; ticks one interval in.
        ("sample", _cadence(SAMPLE_EVERY, 0.0)),
        ("tick", _cadence(TICK_EVERY, TICK_EVERY)),
    ):
        assert [t for n, t in fired if n == name] == expected, name

    # The active plan follows the phases and heals after each.
    for result in (live, simulated):
        assert result["plans"] == [
            (0.05, 1.0, 0.0, False),
            (0.10, 0.0, 0.0, True),
            (0.15, 0.0, 1.0, False),
            (0.20, 0.0, 0.0, True),
        ]
        assert result["phase_changes"] == 4
        assert result["ticks"] == len(_cadence(TICK_EVERY, TICK_EVERY))

    # One point per sample plus stop()'s closing one, at the run's last
    # instant. Virtual time is exact; wall time is never early and not
    # far behind.
    scheduled = _cadence(SAMPLE_EVERY, 0.0)
    assert simulated["series"][:-1] == pytest.approx(scheduled)
    assert simulated["series"][-1] == pytest.approx(fired[-1][1])
    assert len(live["series"]) == len(scheduled) + 1
    for actual, due in zip(live["series"], scheduled):
        assert -1e-6 <= actual - due < 0.05
    assert live["series"][-1] >= fired[-1][1]


# -- thread census of a live run ------------------------------------------


class _CensusApp(ConstantApp):
    """Notes which threads exist each time a request is served."""

    def __init__(self, before):
        super().__init__(iterations=50)
        self._before = before
        self.censuses = []

    def process(self, payload):
        self.censuses.append([
            thread for thread in threading.enumerate()
            if thread not in self._before
        ])
        return super().process(payload)


def test_a_live_run_has_one_timer_thread_and_leaves_none_behind():
    before = set(threading.enumerate())
    app = _CensusApp(before)
    result = run_harness(
        app,
        HarnessConfig(
            qps=500.0,
            warmup_requests=10,
            measure_requests=140,
            resilience=ResilienceConfig(deadline=2.0, max_retries=1),
            observability=ObservabilityConfig(
                tracing=True, metrics_interval=0.01
            ),
            control=ControlPlaneConfig(
                enabled=True, tick_interval=0.01,
                autoscaler=AutoscalerConfig(min_servers=1, max_servers=2),
            ),
            scenario=error_burst(start=0.05, duration=0.05, error_rate=0.2),
            # Every attempt is held on the wire: each is a pending timer.
            faults=FaultPlan(delay_rate=1.0, delay=0.01),
        ),
    )
    assert result.outcomes["succeeded"] > 0
    assert result.fault_counts["delays"] >= 150
    assert result.fault_counts["phase_changes"] == 2
    assert result.control_counts["ticks"] > 0

    assert app.censuses
    for census in app.censuses:
        # Worker pools and the timer thread; the shaper is this thread.
        others = [t.name for t in census if "-worker-" not in t.name]
        assert others == ["tb-timer"]
        assert not any(isinstance(t, threading.Timer) for t in census)

    deadline = time.monotonic() + 5.0
    while set(threading.enumerate()) - before:
        assert time.monotonic() < deadline, set(threading.enumerate()) - before
        time.sleep(0.01)
