"""One client state machine, two schedulers.

The same scripted wire — a fixed per-attempt completion / drop / error
/ shed / straggler script — is driven once by ``ResilientClient`` on
its own ``Scheduler`` timer thread under the wall clock, and once by
the same class on the simulator's ``Engine`` under the virtual clock.
Both must send the identical attempt sequence, tally the identical
outcomes, and leave no live timer behind a resolved call.

The script is causal, not raced: a response is scheduled only in
reaction to a send, a timer-driven step (hedge, attempt timeout,
deadline) has nothing competing with it closer than ~60 ms, and calls
run one at a time, so the wall-clock leg cannot reorder under load.

The second half stacks the fan-out layer on the same wire through
``RunParts.wire`` — once over the bare wire, once over the resilient
client — and scripts what can happen to one leg of a K=3 scatter: a
gather resolves exactly once whichever clock runs it.
"""

import threading

import pytest

from repro.core import (
    FanoutConfig,
    HarnessConfig,
    Request,
    ResilienceConfig,
    ResilientClient,
    StatsCollector,
)
from repro.core.clock import WallClock
from repro.core.run import RunParts
from repro.core.scheduler import Scheduler
from repro.sim import Engine

SEED = 11
SERVICE = 0.001
SLOW = 0.5  # longer than any deadline below
CONFIG = ResilienceConfig(
    deadline=0.4, attempt_timeout=0.1, max_retries=2,
    backoff_base=0.001, backoff_cap=0.002,
    hedge_after=0.04, max_hedges=1,
)

#: logical id -> attempt number -> what the wire does with it.
SCRIPT = {
    0: {1: "ok"},
    1: {1: "error", 2: "ok"},
    2: {1: "shed", 2: "ok"},
    # dropped, hedge dropped too, attempt timeout drives the retry
    3: {1: "drop", 2: "drop", 3: "ok"},
    # original held back; the hedge wins and the original arrives late
    4: {1: "hold", 2: "ok"},
    # nothing ever answers: hedge, two timeout retries, then the deadline
    5: {1: "drop", 2: "drop", 3: "drop", 4: "drop"},
    # a plain success last: any uncancelled timer would outlive it
    6: {1: "ok"},
}

EXPECTED_SENDS = [
    (0, 1, None),
    (1, 1, None), (1, 2, None),
    (2, 1, None), (2, 2, None),
    (3, 1, None), (3, 2, 0), (3, 3, None),
    (4, 1, None), (4, 2, 0),
    (5, 1, None), (5, 2, 0), (5, 3, None), (5, 4, None),
    (6, 1, None),
]
EXPECTED_OUTCOMES = {
    "offered": 7, "succeeded": 6, "timed_out": 1, "failed": 0,
    "attempts": 15, "retries": 5, "hedges": 3, "errors": 1, "shed": 1,
    "late": 1,
}


class ScriptedWire:
    """Transport-shaped fake: answers each attempt as the script says.

    Responses are delivered through ``scheduler.after`` — a
    ``Scheduler`` in the wall-clock leg, the ``Engine`` itself in the
    virtual one — so the wire is the same object under both clocks.
    """

    def __init__(self, clock, scheduler, script=SCRIPT):
        self._clock = clock
        self._scheduler = scheduler
        self._script = script
        #: Where answers go: ``RunParts.wire`` or the test sets it.
        self.sink = None
        self._held = []
        self._idle = threading.Condition()
        self._in_flight = 0
        self.sends = []
        #: The ``server_id`` each send was pinned to (None: unpinned).
        self.pins = []

    def start(self, *args, **kwargs):
        """``RunParts.wire`` starts its transport; nothing to start."""

    def send(self, generated_at, payload, *, logical_id, attempt=0,
             deadline=None, avoid_server=None, server_id=None):
        action = self._script[logical_id][attempt]
        self.sends.append((logical_id, attempt, avoid_server))
        self.pins.append(server_id)
        if action == "drop":
            return 0  # routed, then lost: no response will ever come
        request = Request(
            payload=payload, generated_at=generated_at,
            logical_id=logical_id, attempt=attempt, deadline=deadline,
        )
        request.sent_at = self._clock.now()
        request.server_id = server_id or 0
        if action == "hold":
            self._held.append(request)
            return 0
        replies = [(request, action)]
        if action == "dup":
            # An injected duplicate: the copy whose answer is thrown
            # away comes back first, the original right behind it.
            copy = Request(
                payload=payload, generated_at=generated_at,
                logical_id=logical_id, attempt=attempt, discard=True,
            )
            copy.sent_at, copy.server_id = request.sent_at, request.server_id
            replies.insert(0, (copy, action))
        # This answer first, then any straggler it overtook.
        replies += [(r, "ok") for r in self._held]
        self._held = []
        with self._idle:
            self._in_flight += len(replies)
        for position, (reply, outcome) in enumerate(replies, start=1):
            self._scheduler.after(
                # "slow" answers, but only after the deadline has passed.
                SLOW if outcome == "slow" else position * SERVICE,
                self._deliver, reply, outcome,
            )
        return request.server_id

    def _deliver(self, request, action):
        now = self._clock.now()
        request.enqueued_at = request.sent_at
        request.service_start_at = request.service_end_at = now
        request.response_received_at = now
        request.error = "boom" if action == "error" else None
        request.shed = action == "shed"
        if not request.discard:
            # As the transport does: a duplicate's answer reaches no
            # layer of the client stack.
            self.sink(request)
        with self._idle:
            self._in_flight -= 1
            self._idle.notify_all()

    def wait_idle(self, timeout=5.0):
        with self._idle:
            assert self._idle.wait_for(lambda: self._in_flight == 0, timeout)


def _under_wall_clock():
    clock = WallClock()
    wire_timer = Scheduler(clock)
    wire = ScriptedWire(clock, wire_timer)
    collector = StatsCollector()
    client = ResilientClient(wire, clock, CONFIG, collector, seed=SEED)
    wire.sink = client.on_attempt_complete
    leftover_timers = []
    try:
        for logical_id in sorted(SCRIPT):
            client.send(clock.now(), f"p{logical_id}")
            client.drain(timeout=5.0)
            leftover_timers.append(client._scheduler.pending())
            wire.wait_idle()
    finally:
        client.close()
        wire_timer.stop()
    return wire.sends, collector, leftover_timers


def _under_virtual_clock():
    engine = Engine()
    wire = ScriptedWire(engine.clock, engine)
    collector = StatsCollector()
    # Same class, same wire step; only scheduler and clock differ.
    client = ResilientClient(
        wire, engine.clock, CONFIG, collector, seed=SEED, scheduler=engine
    )
    wire.sink = client.on_attempt_complete
    quiet_after = []
    for logical_id in sorted(SCRIPT):
        start = float(logical_id)
        engine.at(start, client.send, start, f"p{logical_id}")
        # Nothing else is scheduled, so the engine runs dry at the
        # call's last live event and the clock stops there.
        engine.run()
        quiet_after.append(engine.now - start)
    return wire.sends, collector, quiet_after


def test_same_script_same_behaviour_under_both_clocks():
    wall_sends, wall_stats, wall_timers = _under_wall_clock()
    sim_sends, sim_stats, quiet_after = _under_virtual_clock()

    assert wall_sends == sim_sends == EXPECTED_SENDS
    assert wall_stats.outcome_counts() == EXPECTED_OUTCOMES
    assert sim_stats.outcome_counts() == EXPECTED_OUTCOMES
    assert (
        wall_stats.snapshot().attempt_count
        == sim_stats.snapshot().attempt_count
        == 9  # every attempt the wire answered, the straggler included
    )
    assert wall_stats.snapshot().count == sim_stats.snapshot().count == 6

    # Resolution disarms every timer of the call under either clock:
    # the timer wheel holds nothing live once a call has drained ...
    assert wall_timers == [0] * len(SCRIPT)
    # ... and the engine goes quiet at the call's last response, not at
    # the dead hedge / timeout / deadline timers behind it. Only the
    # call nothing answers runs to its deadline.
    assert quiet_after[0] == pytest.approx(SERVICE)
    assert quiet_after[6] == pytest.approx(SERVICE)
    assert quiet_after[5] == pytest.approx(CONFIG.deadline)
    assert all(
        quiet < CONFIG.deadline
        for logical_id, quiet in enumerate(quiet_after)
        if logical_id != 5
    )


def test_virtual_leg_replays_bit_identically():
    first, second = _under_virtual_clock(), _under_virtual_clock()
    assert first[2] == second[2]
    assert first[1].snapshot().samples() == second[1].snapshot().samples()


# -- the fan-out layer on the same wire --------------------------------
K = 3
#: Over the resilient client: one deadline, one retry, no hedge. Legs
#: are logical ids ``K * gather + shard``; unscripted legs answer "ok".
LEG_POLICY = ResilienceConfig(
    deadline=0.4, attempt_timeout=0.1, max_retries=1,
    backoff_base=0.001, backoff_cap=0.002,
)
RESILIENT_LEGS = {
    # gather 0: dropped, and the retry answers only after the deadline
    1: {1: "drop", 2: "slow"},
    # gather 1: dropped, the retry answers
    4: {1: "drop", 2: "ok"},
    # gather 2: errored, the retry answers
    8: {1: "error", 2: "ok"},
    # gather 3: an injected duplicate, discarded copy first
    9: {1: "dup"},
}
#: Over the bare wire (attempt numbers are all 0): nothing recovers.
BARE_LEGS = {1: {0: "dup"}, 4: {0: "drop"}}


class _Script(dict):
    def __missing__(self, logical_id):
        return {0: "ok", 1: "ok"}


def _scatter(clock, scheduler, wire_scheduler, legs, resilience, settle):
    """Run one gather at a time through ``RunParts.wire``'s stack.

    ``settle(parts, wire, send, gather)`` sends the gather, lets it play
    out under the caller's clock and returns its timer-hygiene reading.
    """
    n_gathers = max(legs) // K + 1
    config = HarnessConfig(
        n_servers=K, fanout=FanoutConfig(enabled=True, shards=K),
        warmup_requests=0, measure_requests=n_gathers, seed=SEED,
        **({"resilience": resilience} if resilience is not None else {}),
    )
    parts = RunParts(config)
    wire = ScriptedWire(clock, wire_scheduler, _Script(legs))
    send = parts.wire(wire, None, clock, scheduler)
    stats = parts.fanout.stats
    progress, hygiene = [], []
    for gather in range(n_gathers):
        hygiene.append(settle(parts, wire, send, gather))
        progress.append((stats.completed, stats.failed))
    open_before_sweep = parts.fanout.outstanding
    parts.stop()  # the end-of-run sweep
    return dict(
        sends=wire.sends, pins=wire.pins,
        progress=progress, open_before_sweep=open_before_sweep,
        final=(stats.completed, stats.failed, stats.critical_counts),
        outcomes=parts.collector.outcome_counts(),
        recorded=parts.collector.snapshot().count,
        hygiene=hygiene,
    )


def _scatter_under_wall_clock(legs, resilience):
    clock = WallClock()
    timers, wire_timers = Scheduler(clock), Scheduler(clock)

    def settle(parts, wire, send, gather):
        send(clock.now(), f"q{gather}")
        if parts.client is not None:
            parts.client.drain(timeout=5.0)
        pending = timers.pending()
        wire.wait_idle()
        return pending

    try:
        return _scatter(clock, timers, wire_timers, legs, resilience, settle)
    finally:
        timers.stop()
        wire_timers.stop()


def _scatter_under_virtual_clock(legs, resilience):
    engine = Engine()

    def settle(parts, wire, send, gather):
        start = float(gather)
        engine.at(start, send, start, f"q{gather}")
        engine.run()
        return engine.now - start

    return _scatter(engine.clock, engine, engine, legs, resilience, settle)


def _same_under_both_clocks(legs, resilience):
    wall = _scatter_under_wall_clock(legs, resilience)
    sim = _scatter_under_virtual_clock(legs, resilience)
    wall_hygiene, quiet_after = wall.pop("hygiene"), sim.pop("hygiene")
    assert wall == sim
    # No live timer outlives a resolved gather under the wall clock.
    assert wall_hygiene == [0] * len(wall_hygiene)
    return sim, quiet_after


def test_a_gather_over_the_resilient_client_resolves_exactly_once():
    run, quiet_after = _same_under_both_clocks(RESILIENT_LEGS, LEG_POLICY)

    # Every attempt of a leg — the retry too — is pinned to its shard.
    assert run["pins"] == [logical_id % K for logical_id, _, _ in run["sends"]]
    assert [s[:2] for s in run["sends"] if s[1] > 1] == [(1, 2), (4, 2), (8, 2)]
    # Gather 0 fails at the deadline; the other three merge, once each.
    assert run["progress"] == [(0, 1), (1, 1), (2, 1), (3, 1)]
    assert run["open_before_sweep"] == 0
    # The critical leg is the one that had to be retried (shards 1, 2)
    # or whose original queued behind its duplicate (shard 0).
    assert run["final"] == (3, 1, [1, 1, 1])
    assert run["recorded"] == 3
    assert run["outcomes"] == {
        # Gathers, not legs; `offered` is the run's to state.
        "offered": 0, "succeeded": 3, "timed_out": 1, "failed": 0,
        "attempts": 15, "retries": 3, "hedges": 0, "errors": 1, "shed": 0,
        # the slow retry of gather 0: counted, not merged
        "late": 1,
    }
    # The engine goes quiet at the deadline-failed gather's late answer
    # and at a merged gather's last response, not at a dead timer.
    assert quiet_after[0] == pytest.approx(
        LEG_POLICY.attempt_timeout + SLOW, abs=LEG_POLICY.backoff_cap
    )
    assert all(quiet < LEG_POLICY.deadline for quiet in quiet_after[1:])


def test_a_gather_over_the_bare_wire_resolves_exactly_once():
    run, _ = _same_under_both_clocks(BARE_LEGS, None)

    assert run["pins"] == [0, 1, 2] * 2
    # The duplicate's original still completes gather 0 ...
    assert run["progress"] == [(1, 0), (1, 0)]
    # ... and the dropped leg leaves gather 1 open (two legs answered,
    # one never will be) until the end-of-run sweep.
    assert run["open_before_sweep"] == 1
    assert run["final"] == (1, 1, [0, 1, 0])
    assert run["recorded"] == 1
    # No resilience layer: nothing is tallied (`RunParts.finish` does).
    assert not any(run["outcomes"].values())
