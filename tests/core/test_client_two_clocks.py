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
"""

import threading

import pytest

from repro.core import Request, ResilienceConfig, ResilientClient, StatsCollector
from repro.core.clock import WallClock
from repro.core.scheduler import Scheduler
from repro.sim import Engine

SEED = 11
SERVICE = 0.001
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

    def __init__(self, clock, scheduler):
        self._clock = clock
        self._scheduler = scheduler
        self._hook = None
        self._held = []
        self._idle = threading.Condition()
        self._in_flight = 0
        self.sends = []

    def set_completion_hook(self, hook):
        self._hook = hook

    def send(self, generated_at, payload, *, logical_id, attempt, deadline,
             avoid_server):
        action = SCRIPT[logical_id][attempt]
        self.sends.append((logical_id, attempt, avoid_server))
        if action == "drop":
            return 0  # routed, then lost: no response will ever come
        request = Request(
            payload=payload, generated_at=generated_at,
            logical_id=logical_id, attempt=attempt, deadline=deadline,
        )
        request.sent_at = self._clock.now()
        request.server_id = 0
        if action == "hold":
            self._held.append(request)
            return 0
        # This answer first, then any straggler it overtook.
        replies = [(request, action)] + [(r, "ok") for r in self._held]
        self._held = []
        with self._idle:
            self._in_flight += len(replies)
        for position, (reply, outcome) in enumerate(replies, start=1):
            self._scheduler.after(
                position * SERVICE, self._deliver, reply, outcome
            )
        return 0

    def _deliver(self, request, action):
        now = self._clock.now()
        request.enqueued_at = request.sent_at
        request.service_start_at = request.service_end_at = now
        request.response_received_at = now
        request.error = "boom" if action == "error" else None
        request.shed = action == "shed"
        self._hook(request)
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
