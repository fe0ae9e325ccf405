"""Who shares state: what a run's driver locks, and what it need not.

A live run's components are written by several threads at once (the
traffic shaper, workers, the timer thread, I/O threads); a simulated
run's by the engine's one thread. The driver hands out locks to match
(:func:`repro.core.scheduler.lock_for`): a :class:`Scheduler` a real
one, the :class:`~repro.sim.Engine` none. Where a step is one C call
(``list.append``, a seeded draw, ``next`` of a counter, ``dict.pop``)
nothing is locked at all. These tests hold both halves: a simulated
run enters no lock, and under live threads what lost its lock still
counts exactly (DESIGN.md §4 "Who shares state").
"""

import collections
import random
import sys
import threading
import time

import pytest

from repro.control import (
    AdmissionConfig,
    ControlPlaneConfig,
    PriorityConfig,
    RequestClassSpec,
)
from repro.core import (
    CacheConfig,
    FanoutConfig,
    HarnessConfig,
    Request,
    ResilienceConfig,
    Scheduler,
    StatsCollector,
    WallClock,
    run_harness,
)
from repro.core import harness as harness_module
from repro.core.balancer import BALANCERS, make_balancer
from repro.core.resilience import ResilientClient
from repro.faults import FaultInjector, FaultPlan
from repro.health import HealthConfig
from repro.sim import Engine, SimConfig, simulate_app

THREADS = 4


@pytest.fixture
def fast_switching():
    """Switch threads every microsecond: many more interleavings."""
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(before)


def _hammer(work, n_threads=THREADS):
    """Run ``work(index)`` on ``n_threads`` threads released together."""
    start = threading.Barrier(n_threads)
    results, errors = [None] * n_threads, []

    def run(index):
        try:
            start.wait(60.0)
            results[index] = work(index)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60.0)
        assert not thread.is_alive(), "a hammer thread did not finish"
    if errors:
        raise errors[0]
    return results


# -- a simulated run enters no lock ---------------------------------------

class _LockCensus:
    """Counts every lock entry of a run: ``with`` blocks and ``acquire``
    calls of the locks made while it is installed (each wrapped so its
    entry is a Python call the profiler sees), and ``acquire`` calls of
    locks made before it (C calls the profiler sees directly)."""

    def __init__(self, monkeypatch):
        self.entries = []
        real_lock, real_rlock = threading.Lock, threading.RLock
        watched = self._watched
        monkeypatch.setattr(threading, "Lock", lambda: watched(real_lock()))
        monkeypatch.setattr(threading, "RLock", lambda: watched(real_rlock()))

    @staticmethod
    def _watched(real):
        class Watched:
            def __enter__(self):
                return real.__enter__()

            def __exit__(self, *exc):
                return real.__exit__(*exc)

            def acquire(self, *args, **kwargs):
                return real.acquire(*args, **kwargs)

            def release(self):
                return real.release()

            def locked(self):
                return real.locked()

        return Watched()

    def profile(self, frame, event, arg):
        if event == "call" and frame.f_code.co_name in ("__enter__", "acquire"):
            if frame.f_code.co_filename == __file__:
                self.entries.append((frame.f_back.f_code.co_name, event))
        elif event == "c_call" and getattr(arg, "__name__", "") in (
            "acquire", "acquire_lock",
        ):
            self.entries.append((repr(arg), event))

    def run(self, fn):
        threading.setprofile(self.profile)
        sys.setprofile(self.profile)
        try:
            return fn()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)


#: The shape of the sim-resilient benchmark workload, small.
RESILIENT = dict(
    n_servers=8,
    balancer="power_of_two",
    resilience=ResilienceConfig(deadline=0.05, max_retries=2, hedge_after=0.002),
    faults=FaultPlan(
        drop_rate=0.01, error_rate=0.01,
        worker_pause_rate=0.005, worker_pause=0.002,
    ),
)


class TestNoLockUnderTheEngine:
    def test_a_simulated_resilient_run_takes_no_lock(self, monkeypatch):
        census = _LockCensus(monkeypatch)
        config = SimConfig(
            qps=20000.0, warmup_requests=100, measure_requests=1500,
            seed=3, **RESILIENT,
        )
        result = census.run(lambda: simulate_app("masstree", config))
        outcomes = result.outcomes
        # Every path the census must see ran: retries, hedges, drops.
        assert outcomes["retries"] and outcomes["hedges"]
        assert result.fault_counts["drops"] and result.fault_counts["app_errors"]
        assert census.entries == []

    def test_a_simulated_plain_run_takes_no_lock(self, monkeypatch):
        census = _LockCensus(monkeypatch)
        config = SimConfig(
            qps=4000.0, warmup_requests=100, measure_requests=1500, seed=3,
        )
        result = census.run(lambda: simulate_app("masstree", config))
        assert result.stats.count == 1500
        assert census.entries == []

    def test_health_and_cache_take_no_lock(self, monkeypatch):
        config = SimConfig(
            n_servers=4, qps=4000.0, warmup_requests=100,
            measure_requests=1500, seed=3,
            resilience=ResilienceConfig(deadline=0.05, max_retries=2),
            health=HealthConfig(enabled=True),
            cache=CacheConfig(enabled=True),
        )
        simulate_app("masstree", config.replace(measure_requests=50))
        census = _LockCensus(monkeypatch)
        result = census.run(lambda: simulate_app("masstree", config))
        # Both ran: the cache answered, the health layer kept counts.
        assert result.cache_counts["hits"] and result.health_counts
        assert census.entries == []

    def test_control_plane_and_fanout_take_no_lock_per_request(
        self, monkeypatch
    ):
        classes = (
            RequestClassSpec("interactive", priority=1, weight=3.0, fraction=0.7),
            RequestClassSpec("batch", priority=0, weight=1.0, fraction=0.3),
        )
        configs = [
            ("masstree", SimConfig(
                n_servers=2, qps=4000.0, warmup_requests=100,
                measure_requests=1500, seed=3,
                control=ControlPlaneConfig(
                    enabled=True, admission=AdmissionConfig(),
                    priority=PriorityConfig(classes=classes),
                ),
            )),
            ("xapian", SimConfig(
                n_servers=3, qps=600.0, warmup_requests=100,
                measure_requests=1500, seed=3,
                fanout=FanoutConfig(enabled=True, shards=3),
            )),
        ]
        for app, config in configs:
            simulate_app(app, config.replace(measure_requests=50))
            census = _LockCensus(monkeypatch)
            census.run(lambda: simulate_app(app, config))
            # What is left is the control tick's read of the transport's
            # active set (one per tick), not a per-request lock.
            callers = collections.Counter(caller for caller, _ in census.entries)
            assert set(callers) <= {"active_server_ids"}
            assert sum(callers.values()) < 0.05 * config.total_requests

    def test_the_census_sees_a_live_runs_locks(self, monkeypatch):
        # The same census over the same features live: it is not blind.
        census = _LockCensus(monkeypatch)
        config = HarnessConfig(
            qps=2000.0, warmup_requests=10, measure_requests=100, seed=3,
            **RESILIENT,
        )
        census.run(lambda: run_harness(_EchoApp(), config))
        callers = {caller for caller, _ in census.entries}
        assert {"note", "_count_sent", "_count_answered"} <= callers


# -- under live threads, what lost its lock still counts exactly -----------

class _EchoApp:
    def setup(self):
        pass

    def process(self, payload):
        return payload

    def make_client(self, seed=0):
        rng = random.Random(seed)

        class _Client:
            def next_request(self):
                return rng.getrandbits(16)

        return _Client()


class TestHammer:
    PER_THREAD = 4000

    def test_collector_counts_are_exact(self, fast_switching):
        collector = StatsCollector(warmup_requests=1000)
        record = _finished().finish()

        def work(_):
            for _ in range(self.PER_THREAD):
                collector.add(record)
                collector.record_attempt(0.001)
                collector.note("attempts")
                collector.note("succeeded", 2)

        _hammer(work)
        total = THREADS * self.PER_THREAD
        stats = collector.snapshot()
        assert stats.dropped_warmup == 1000
        assert stats.count == total - 1000
        assert stats.attempt_count == total
        counts = collector.outcome_counts()
        assert counts["attempts"] == total and counts["succeeded"] == 2 * total

    def test_injector_counts_match_its_decisions(self, fast_switching):
        injector = FaultInjector(
            FaultPlan(
                drop_rate=0.2, delay_rate=0.3, delay=0.001,
                duplicate_rate=0.3, worker_pause_rate=0.25,
                worker_pause=0.001, worker_crash_rate=0.1, error_rate=0.2,
            ),
            seed=9,
        )

        def work(_):
            fired = dict.fromkeys(
                ("drops", "delays", "duplicates", "pauses", "crashes",
                 "app_errors"), 0,
            )
            for _ in range(self.PER_THREAD):
                action = injector.transport_action()
                fired["drops"] += action.drop
                fired["delays"] += action.extra_delay > 0.0
                fired["duplicates"] += action.duplicate
                fired["pauses"] += injector.worker_pause() > 0.0
                fired["crashes"] += injector.worker_crash()
                fired["app_errors"] += injector.app_error()
            return fired

        per_thread = _hammer(work)
        counts = injector.counts()
        for kind, n in counts.items():
            assert n == sum(fired[kind] for fired in per_thread), kind
            assert n > 0, kind

    @pytest.mark.parametrize("policy", sorted(BALANCERS))
    def test_balancer_picks_are_always_valid(self, policy, fast_switching):
        balancer = make_balancer(policy, seed=4)

        def work(index):
            draws = random.Random(index)
            for _ in range(self.PER_THREAD // 2):
                n = draws.randrange(1, 12)
                depths = [draws.randrange(5) for _ in range(n)]
                avoid = draws.choice([None, draws.randrange(n)])
                pick = balancer.pick(depths, avoid=avoid)
                assert 0 <= pick < n
                assert n == 1 or pick != avoid

        _hammer(work)


class TestMultiThreadedLiveRun:
    """Resilience, hedges, retries and faults with four shaper threads
    and four workers: every logical request resolves exactly once, and
    the attempt, route and outstanding tallies agree."""

    def test_every_call_resolves_once_and_the_tallies_agree(self, monkeypatch):
        resolved, transports = [], []
        record = ResilientClient.record

        def counting_record(client, logical_id, outcome, request):
            resolved.append(logical_id)
            record(client, logical_id, outcome, request)

        make_transport = harness_module.make_transport

        def capturing(*args, **kwargs):
            transports.append(make_transport(*args, **kwargs))
            return transports[-1]

        monkeypatch.setattr(ResilientClient, "record", counting_record)
        monkeypatch.setattr(harness_module, "make_transport", capturing)
        config = HarnessConfig(
            qps=3000.0, warmup_requests=50, measure_requests=900, seed=5,
            n_clients=4, n_threads=4, n_servers=3, balancer="power_of_two",
            resilience=ResilienceConfig(
                deadline=0.05, attempt_timeout=0.01, max_retries=2,
                hedge_after=0.001, backoff_base=0.0005, backoff_cap=0.002,
            ),
            faults=FaultPlan(
                drop_rate=0.03, error_rate=0.03, duplicate_rate=0.02,
                delay_rate=0.02, delay=0.002,
            ),
        )
        result = run_harness(_EchoApp(), config)
        outcomes, fired = result.outcomes, result.fault_counts
        transport = transports[0]
        offered = config.total_requests
        assert outcomes["offered"] == offered
        assert (
            outcomes["succeeded"] + outcomes["timed_out"] + outcomes["failed"]
            == offered
        )
        assert sorted(resolved) == list(range(offered))
        assert outcomes["attempts"] == transport.stats.sent
        assert sum(result.routed_counts) == (
            transport.stats.sent - fired["drops"] + fired["duplicates"]
        )
        assert transport._outstanding == 0
        assert transport.queue_depths() == [0, 0, 0]
        assert outcomes["retries"] and outcomes["hedges"]


# -- a resolved call holds no armed timer ---------------------------------

def _finished(request=None, now=1.0):
    request = request or Request(payload=None, generated_at=now)
    request.sent_at = request.enqueued_at = now
    request.service_start_at = request.service_end_at = now
    request.response_received_at = now
    request.server_id = 0
    return request


class _AnsweringWire:
    """A wire that answers each attempt before ``send`` returns."""

    def __init__(self, clock):
        self._clock = clock
        self.sink = None

    def send(self, generated_at, payload, *, logical_id=None, attempt=0,
             deadline=None, avoid_server=None, server_id=None):
        request = Request(
            payload=payload, generated_at=generated_at,
            logical_id=logical_id, attempt=attempt, deadline=deadline,
        )
        self.sink(_finished(request, self._clock.now()))
        return 0


def _scheduler(kind):
    if kind == "engine":
        engine = Engine()
        return engine.clock, engine, lambda: len(engine._queue)
    scheduler = Scheduler(WallClock())
    return scheduler._clock, scheduler, scheduler.pending


@pytest.mark.parametrize("kind", ["engine", "scheduler"])
def test_a_call_answered_inside_send_keeps_no_timer(kind):
    clock, scheduler, pending = _scheduler(kind)
    wire = _AnsweringWire(clock)
    collector = StatsCollector()
    client = ResilientClient(
        wire, clock,
        ResilienceConfig(
            deadline=30.0, attempt_timeout=20.0, max_retries=1,
            hedge_after=25.0,
        ),
        collector, scheduler=scheduler,
    )
    wire.sink = client.on_attempt_complete
    try:
        for _ in range(3):
            client.send(clock.now(), "p")
        assert pending() == 0
        assert collector.outcome_counts()["succeeded"] == 3
        client.drain(timeout=1.0)
    finally:
        if kind == "scheduler":
            scheduler.stop()


# -- the timer thread wakes for a new earliest entry only -----------------

class TestSchedulerWakeups:
    @staticmethod
    def _counting_notifies(scheduler):
        notified = []
        notify = scheduler._wakeup.notify

        def counting(*args):
            notified.append(args)
            notify(*args)

        scheduler._wakeup.notify = counting
        return notified

    @pytest.mark.parametrize("via_lane", [False, True])
    def test_a_later_earlier_due_timer_fires_on_time(self, via_lane):
        scheduler = Scheduler(WallClock())
        timers = scheduler.lane() if via_lane else scheduler
        fired = threading.Event()
        try:
            timers.after(5.0, lambda: None)  # starts the thread, asleep
            time.sleep(0.05)
            started = time.monotonic()
            # On a lane, earlier than its tail: it goes to the heap.
            timers.after(0.02, fired.set)
            assert fired.wait(2.0)
            assert time.monotonic() - started < 2.0
        finally:
            scheduler.stop()

    def test_only_a_new_earliest_entry_wakes_the_thread(self):
        scheduler = Scheduler(WallClock())
        lane = scheduler.lane()
        try:
            lane.after(10.0, lambda: None)  # starts the thread
            notified = self._counting_notifies(scheduler)
            lane.after(11.0, lambda: None)  # appended behind the head
            scheduler.after(12.0, lambda: None)  # on the heap, not first
            assert notified == []
            scheduler.after(9.0, lambda: None)  # the new earliest
            assert len(notified) == 1
            assert scheduler.pending() == 4
        finally:
            scheduler.stop()
