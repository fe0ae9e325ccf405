"""Tests for the worker-pool server."""

import random
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.batching import BatchPolicy
from repro.cache import build_cache
from repro.core import (
    CacheConfig, Request, RequestQueue, Server, VirtualClock, WallClock,
)
from repro.faults import INJECTED_APP_ERROR, FaultInjector, FaultPlan
from repro.obs.trace import Tracer
from repro.sim import Engine, SimulatedServer
from repro.sim.network_model import NETWORK_MODELS

from ..sim.test_stage_invariants import batching as batch_policies
from ..sim.test_stage_invariants import plans


class EchoApp:
    def process(self, payload):
        return ("echo", payload)


class SlowApp:
    def __init__(self, delay=0.01):
        self.delay = delay
        self.concurrent = 0
        self.max_concurrent = 0
        self._lock = threading.Lock()

    def process(self, payload):
        with self._lock:
            self.concurrent += 1
            self.max_concurrent = max(self.max_concurrent, self.concurrent)
        time.sleep(self.delay)
        with self._lock:
            self.concurrent -= 1
        return payload


class FailingApp:
    def process(self, payload):
        raise RuntimeError("boom")


def submit(queue, payload):
    request = Request(payload=payload, generated_at=0.0)
    request.sent_at = 0.0
    queue.put(request)
    return request


class TestServer:
    def test_processes_and_stamps(self):
        clock = WallClock()
        queue = RequestQueue(clock)
        done = []
        server = Server(EchoApp(), queue, clock, respond=done.append)
        server.start()
        request = submit(queue, "hello")
        deadline = time.time() + 2.0
        while not done and time.time() < deadline:
            time.sleep(0.001)
        server.shutdown()
        assert done[0].response == ("echo", "hello")
        assert request.service_start_at is not None
        assert request.service_end_at >= request.service_start_at

    def test_multiple_workers_run_concurrently(self):
        clock = WallClock()
        queue = RequestQueue(clock)
        app = SlowApp(delay=0.05)
        done = []
        server = Server(app, queue, clock, n_threads=4, respond=done.append)
        server.start()
        for i in range(4):
            submit(queue, i)
        deadline = time.time() + 5.0
        while len(done) < 4 and time.time() < deadline:
            time.sleep(0.005)
        server.shutdown()
        assert len(done) == 4
        assert app.max_concurrent >= 2

    def test_errors_captured_not_fatal(self):
        clock = WallClock()
        queue = RequestQueue(clock)
        done = []
        server = Server(FailingApp(), queue, clock, respond=done.append)
        server.start()
        submit(queue, "x")
        submit(queue, "y")
        deadline = time.time() + 2.0
        while len(done) < 2 and time.time() < deadline:
            time.sleep(0.001)
        server.shutdown()
        assert len(done) == 2
        assert all("boom" in r.error for r in done)
        assert len(server.errors) == 2

    def test_shutdown_stops_workers(self):
        clock = WallClock()
        queue = RequestQueue(clock)
        server = Server(EchoApp(), queue, clock, n_threads=2)
        server.start()
        server.shutdown()  # must not hang

    def test_cannot_start_twice(self):
        clock = WallClock()
        server = Server(EchoApp(), RequestQueue(clock), clock)
        server.start()
        with pytest.raises(RuntimeError):
            server.start()
        server.shutdown()

    def test_requires_positive_threads(self):
        clock = WallClock()
        with pytest.raises(ValueError):
            Server(EchoApp(), RequestQueue(clock), clock, n_threads=0)


class FlakyClockApp:
    """Advances the virtual clock 1 ms per call; every 7th payload raises."""

    def __init__(self, clock):
        self.clock = clock

    def process(self, payload):
        self.clock.advance(0.001)
        if payload % 7 == 3:
            raise ValueError(f"bad payload {payload}")
        return ("ok", payload)


class CountingInjector(FaultInjector):
    """Counts decision *calls* (fired or not) per layer."""

    def __init__(self, plan, seed):
        super().__init__(plan, seed)
        self.calls = {"worker_pause": 0, "app_error": 0, "worker_crash": 0}

    def worker_pause(self):
        self.calls["worker_pause"] += 1
        return super().worker_pause()

    def app_error(self):
        self.calls["app_error"] += 1
        return super().app_error()

    def worker_crash(self):
        self.calls["worker_crash"] += 1
        return super().worker_crash()


class TestUnbatchedIsTheBatchOfOne:
    """``Server(batching=None)`` and a zero-delay 1-batch policy run the
    same stage: same responses, error texts, fault draws and trace."""

    N = 60
    PLAN = FaultPlan(
        worker_pause_rate=0.2, worker_pause=0.004, error_rate=0.15,
        worker_crash_rate=0.03,
    )

    def drive(self, batching):
        clock = VirtualClock(5.0)
        queue = RequestQueue(clock)
        injector = CountingInjector(self.PLAN, seed=5)
        tracer = Tracer()
        done = []
        server = Server(
            FlakyClockApp(clock), queue, clock, respond=done.append,
            injector=injector, batching=batching,
        )
        server.set_tracer(tracer)
        requests = [submit(queue, i) for i in range(self.N)]
        server.start()
        deadline = time.time() + 5.0
        while (
            len(done) < self.N and server.alive_workers
            and time.time() < deadline
        ):
            time.sleep(0.001)
        server.shutdown(discard_pending=True)
        index = {r.request_id: r.payload for r in requests}
        return {
            "responses": [(r.payload, r.response) for r in done],
            "errors": [(r.payload, r.error) for r in done],
            "server_errors": server.errors,
            "stamps": [
                (r.payload, r.service_start_at, r.service_end_at) for r in done
            ],
            "alive": server.alive_workers,
            "calls": injector.calls,
            "fired": injector.counts(),
            "events": [
                # Under batching a pause names the server (it stalls
                # the whole window), unbatched it names the request.
                (e.kind, e.ts, e.value, e.server_id)
                if e.kind == "fault_pause"
                else (e.kind, e.ts, e.value, e.server_id,
                      index.get(e.request_id), e.attempt)
                for e in tracer.events()
                if not e.kind.startswith("batch_")
            ],
            "batch_kinds": {
                e.kind for e in tracer.events() if e.kind.startswith("batch_")
            },
        }

    def test_same_stage_same_results(self):
        plain = self.drive(None)
        one = self.drive(BatchPolicy(1, 0.0))
        assert one.pop("batch_kinds") == {
            "batch_form", "batch_start", "batch_end"
        }
        assert plain.pop("batch_kinds") == set()
        assert plain == one
        # The script really exercised every branch of the stage.
        fired = plain["fired"]
        assert fired["pauses"] and fired["app_errors"] and fired["crashes"] == 1
        assert plain["alive"] == 0
        served = len(plain["responses"])
        assert 10 < served < self.N
        assert plain["calls"]["worker_pause"] == served
        assert plain["calls"]["worker_crash"] == served
        texts = {text for _, text in plain["errors"] if text is not None}
        assert INJECTED_APP_ERROR in texts
        assert any("ValueError: bad payload" in t for t in texts)
        kinds = [e[0] for e in plain["events"]]
        assert kinds.count("fault_app_error") == fired["app_errors"]
        assert kinds[-1] == "fault_crash"


class _Keyed:
    """A payload that is its own cache key, as the simulator's are, and
    carries the service its live call costs."""

    def __init__(self, key, cost):
        self.key, self.cost = key, cost

    def __eq__(self, other):
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)


class _CostApp:
    """Charges each call its payload's cost on the virtual clock."""

    def __init__(self, clock):
        self.clock = clock

    def cache_key(self, payload):
        return payload

    def process(self, payload):
        self.clock.advance(payload.cost)
        return payload.key


class _Costs:
    """The simulator's twin of ``_CostApp``: draws in member order."""

    def __init__(self, costs):
        self._costs = iter(costs)

    def sample(self, rng):
        return next(self._costs)


# Every duration is a power of two, so a window's length is exact on
# both clocks and reads back as its parts: bit i = member i charged its
# service, then the hits (HIT_COST each), then the pause.
HIT_COST = 2.0 ** 8
PAUSE = 2.0 ** 12
N_WORKERS = 64  # more than any run crashes: crashes are only counted


def _windows_of(key_lists):
    return [
        [_Keyed(key, 2.0 ** i) for i, key in enumerate(keys)]
        for keys in key_lists
    ]


def _live(key_lists, batching, plan, cached, seed):
    clock = VirtualClock()
    tracer = Tracer()
    server = Server(
        _CostApp(clock), RequestQueue(clock), clock, n_threads=N_WORKERS,
        injector=None if plan is None else FaultInjector(plan, seed),
        batching=batching, cache=_cache(cached, tracer),
    )
    server.set_tracer(tracer)
    windows = []
    for payloads in _windows_of(key_lists):
        members = [Request(payload=p, generated_at=0.0) for p in payloads]
        server._serve(members)
        windows.append(members)
    return windows, tracer, N_WORKERS - server.alive_workers


def _simulated(key_lists, batching, plan, cached, seed):
    engine = Engine()
    tracer = Tracer()
    windows = _windows_of(key_lists)
    costs = [payload.cost for payloads in windows for payload in payloads]
    server = SimulatedServer(
        engine, _Costs(costs), NETWORK_MODELS["integrated"], N_WORKERS,
        random.Random(0), lambda request: None,
        injector=None if plan is None else FaultInjector(plan, seed),
        tracer=tracer, batching=batching, batch_marginal_cost=1.0,
        cache=_cache(cached, tracer),
    )
    served = []
    for payloads in windows:
        members = [Request(payload=p, generated_at=0.0) for p in payloads]
        server._start(members, engine.now)
        engine.run()
        served.append(members)
    return served, tracer, server.crashed_workers


def _cache(cached, tracer):
    # Capacity = keyspace: nothing is evicted, so the store position
    # (the executors' one difference) cannot reorder evictions.
    config = CacheConfig(enabled=True, capacity=16, hit_cost=HIT_COST)
    return build_cache(config, tracer=tracer) if cached else None


def _observed(run):
    """One clock's stage, as outcomes, window parts and point events."""
    windows, tracer, crashes = run
    where = {}
    outcomes, parts = [], []
    for w, members in enumerate(windows):
        window = members[0].service_end_at - members[0].service_start_at
        assert all(
            m.service_end_at - m.service_start_at == window for m in members
        )
        paused, rest = divmod(int(window), int(PAUSE))
        hits, charged = divmod(rest, int(HIT_COST))
        parts.append((
            bool(paused), hits,
            [i for i in range(len(members)) if charged >> i & 1],
        ))
        outcomes.append([
            "error" if m.error is not None else "hit" if m.cache_hit
            else "served"
            for m in members
        ])
        for i, m in enumerate(members):
            where[m.request_id] = (w, i)
    events = [
        (e.kind, e.ts, e.value, e.server_id, where.get(e.request_id))
        for e in tracer.events()
    ]
    return {
        "outcomes": outcomes, "windows": parts, "events": events,
        "hits": [[m.cache_hit for m in ms] for ms in windows],
        "crashes": crashes,
    }


class TestInjectedErrorText:
    """One stage, two clocks: one plan gives one ``request.error`` text,
    batched or not, and the same outcome, window and events per member."""

    PLAN = FaultPlan(error_rate=0.5)

    def live_texts(self, batching):
        clock = VirtualClock()
        queue = RequestQueue(clock)
        done = []
        server = Server(
            EchoApp(), queue, clock, respond=done.append,
            injector=FaultInjector(self.PLAN, seed=1), batching=batching,
        )
        for i in range(40):
            submit(queue, i)
        server.start()
        deadline = time.time() + 5.0
        while len(done) < 40 and time.time() < deadline:
            time.sleep(0.001)
        server.shutdown()
        assert server.errors == [r.error for r in done if r.error]
        return {r.error for r in done}

    def sim_texts(self, batching):
        from repro.sim import ServiceTimeModel
        from repro.stats import Deterministic

        engine = Engine()
        done = []
        server = SimulatedServer(
            engine, ServiceTimeModel(Deterministic(0.001)),
            NETWORK_MODELS["integrated"], 1, random.Random(0), done.append,
            injector=FaultInjector(self.PLAN, seed=1), batching=batching,
        )
        for i in range(40):
            server.submit(i * 0.0005)
        engine.run()
        return {r.error for r in done}

    @pytest.mark.parametrize("batching", [None, BatchPolicy(4, 0.002)])
    def test_same_text_everywhere(self, batching):
        expected = {None, INJECTED_APP_ERROR}
        assert self.live_texts(batching) == expected
        assert self.sim_texts(batching) == expected

    @given(
        batching=batch_policies,
        cached=st.booleans(),
        plan=st.one_of(st.none(), plans),
        seed=st.integers(0, 2**16),
    )
    @example(
        batching=BatchPolicy(4, 0.001), cached=True, seed=3,
        plan=FaultPlan(
            worker_pause_rate=0.1, worker_pause=PAUSE, error_rate=0.2,
            worker_crash_rate=0.02,
        ),
    )
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_same_stage_on_both_clocks(self, batching, cached, plan, seed):
        # Member sizes from the policy, keys distinct within a window:
        # a repeated key is where the executors differ (next test).
        rng = random.Random(seed)
        top = 1 if batching is None else batching.max_batch_size
        key_lists = [
            rng.sample(range(16), rng.randint(1, top)) for _ in range(40)
        ]
        if plan is not None:
            plan = plan.replace(worker_pause=PAUSE)
        args = (key_lists, batching, plan, cached, seed)
        live = _observed(_live(*args))
        simulated = _observed(_simulated(*args))
        for key in live:
            assert live[key] == simulated[key], key
        # Who was charged is exactly who missed, errored members too.
        for (_, _, charged), hits in zip(live["windows"], live["hits"]):
            assert charged == [i for i, hit in enumerate(hits) if not hit]

    def test_store_position_is_the_one_difference(self):
        """A key carried twice in one window: the simulator stores the
        first member's miss at lookup, so the second hits; live stores
        after the call, so the second misses too and is charged."""
        args = ([[7, 7]], BatchPolicy(2, 0.0), None, True, 0)
        live = _observed(_live(*args))
        simulated = _observed(_simulated(*args))
        assert live["outcomes"] == [["served", "served"]]
        assert live["windows"] == [(False, 0, [0, 1])]
        assert simulated["outcomes"] == [["served", "hit"]]
        assert simulated["windows"] == [(False, 1, [0])]
        lookups = [
            (kind, member) for kind, _, _, _, member in live["events"]
            if kind.startswith("cache_")
        ]
        assert lookups == [("cache_miss", (0, 0)), ("cache_miss", (0, 1))]
        assert [
            (kind, member) for kind, _, _, _, member in simulated["events"]
            if kind.startswith("cache_")
        ] == [("cache_miss", (0, 0)), ("cache_hit", (0, 1))]
