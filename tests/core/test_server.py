"""Tests for the worker-pool server."""

import threading
import time

import pytest

from repro.batching import BatchPolicy
from repro.core import Request, RequestQueue, Server, VirtualClock, WallClock
from repro.faults import INJECTED_APP_ERROR, FaultInjector, FaultPlan
from repro.obs.trace import Tracer


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


class TestInjectedErrorText:
    """One plan, one ``request.error`` text: both clocks, batched or not."""

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
        import random

        from repro.sim import Engine, ServiceTimeModel, SimulatedServer
        from repro.sim.network_model import NETWORK_MODELS
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
