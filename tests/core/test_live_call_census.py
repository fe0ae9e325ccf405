"""What one live request costs in Python calls, counted.

The traffic shaper's sends and then the worker's drain of a null-app
flood are replayed on one thread (no worker thread is started) under
``sys.setprofile``, so every Python frame a request runs is seen
(DESIGN.md §4 "Who shares state"). Deterministic: the same calls run
whatever the timing.
"""

import collections
import os
import sys
import threading

from repro.core import HarnessConfig, WallClock, clock as clock_module
from repro.core.run import RunParts
from repro.core.scheduler import Scheduler
from repro.core.server import Server
from repro.core.traffic import TrafficShaper
from repro.core.transport import make_transport

N = 500
#: The whole per-request budget of this replay: 8 calls on the shaper,
#: 12 on the worker, and two to spare.
CALL_BUDGET = 22


class _NullApp:
    def setup(self):
        pass

    def process(self, payload):
        return payload


def _replay(monkeypatch, profile):
    """Send ``N`` flood requests, then serve them, under ``profile``."""
    monkeypatch.setattr(Server, "start", lambda self: None)
    config = HarnessConfig(
        qps=1e6, deterministic_arrivals=True, n_threads=1,
        warmup_requests=0, measure_requests=N, seed=1,
    )
    clock = WallClock()
    parts = RunParts(config)
    transport = make_transport("integrated", clock)
    send = parts.wire(transport, _NullApp(), clock, Scheduler(clock))
    shaper = TrafficShaper(clock, parts.schedule)
    instance = transport.instances[0]
    sys.setprofile(profile)
    try:
        shaper.run(send, list(range(N)))
        instance.queue.close()
        instance.server._worker_loop()
    finally:
        sys.setprofile(None)
    transport.drain(timeout=1.0)
    transport.stop()
    assert parts.collector.snapshot().count == N


def _frames(monkeypatch):
    """(file name, function name) of every Python call the replay runs."""
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[os.path.basename(code.co_filename), code.co_name] += 1

    _replay(monkeypatch, profile)
    return calls


class TestLiveCallCensus:
    def test_no_condition_method_runs_when_nobody_waits(self, monkeypatch):
        calls = _frames(monkeypatch)
        threading_file = os.path.basename(threading.__file__)
        condition_calls = {
            name: n for (file, name), n in calls.items()
            if file == threading_file
        }
        # Only close's ``with`` and notify_all, once: none per request.
        assert "notify_all" in condition_calls
        assert set(condition_calls.values()) == {1}

    def test_the_wall_clock_runs_no_python_but_its_wait(self, monkeypatch):
        calls = _frames(monkeypatch)
        clock_file = os.path.basename(clock_module.__file__)
        assert {
            name for (file, name) in calls if file == clock_file
        } == {"sleep_until"}

    def test_a_request_stays_within_its_call_budget(self, monkeypatch):
        calls = _frames(monkeypatch)
        assert sum(calls.values()) <= CALL_BUDGET * N

    def test_four_lock_sections_none_entered_with_with(self, monkeypatch):
        entries = collections.Counter()
        real_lock = threading.Lock

        class Watched:
            def __init__(self):
                self._real = real_lock()

            def __enter__(self):
                return self._real.__enter__()

            def __exit__(self, *exc):
                return self._real.__exit__(*exc)

            def acquire(self, *args):
                return self._real.acquire(*args)

            def release(self):
                return self._real.release()

        monkeypatch.setattr(threading, "Lock", Watched)
        this_file = __file__

        def profile(frame, event, arg):
            code = frame.f_code
            if (
                event == "call"
                and code.co_filename == this_file
                and code.co_name in ("__enter__", "acquire")
            ):
                caller = frame.f_back.f_code.co_name
                entries[caller, code.co_name] += 1

        _replay(monkeypatch, profile)
        per_request = {
            key: n for key, n in entries.items() if n >= N
        }
        # put, take, and the transport's two counts: one acquire each
        # (and one more take, which finds the queue closed).
        assert per_request == {
            ("put", "acquire"): N,
            ("_take", "acquire"): N + 1,
            ("_count_sent", "acquire"): N,
            ("_count_answered", "acquire"): N,
        }
