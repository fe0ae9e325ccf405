"""Process mode: each worker thread calls the application in its own
child process, under every configuration; lifecycle and parity."""

import dataclasses
import itertools
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.apps.base import Application, Client
from repro.core import (
    ExecutionConfig,
    HarnessConfig,
    Scheduler,
    StatsCollector,
    WallClock,
)
from repro.core.harness import run_harness
from repro.core.scheduler import every
from repro.core.transport import make_transport
from repro.core.transport import process as process_module

from .test_harness import ConstantApp

PROCESS = ExecutionConfig(mode="process")


class SlowApp:
    """Sleeps long enough that requests are reliably in flight."""

    def __init__(self, delay=0.2):
        self.delay = delay

    def setup(self):
        pass

    def process(self, payload):
        time.sleep(self.delay)
        return payload

    def make_client(self, seed=0):
        class Client:
            def next_request(self):
                return None

        return Client()


def _wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _children(transport):
    return [
        process
        for instance in transport.instances
        for process in instance.children.processes
    ]


class TestExecutionConfig:
    def test_default_is_threaded(self):
        assert HarnessConfig().execution.mode == "threaded"

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="execution mode"):
            ExecutionConfig(mode="gpu")

    def test_rejects_unknown_start_method(self):
        with pytest.raises(ValueError, match="start_method"):
            ExecutionConfig(start_method="forkserver")

    def test_has_only_mode_and_start_method(self):
        assert [f.name for f in dataclasses.fields(ExecutionConfig)] == [
            "mode", "start_method",
        ]


def _process_config(**overrides):
    defaults = dict(
        qps=800,
        warmup_requests=20,
        measure_requests=200,
        n_threads=2,
        seed=3,
        execution=PROCESS,
    )
    defaults.update(overrides)
    return HarnessConfig(**defaults)


class _KeyedApp(Application):
    """Doubles an integer payload; the payload is its cache key."""

    name = "keyed"

    def setup(self):
        pass

    def process(self, payload):
        return 2 * payload

    def cache_key(self, payload):
        return payload

    def make_client(self, seed=0):
        keys = itertools.cycle(range(16))

        class _Keys(Client):
            def next_request(self):
                return next(keys)

        return _Keys()


class _RaisingApp(ConstantApp):
    def process(self, payload):
        raise ValueError("raised in the child")


class TestProcessHarness:
    def test_counts_and_chain(self):
        result = run_harness(ConstantApp(), _process_config())
        assert result.stats.count == 200
        assert result.server_errors == ()
        summary = result.sojourn
        assert summary.minimum > 0
        assert all(
            r.service_time >= 0 and r.queue_time >= 0
            for r in result.stats.records
        )

    def test_attribution_matches_threaded(self):
        """Same workload, both modes: counts identical, latencies sane."""
        app = ConstantApp()
        # No warmup: the discard is by completion order, so which
        # replica loses how many records to it depends on timing.
        split = dict(n_servers=2, balancer="round_robin", warmup_requests=0)
        threaded = run_harness(
            app,
            _process_config(execution=ExecutionConfig(mode="threaded"), **split),
        )
        process = run_harness(app, _process_config(**split))
        assert process.stats.count == threaded.stats.count
        per_t = threaded.stats.per_server()
        per_p = process.stats.per_server()
        assert sorted(per_p) == sorted(per_t)
        # Round-robin over identical replicas: identical split.
        for server_id in per_t:
            assert per_p[server_id].count == per_t[server_id].count
        # Wall-clock runs: the bound only catches gross misattribution.
        assert process.sojourn.percentiles[50.0] < 1.0
        assert threaded.sojourn.percentiles[50.0] < 1.0

    def test_send_lag_audit_reported(self):
        result = run_harness(ConstantApp(), _process_config())
        audit = result.stats.send_audit()
        assert set(audit) == {
            "send_lag_mean_s", "send_lag_p99_s", "send_lag_max_s"
        }
        assert audit["send_lag_max_s"] >= audit["send_lag_mean_s"] >= 0
        assert "send-lag audit" in result.describe()

    def test_injected_app_errors_reported(self):
        from repro.faults import FaultPlan

        result = run_harness(
            ConstantApp(),
            _process_config(faults=FaultPlan(error_rate=0.2)),
        )
        assert result.fault_counts.get("app_errors", 0) > 0
        assert any("injected application error" in e
                   for e in result.server_errors)

    def test_child_traceback_is_the_request_error(self):
        result = run_harness(_RaisingApp(), _process_config())
        assert result.outcomes["errors"] == 220
        assert result.outcomes["succeeded"] == 0
        assert all(
            "ValueError: raised in the child" in e
            for e in result.server_errors
        )

    def test_trace_events_forwarded_with_parent_ids(self):
        from repro.batching import BatchingConfig
        from repro.core.config import ObservabilityConfig

        result = run_harness(
            ConstantApp(),
            _process_config(
                observability=ObservabilityConfig(tracing=True),
                batching=BatchingConfig(
                    enabled=True, max_batch_size=4, max_batch_delay=0.002
                ),
            ),
        )
        assert result.stats.count == 200
        kinds = {e.kind for e in result.obs.events}
        assert "batch_form" in kinds
        parent_ids = {
            e.request_id for e in result.obs.events if e.kind == "enqueued"
        }
        batch_ids = {
            e.request_id for e in result.obs.events if e.kind == "batch_form"
        }
        assert batch_ids and batch_ids <= parent_ids

    def test_fault_decisions_match_threaded(self):
        """One replica, one worker, deterministic arrivals: the process
        run draws every fault from the streams the threaded run does."""
        from repro.faults import FaultPlan

        config = HarnessConfig(
            qps=400,
            warmup_requests=0,
            measure_requests=300,
            seed=11,
            deterministic_arrivals=True,
            faults=FaultPlan(
                error_rate=0.2, worker_pause_rate=0.2, worker_pause=0.0005
            ),
        )
        threaded = run_harness(ConstantApp(), config)
        process = run_harness(
            ConstantApp(), config.replace(execution=PROCESS)
        )
        assert threaded.fault_counts["app_errors"] > 0
        assert threaded.fault_counts["pauses"] > 0
        assert process.fault_counts == threaded.fault_counts
        assert process.outcomes == threaded.outcomes


@pytest.mark.parametrize("configuration", ["loopback", "networked"])
def test_process_mode_composes(configuration):
    """Admission + priority, a two-phase scenario, cache + batching and
    tracing, over real sockets: nothing of it leaves the parent."""
    from repro.batching import BatchingConfig
    from repro.control import (
        AdmissionConfig,
        ControlPlaneConfig,
        PriorityConfig,
        RequestClassSpec,
    )
    from repro.core import CacheConfig
    from repro.core.config import ObservabilityConfig
    from repro.faults import FaultPhase, FaultPlan, Scenario

    result = run_harness(_KeyedApp(), HarnessConfig(
        configuration=configuration,
        qps=1500,
        warmup_requests=100,
        measure_requests=1400,
        n_servers=2,
        n_threads=2,
        seed=5,
        execution=PROCESS,
        control=ControlPlaneConfig(
            enabled=True,
            admission=AdmissionConfig(),
            priority=PriorityConfig(classes=(
                RequestClassSpec("lc", priority=1, fraction=0.5),
                RequestClassSpec("batch", priority=0, fraction=0.5),
            )),
        ),
        faults=FaultPlan(error_rate=0.02),
        scenario=Scenario(name="two_phase", phases=(
            FaultPhase(0.2, 0.2, FaultPlan(error_rate=0.2), label="errors"),
            FaultPhase(0.5, 0.2, FaultPlan(error_rate=0.05), label="calm"),
        )),
        cache=CacheConfig(enabled=True, capacity=8),
        batching=BatchingConfig(
            enabled=True, max_batch_size=4, max_batch_delay=0.001
        ),
        observability=ObservabilityConfig(tracing=True),
    ))
    outcomes = result.outcomes
    # Conservation: every offered request was answered exactly once.
    assert outcomes["offered"] == outcomes["attempts"] == 1500
    assert outcomes["offered"] == (
        outcomes["succeeded"] + outcomes["errors"] + outcomes["shed"]
    )
    assert sum(result.routed_counts) == outcomes["attempts"]
    # Per-server attribution: both replicas served and sum to the whole.
    per_server = result.stats.per_server()
    assert sorted(per_server) == [0, 1]
    assert sum(s.count for s in per_server.values()) == result.stats.count
    assert result.cache_counts["hits"] > 0
    assert result.fault_counts["app_errors"] > 0
    assert result.fault_counts["phase_changes"] == 4
    # Events the parent's server stage emits name requests the trace
    # knows.
    events = result.obs.events
    enqueued = {e.request_id for e in events if e.kind == "enqueued"}
    stage = [
        e for e in events
        if e.kind == "batch_form" or e.kind.startswith("fault_")
    ]
    assert {e.kind for e in stage} >= {"batch_form", "fault_app_error"}
    assert all(e.request_id in enqueued for e in stage)


class _Stuck(Application):
    """An application whose call never returns (until released)."""

    def __init__(self, release):
        self.release = release

    def setup(self):
        pass

    def process(self, payload):
        self.release.wait()
        return payload


class _OneStuckReplica(Application):
    def __init__(self):
        self.release = threading.Event()

    def setup(self):
        pass

    def replica(self, server_id):
        return _Stuck(self.release) if server_id == 0 else ConstantApp()

    def make_client(self, seed=0):
        return ConstantApp().make_client(seed)


def _started(n_servers=1, app=None, execution=PROCESS, configuration="integrated"):
    clock = WallClock()
    transport = make_transport(configuration, clock)
    transport.execution = execution
    collector = StatsCollector()
    transport.start(app or ConstantApp(), 1, collector, n_servers=n_servers)
    return clock, transport


@pytest.mark.parametrize("mode", ["threaded", "process"])
def test_stop_finishes_the_teardown_when_a_worker_does_not_stop(mode):
    app = _OneStuckReplica()
    clock, transport = _started(
        n_servers=2, app=app, execution=ExecutionConfig(mode=mode),
        configuration="loopback",
    )
    try:
        transport.send(clock.now(), None, server_id=0)
        assert _wait_until(
            lambda: transport.instances[0].server.busy_workers == 1
        )
        began = time.monotonic()
        with pytest.raises(RuntimeError, match="failed to stop"):
            transport.stop(timeout=0.3)
        assert time.monotonic() - began < 5.0
        names = {thread.name for thread in threading.enumerate()}
        # The other replica's worker and every socket reader are gone.
        assert "tb-s1-worker-0" not in names
        assert not any(name.endswith("-recv") for name in names)
        with pytest.raises(RuntimeError, match="not started"):
            transport.send(clock.now(), None)
        if mode == "process":
            assert all(p.exitcode is not None for p in _children(transport))
    finally:
        app.release.set()


class TestProcessLifecycle:
    def test_child_crash_surfaces_as_fault_not_hang(self):
        clock, transport = _started(app=SlowApp())
        failures = []

        def sink(request):
            if request.error is not None:
                failures.append(request.error)
            transport.record(request)  # keep default accounting

        transport.sink = sink
        try:
            (child,) = _children(transport)
            for _ in range(4):
                transport.send(clock.now(), None)
            os.kill(child.pid, signal.SIGKILL)
            # Every in-flight and queued call resolves as an error, and
            # drain comes back instead of hanging.
            transport.drain(timeout=10.0)
            assert transport.stats.errored >= 3  # ≤1 was already served
            assert failures and all("exited" in e for e in failures)
            # A later call errors out too; the worker itself survives.
            transport.send(clock.now(), None)
            transport.drain(timeout=10.0)
            assert transport.stats.errored == len(failures) >= 4
            assert transport.alive_workers == (1,)
        finally:
            transport.stop()

    def test_scale_down_joins_process_within_drain_deadline(self):
        clock, transport = _started(n_servers=2)
        try:
            victims = transport.instances[1].children.processes
            assert all(p.is_alive() for p in victims)
            for _ in range(8):
                transport.send(clock.now(), None)
            transport.drain(timeout=10.0)
            assert transport.drain_server() == 1
            assert _wait_until(
                lambda: not any(p.is_alive() for p in victims), timeout=5.0
            ), "a drained replica's child is still alive"
            # The surviving replica keeps serving.
            transport.send(clock.now(), None)
            transport.drain(timeout=10.0)
            assert transport.stats.completed == 9
            assert transport.stats.errored == 0
        finally:
            transport.stop()

    def test_scale_up_forks_new_replica(self):
        clock, transport = _started(n_servers=1)
        try:
            assert transport.add_server() == 1
            newcomers = transport.instances[1].children.processes
            assert all(p.is_alive() for p in newcomers)
            for _ in range(8):
                transport.send(clock.now(), None)
            transport.drain(timeout=10.0)
            assert transport.instances[1].completed > 0
            assert transport.stats.errored == 0
        finally:
            transport.stop()

    def test_scale_up_does_not_hold_the_timer_thread(self, monkeypatch):
        """An autoscaler tick runs on the run's timer thread: the child
        it starts must not make every other timer wait for it to come
        up."""
        real_serve = process_module._serve

        def slow_to_come_up(*args):
            time.sleep(0.3)
            real_serve(*args)

        clock, transport = _started()
        # Forked children run the patch; the initial replica above
        # came up normally.
        monkeypatch.setattr(process_module, "_serve", slow_to_come_up)
        _assert_scale_up_keeps_timers(clock, transport)

    def test_spawned_scale_up_does_not_hold_the_timer_thread(self):
        # A spawned child is slow to come up on its own: a fresh
        # interpreter that imports the harness by name.
        clock, transport = _started(
            execution=ExecutionConfig(mode="process", start_method="spawn")
        )
        _assert_scale_up_keeps_timers(clock, transport)

    def test_stop_reaps_all_children(self):
        clock, transport = _started(n_servers=2)
        children = _children(transport)
        transport.send(clock.now(), None)
        transport.drain(timeout=10.0)
        transport.stop()
        assert len(children) == 2
        assert all(p.exitcode is not None for p in children)


def _assert_scale_up_keeps_timers(clock, transport):
    scheduler = Scheduler(clock)
    fires, added = [], []
    try:
        every(
            scheduler, 0.002, clock.now(), lambda: fires.append(clock.now())
        )
        scheduler.after(0.02, lambda: added.append(transport.add_server()))
        assert _wait_until(lambda: added, timeout=5.0)
        assert added == [1]
        # Work routed to the newcomer before it is up waits for it.
        transport.send(clock.now(), None, server_id=1)
        transport.drain(timeout=10.0)
        assert transport.instances[1].completed == 1
    finally:
        scheduler.stop()
        transport.stop()
    gaps = [later - sooner for sooner, later in zip(fires, fires[1:])]
    assert max(gaps) < 0.05, f"a 2 ms timer stalled {max(gaps):.3f} s"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


_SIGTERM_SCRIPT = textwrap.dedent("""
    import time
    from repro.core import ExecutionConfig, StatsCollector, WallClock
    from repro.core.transport import make_transport

    class App:
        def setup(self): pass
        def process(self, payload): return payload
        def make_client(self, seed=0):
            class C:
                def next_request(self): return None
            return C()

    transport = make_transport("integrated", WallClock())
    transport.execution = ExecutionConfig(mode="process")
    transport.start(App(), 2, StatsCollector(), n_servers=2)
    pids = [
        p.pid for i in transport.instances for p in i.children.processes
    ]
    print("PIDS " + " ".join(str(p) for p in pids), flush=True)
    time.sleep(60)
""")


class TestSigtermReaping:
    def test_sigterm_reaps_children(self, tmp_path):
        """The harness installs no handler: killed by SIGTERM, it closes
        its pipe ends, and every child exits on end-of-file (the harness
        is not their parent any more, so nobody reaps them as zombies —
        ``init`` does)."""
        script = tmp_path / "harness_under_test.py"
        script.write_text(_SIGTERM_SCRIPT)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline()
            assert line.startswith("PIDS "), line
            pids = [int(tok) for tok in line.split()[1:]]
            assert len(pids) == 4 and all(_pid_alive(pid) for pid in pids)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) != 0
            assert _wait_until(
                lambda: not any(_pid_alive(pid) for pid in pids),
                timeout=10.0,
            ), "child processes survived SIGTERM of the harness"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=5)
