"""Process-sharded execution: ProcessTransport, lifecycle, parity."""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.core import (
    ExecutionConfig,
    HarnessConfig,
    ReplicaRuntime,
    Scheduler,
    StatsCollector,
    WallClock,
)
from repro.core.harness import run_harness
from repro.core.scheduler import every
from repro.core.transport import ProcessTransport, make_transport
from repro.core.transport import process as process_module

from .test_harness import ConstantApp


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


class TestExecutionConfig:
    def test_default_is_threaded(self):
        assert HarnessConfig().execution.mode == "threaded"

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="execution mode"):
            ExecutionConfig(mode="gpu")

    def test_rejects_unknown_start_method(self):
        with pytest.raises(ValueError, match="start_method"):
            ExecutionConfig(start_method="forkserver")

    @pytest.mark.parametrize("field, value", [("drain_timeout", -1.0)])
    def test_rejects_nonpositive_timings(self, field, value):
        with pytest.raises(ValueError):
            ExecutionConfig(**{field: value})

    def test_process_requires_integrated(self):
        with pytest.raises(ValueError, match="integrated"):
            HarnessConfig(
                configuration="loopback",
                execution=ExecutionConfig(mode="process"),
            )

    def test_process_rejects_admission_control(self):
        from repro.control import AdmissionConfig, ControlPlaneConfig

        with pytest.raises(ValueError, match="autoscaler only"):
            HarnessConfig(
                execution=ExecutionConfig(mode="process"),
                control=ControlPlaneConfig(
                    enabled=True, admission=AdmissionConfig()
                ),
            )

    def test_process_rejects_scenarios(self):
        from repro.faults import FaultPhase, FaultPlan, Scenario

        scenario = Scenario(
            name="burst",
            phases=(
                FaultPhase(
                    start=0.0, duration=1.0,
                    plan=FaultPlan(error_rate=0.5),
                ),
            ),
        )
        with pytest.raises(ValueError, match="static fault plans"):
            HarnessConfig(
                execution=ExecutionConfig(mode="process"),
                scenario=scenario,
            )

    def test_make_transport_dispatches_on_execution(self):
        clock = WallClock()
        transport = make_transport(
            "integrated", clock, execution=ExecutionConfig(mode="process")
        )
        assert isinstance(transport, ProcessTransport)
        with pytest.raises(ValueError, match="integrated"):
            make_transport(
                "loopback", clock, execution=ExecutionConfig(mode="process")
            )


class TestReplicaRuntime:
    def test_assembles_and_serves(self):
        from repro.core import Request

        clock = WallClock()
        done = []
        runtime = ReplicaRuntime(
            ConstantApp(), clock, n_threads=2, respond=done.append
        )
        runtime.start()
        try:
            assert runtime.n_threads == 2
            assert runtime.alive_workers == 2
            request = Request(payload=None, generated_at=clock.now())
            request.sent_at = clock.now()
            assert runtime.submit(request)
            assert _wait_until(lambda: len(done) == 1)
            assert done[0].error is None
            assert done[0].service_end_at >= done[0].service_start_at
            assert runtime.queue_depth == 0
            assert runtime.errors == []
        finally:
            runtime.shutdown()

    def test_shed_when_queue_full(self):
        from repro.core import Request

        clock = WallClock()
        runtime = ReplicaRuntime(
            ConstantApp(), clock, n_threads=1, respond=lambda r: None,
            queue_capacity=1,
        )
        # Not started: nothing drains the queue, so the second offer
        # must shed.
        try:
            first = Request(payload=None, generated_at=clock.now())
            second = Request(payload=None, generated_at=clock.now())
            assert runtime.submit(first)
            assert not runtime.submit(second)
            assert second.shed
        finally:
            runtime.shutdown(discard_pending=True)


def _process_config(**overrides):
    defaults = dict(
        qps=800,
        warmup_requests=20,
        measure_requests=200,
        n_threads=2,
        seed=3,
        execution=ExecutionConfig(mode="process"),
    )
    defaults.update(overrides)
    return HarnessConfig(**defaults)


class TestProcessHarness:
    def test_counts_and_chain(self):
        result = run_harness(ConstantApp(), _process_config())
        assert result.stats.count == 200
        assert result.server_errors == ()
        # Reconstructed chains are validated by finish(); spot-check
        # the derived metrics are sane.
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
        # Same app, same load: latencies within a loose band (these are
        # wall-clock runs; the bound only catches gross misattribution
        # like seconds-scale clock-domain mixups).
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

    def test_child_fault_counts_merged(self):
        from repro.faults import FaultPlan

        result = run_harness(
            ConstantApp(),
            _process_config(faults=FaultPlan(error_rate=0.2)),
        )
        assert result.fault_counts.get("app_errors", 0) > 0
        # The child's worker tracebacks cross the pipe too (the server
        # deduplicates identical tracebacks, so presence not count).
        assert any("injected application error" in e
                   for e in result.server_errors)

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
        assert "batch_form" in kinds  # emitted in the child, relayed
        # Relayed events must carry the parent's request ids so they
        # join up with the parent-side span records.
        parent_ids = {
            e.request_id for e in result.obs.events if e.kind == "enqueued"
        }
        child_ids = {
            e.request_id for e in result.obs.events if e.kind == "batch_form"
        }
        assert child_ids and child_ids <= parent_ids


class TestProcessLifecycle:
    def _start_transport(self, n_servers=1, execution=None, app=None):
        clock = WallClock()
        transport = ProcessTransport(
            clock, execution=execution or ExecutionConfig(mode="process")
        )
        collector = StatsCollector()
        transport.start(
            app or ConstantApp(), 1, collector, n_servers=n_servers
        )
        return clock, transport, collector

    def test_child_crash_surfaces_as_fault_not_hang(self):
        clock, transport, collector = self._start_transport(app=SlowApp())
        failures = []

        def sink(request):
            if request.error is not None:
                failures.append(request.error)
            transport.record(request)  # keep default accounting

        transport.sink = sink
        try:
            handle = transport.instances[0].server
            for _ in range(4):
                transport.send(clock.now(), None)
            os.kill(handle.process.pid, signal.SIGKILL)
            # Every in-flight request must resolve (as an error), and
            # drain must come back promptly instead of hanging.
            transport.drain(timeout=10.0)
            assert handle.dead
            assert transport.stats.errored >= 3  # ≤1 was mid-service
            assert any("crashed" in e for e in failures)
            # Post-crash sends error out immediately, no hang.
            transport.send(clock.now(), None)
            transport.drain(timeout=10.0)
            assert any("not running" in e for e in failures)
            assert transport.child_fault_counts().get("child_crashes") == 1
        finally:
            transport.stop()

    def test_scale_down_joins_process_within_drain_deadline(self):
        execution = ExecutionConfig(mode="process", drain_timeout=5.0)
        clock, transport, collector = self._start_transport(
            n_servers=2, execution=execution
        )
        try:
            victim = transport.instances[1].server
            assert victim.process.is_alive()
            for _ in range(8):
                transport.send(clock.now(), None)
            transport.drain(timeout=10.0)
            drained_id = transport.drain_server()
            assert drained_id == 1
            assert _wait_until(
                lambda: not victim.process.is_alive(),
                timeout=execution.drain_timeout,
            ), "drained replica process still alive past the deadline"
            # The surviving replica keeps serving.
            transport.send(clock.now(), None)
            transport.drain(timeout=10.0)
            assert transport.stats.completed >= 9
        finally:
            transport.stop()

    def test_scale_up_forks_new_replica(self):
        clock, transport, collector = self._start_transport(n_servers=1)
        try:
            new_id = transport.add_server()
            assert new_id == 1
            newcomer = transport.instances[1].server
            assert newcomer.process.is_alive()
            for _ in range(8):
                transport.send(clock.now(), None)
            transport.drain(timeout=10.0)
            assert transport.instances[1].routed > 0
        finally:
            transport.stop()

    def test_scale_up_does_not_hold_the_timer_thread(self, monkeypatch):
        """An autoscaler tick runs on the run's timer thread: the fork
        it triggers must not make every other timer sit out the new
        child's start-up handshake."""
        clock, transport, collector = self._start_transport(n_servers=1)
        real_main = process_module._replica_main

        def slow_to_come_up(*args):
            time.sleep(0.3)
            real_main(*args)

        # Forked children inherit the patch; the initial replica above
        # came up normally.
        monkeypatch.setattr(process_module, "_replica_main", slow_to_come_up)
        scheduler = Scheduler(clock)
        fires, added = [], []
        try:
            every(
                scheduler, 0.002, clock.now(),
                lambda: fires.append(clock.now()),
            )
            scheduler.after(
                0.02, lambda: added.append(transport.add_server())
            )
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

    def test_stop_reaps_all_children(self):
        clock, transport, collector = self._start_transport(n_servers=2)
        pids = [
            instance.server.process.pid for instance in transport.instances
        ]
        transport.send(clock.now(), None)
        transport.drain(timeout=10.0)
        transport.stop()
        for pid in pids:
            assert _wait_until(
                lambda: not _pid_alive(pid), timeout=5.0
            ), f"replica pid {pid} survived transport.stop()"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    # Still a zombie? Reaped children of *this* process show up here
    # until waited; multiprocessing joins them, so existence means live.
    return True


_SIGTERM_SCRIPT = textwrap.dedent("""
    import sys, threading, time
    from repro.core import ExecutionConfig, StatsCollector, WallClock
    from repro.core.transport import ProcessTransport

    class App:
        def setup(self): pass
        def process(self, payload): return payload
        def make_client(self, seed=0):
            class C:
                def next_request(self): return None
            return C()

    clock = WallClock()
    transport = ProcessTransport(clock, ExecutionConfig(mode="process"))
    transport.start(App(), 1, StatsCollector(), n_servers=2)
    pids = [i.server.process.pid for i in transport.instances]
    print("PIDS " + " ".join(str(p) for p in pids), flush=True)
    time.sleep(60)
""")


class TestSigtermReaping:
    def test_sigterm_reaps_children(self, tmp_path):
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
            assert pids and all(_pid_alive(pid) for pid in pids)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) != 0
            assert _wait_until(
                lambda: not any(_pid_alive(pid) for pid in pids),
                timeout=10.0,
            ), "replica processes survived SIGTERM of the harness"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=5)
