"""Multi-core scaling of the process execution engine (img-dnn).

The GIL caps every threaded topology at roughly one core of aggregate
application work, no matter how many replicas the topology declares.
``ExecutionConfig(mode="process")`` moves each replica's worker pool
into its own OS process, so aggregate saturated throughput should
scale with replica count until the machine runs out of cores.

This benchmark measures saturated aggregate QPS of img-dnn at 1 and N
single-threaded process replicas and at N threaded ones (offered load
~60% above measured capacity, achieved throughput reported), N being
the machine's core count clamped to [2, 4], and asserts the scaling
floor of the acceptance criterion — ≥3x at 4 replicas — whenever the
machine actually has 4+ cores. On smaller machines the numbers are
still measured and rendered (the table's closing ``host:`` line says
what to make of them), but the floor is not asserted.

Run directly for a table::

    PYTHONPATH=src python benchmarks/bench_multicore.py [--replicas 4]

or through pytest (CI runs the 2-replica smoke)::

    PYTHONPATH=src python -m pytest benchmarks/bench_multicore.py -q
"""

import argparse
import os
import sys
import time

from repro.apps import create_app
from repro.core import ExecutionConfig, HarnessConfig, run_harness

_APP_KWARGS = dict(train_samples=300, epochs=3)
_CALIBRATE_OPS = 40
_OVERSUBSCRIBE = 1.6
#: Target per-request service time. One raw img-dnn inference is tens
#: of microseconds — IPC framing would dominate and the benchmark
#: would measure the pipe, not the substrate — so requests run a
#: calibrated ensemble of inferences sized to ~1 ms, the realistic
#: end of the app's latency range and large enough to amortize IPC.
_TARGET_SERVICE = 1e-3


class EnsembleApp:
    """img-dnn serving an ensemble: ``repeat`` inferences per request."""

    def __init__(self, app, repeat: int) -> None:
        self._app = app
        self.repeat = repeat

    def setup(self) -> None:
        self._app.setup()

    def process(self, payload):
        out = None
        for _ in range(self.repeat):
            out = self._app.process(payload)
        return out

    def make_client(self, seed: int = 0):
        return self._app.make_client(seed=seed)


def _build_app():
    app = create_app("img-dnn", **_APP_KWARGS)
    app.setup()
    single = _calibrate(app)
    return EnsembleApp(app, repeat=max(1, round(_TARGET_SERVICE / single)))


def _calibrate(app, seed: int = 0) -> float:
    """Measured single-thread service time (seconds/op)."""
    client = app.make_client(seed=seed)
    payloads = [client.next_request() for _ in range(_CALIBRATE_OPS)]
    for p in payloads[:5]:  # warm caches outside the timed window
        app.process(p)
    start = time.perf_counter()
    for p in payloads:
        app.process(p)
    return (time.perf_counter() - start) / len(payloads)


def measure_capacity(
    app,
    n_servers: int,
    mode: str,
    service_time: float,
    measure_requests: int = 600,
):
    """Achieved QPS under saturating open-loop load.

    Offered load is set ``_OVERSUBSCRIBE`` above the replicas' nominal
    capacity, so achieved throughput reports what the topology can
    actually sustain, not the offered rate.
    """
    qps = (n_servers / service_time) * _OVERSUBSCRIBE
    config = HarnessConfig(
        qps=qps,
        warmup_requests=max(40, measure_requests // 10),
        measure_requests=measure_requests,
        n_threads=1,
        n_servers=n_servers,
        balancer="round_robin",
        seed=7,
        execution=ExecutionConfig(mode=mode),
    )
    return run_harness(app, config)


def run_scaling(max_replicas: int = 4, measure_requests: int = 600):
    """The benchmark body: returns (rows, service_time)."""
    app = _build_app()
    service_time = _calibrate(app)
    rows = []
    for n_servers, mode in (
        (1, "process"),
        (max_replicas, "process"),
        (max_replicas, "threaded"),
    ):
        result = measure_capacity(
            app, n_servers, mode, service_time,
            measure_requests=measure_requests * n_servers,
        )
        rows.append((n_servers, mode, result))
    return rows, service_time


def render(rows, service_time: float) -> str:
    base_qps = rows[0][2].achieved_qps
    lines = [
        "multi-core scaling: img-dnn, single-threaded replicas, "
        f"service_time={service_time * 1e3:.2f} ms",
        f"{'replicas':>8} {'mode':>9} {'achieved qps':>13} "
        f"{'speedup':>8} {'p99 ms':>8}",
    ]
    for n_servers, mode, result in rows:
        p99 = result.sojourn.percentiles.get(99.0, float("nan"))
        lines.append(
            f"{n_servers:>8} {mode:>9} {result.achieved_qps:>13.1f} "
            f"{result.achieved_qps / base_qps:>8.2f} {p99 * 1e3:>8.2f}"
        )
    # What produced the table: the host, and the N-replica process
    # run's coordinated-omission audit (how late the shaper sent).
    n_many, mode, many = rows[1]
    audit = many.stats.send_audit()
    lines.append(
        f"host: cpu_count={os.cpu_count()} execution={mode}; "
        f"{n_many}-replica send lag "
        f"p99={audit['send_lag_p99_s'] * 1e3:.2f} ms "
        f"max={audit['send_lag_max_s'] * 1e3:.2f} ms"
    )
    return "\n".join(lines)


def _check_attribution(result, n_servers: int) -> None:
    per = result.stats.per_server()
    assert len(per) == n_servers, (
        f"expected records from {n_servers} replicas, got {sorted(per)}"
    )
    assert sum(s.count for s in per.values()) == result.stats.count
    assert not result.server_errors, result.server_errors[:3]


def test_multicore_scaling(save_result):
    """1 vs N process replicas; the ≥3x floor is asserted on 4+ cores."""
    n = max(2, min(4, os.cpu_count() or 1))
    rows, service_time = run_scaling(max_replicas=n)
    one, many = rows[0][2], rows[1][2]
    _check_attribution(one, 1)
    _check_attribution(many, n)
    speedup = many.achieved_qps / one.achieved_qps
    save_result("multicore", render(rows, service_time))
    if n == 4:
        assert speedup >= 3.0, (
            f"4 process replicas achieved only {speedup:.2f}x the "
            f"single-replica throughput on a {os.cpu_count()}-core machine"
        )


def test_multicore_smoke():
    """Fast 2-replica process-mode sanity: correct counts, no errors."""
    app = _build_app()
    service_time = _calibrate(app)
    result = measure_capacity(
        app, 2, "process", service_time, measure_requests=240
    )
    _check_attribution(result, 2)
    assert result.stats.count == 240
    if (os.cpu_count() or 1) >= 2:
        single = measure_capacity(
            app, 1, "process", service_time, measure_requests=120
        )
        assert result.achieved_qps > 1.15 * single.achieved_qps, (
            f"2 replicas: {result.achieved_qps:.0f} qps vs "
            f"{single.achieved_qps:.0f} on {os.cpu_count()} cores"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replicas", type=int, default=4)
    parser.add_argument("--measure", type=int, default=600,
                        help="measured requests per replica")
    args = parser.parse_args(argv)
    rows, service_time = run_scaling(
        max_replicas=args.replicas, measure_requests=args.measure
    )
    print(render(rows, service_time))
    return 0


if __name__ == "__main__":
    sys.exit(main())
