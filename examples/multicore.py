"""Application calls in child processes: escaping the GIL with one flag.

Every threaded topology in this harness shares one Python interpreter,
so the GIL caps aggregate *application* work at roughly one core no
matter how many replicas the topology declares. Flipping

    execution=ExecutionConfig(mode="process")

gives each worker thread a child process of its own and sends only the
application call there: the shaper, balancer, queues, workers,
collector and per-server attribution stay in the harness process, but
application work now executes on separate cores.

This example runs the same img-dnn workload at 1 and N single-threaded
replicas in both execution modes and prints the achieved-throughput
scaling. On a multi-core machine the process column scales with the
replica count while the threaded column stays flat; on a 1-core
machine both stay flat (there is nothing to scale onto) but the
attribution table shows the replicas each served their share.

Run:  PYTHONPATH=src python examples/multicore.py
"""

import os

from repro.apps import create_app
from repro.core import ExecutionConfig, HarnessConfig, run_harness

#: Replicas in the scaled topology (match to your core count).
N_REPLICAS = min(4, os.cpu_count() or 1)
#: Offered load relative to nominal capacity (oversubscribed so the
#: achieved rate reports what the topology can actually sustain).
OVERSUBSCRIBE = 1.5


def measure(app, n_servers: int, mode: str, capacity_qps: float):
    config = HarnessConfig(
        qps=capacity_qps * n_servers * OVERSUBSCRIBE,
        warmup_requests=50,
        measure_requests=400 * n_servers,
        n_threads=1,
        n_servers=n_servers,
        balancer="round_robin",
        seed=11,
        execution=ExecutionConfig(mode=mode),
    )
    return run_harness(app, config)


def main() -> None:
    app = create_app("img-dnn", train_samples=300, epochs=3)
    app.setup()

    # Rough capacity probe: single replica, threaded.
    probe = measure(app, 1, "threaded", capacity_qps=2000.0)
    capacity = probe.achieved_qps

    print(f"img-dnn, single-threaded replicas, {os.cpu_count()} core(s)")
    print(f"{'replicas':>8} {'mode':>9} {'achieved qps':>13} {'speedup':>8}")
    base = {}
    for mode in ("threaded", "process"):
        for n_servers in sorted({1, N_REPLICAS}):
            result = measure(app, n_servers, mode, capacity)
            if n_servers == 1:
                base[mode] = result.achieved_qps
            speedup = result.achieved_qps / base[mode]
            print(
                f"{n_servers:>8} {mode:>9} {result.achieved_qps:>13.1f} "
                f"{speedup:>8.2f}"
            )
            per = result.stats.per_server()
            split = {sid: s.count for sid, s in sorted(per.items())}
            print(f"{'':>8} per-replica counts: {split}")
    print()
    print("The send-lag audit (coordinated-omission check) for the last run:")
    for key, value in result.stats.send_audit().items():
        print(f"  {key} = {value * 1e3:.3f} ms")


if __name__ == "__main__":
    main()
