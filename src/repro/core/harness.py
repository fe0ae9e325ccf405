"""End-to-end harness orchestration for live (wall-clock) runs.

``run_harness`` wires together the TailBench harness components of
Fig. 1 — application client, traffic shaper, transport, request queue,
worker pool, statistics collector — executes one warm measurement run,
and returns a :class:`HarnessResult`.

Runs may inject faults (``config.faults``) and recover from them
(``config.resilience``): the resilient client bounds each logical
request with a deadline, retries failures with jittered backoff, and
optionally hedges — with retries scheduled off the shaper thread so
the open-loop guarantee survives partial failure. The result then
distinguishes *achieved* throughput (completions) from *goodput*
(deadline-met completions) and reports success-only vs per-attempt
latency percentiles.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional

from .clock import Clock, WallClock
from .config import HarnessConfig
from .run import RunParts, RunResult
from .scheduler import Scheduler
from .traffic import ArrivalSchedule, TrafficShaper
from .transport import make_transport

__all__ = ["HarnessResult", "run_harness"]


@dataclass(frozen=True)
class HarnessResult(RunResult):
    """Outcome of one live measurement run."""

    achieved_qps: float = 0.0
    wall_time: float = 0.0
    server_errors: tuple = ()

    @property
    def saturated(self) -> bool:
        """Heuristic saturation flag: the server could not keep up.

        If achieved throughput fell more than 10% below offered load,
        the queue was growing without bound during the run.
        """
        return self.achieved_qps < 0.9 * self.offered_qps

    def describe(self) -> str:
        lines = [
            f"configuration={self.config.configuration} "
            f"qps={self.offered_qps:g} threads={self.config.n_threads}",
            f"achieved_qps={self.achieved_qps:.1f} "
            f"measured={self.stats.count} saturated={self.saturated}",
            f"sojourn: {self.sojourn.describe()}",
            f"service: {self.service.describe()}",
            f"queue:   {self.queue.describe()}",
        ]
        audit = self.stats.send_lag_summary()
        if audit is not None:
            p99 = audit.percentiles.get(99.0, audit.maximum)
            lines.append(
                "send-lag audit (coordinated omission): "
                f"p99={p99 * 1e3:.3f} ms max={audit.maximum * 1e3:.3f} ms"
            )
        return "\n".join(lines + self._describe_tail())


def run_harness(
    app,
    config: HarnessConfig,
    clock: Optional[Clock] = None,
) -> HarnessResult:
    """Execute one live load-testing run against ``app``.

    ``app`` implements the :class:`repro.apps.base.Application`
    interface and must already be set up (indexes built, tables
    loaded). The run generates ``config.total_requests`` requests at
    ``config.qps`` with exponential interarrival times, discards the
    warmup prefix, and measures the rest.
    """
    clock = clock or WallClock()
    if config.fanout.enabled and not callable(
        getattr(app, "merge_responses", None)
    ):
        raise TypeError(
            "fan-out needs a sharded application exposing "
            "merge_responses(partials) — see repro.apps.ShardedApp"
        )
    parts = RunParts(config)
    schedule = parts.schedule
    transport = make_transport(
        config.configuration,
        clock,
        one_way_delay=config.one_way_delay,
        execution=config.execution,
    )
    shaper = TrafficShaper(clock, schedule)

    client = app.make_client(seed=config.seed)
    payloads: List = [client.next_request() for _ in range(len(schedule))]

    # Time advances on its own under the wall clock: the run's one
    # timer thread fires what the simulator's engine fires as events
    # (and a run that schedules nothing never starts it).
    scheduler = Scheduler(clock)
    send_fn = parts.wire(transport, app, clock, scheduler)
    started = clock.now()
    parts.start(started)
    try:
        _run_clients(clock, shaper, schedule, send_fn, payloads, config.n_clients)
        # Until every logical call has resolved, or — with no client
        # layer counting them — every attempt has been answered.
        (parts.client or transport).drain()
    finally:
        run_end = clock.now()
        topology = parts.topology()
        try:
            # Timers first, so nothing fires into the teardown below;
            # re-raises what a timer callback raised during the run.
            scheduler.stop()
        finally:
            parts.stop()
            transport.stop()

    shared = parts.finish(run_start=started, run_end=run_end, **topology)
    wall_time = run_end - started
    # Achieved throughput counts actual completions — responses the
    # servers produced (succeeded + failed), excluding shed rejections
    # — not offered requests: under saturation or shedding the offered
    # count would over-report what the system actually sustained.
    completions = max(transport.stats.completed - transport.stats.shed, 0)
    child_counts = getattr(transport, "child_fault_counts", None)
    if callable(child_counts):
        # Process-mode replicas inject worker/app faults in their own
        # processes; merge what the children reported with the parent
        # injector's transport-level counts.
        fault_counts = shared["fault_counts"]
        for key, value in child_counts().items():
            fault_counts[key] = fault_counts.get(key, 0) + value
    return HarnessResult(
        achieved_qps=completions / wall_time if wall_time > 0 else 0.0,
        wall_time=wall_time,
        server_errors=tuple(transport.server_errors),
        **shared,
    )


def _run_clients(
    clock: Clock,
    shaper: TrafficShaper,
    schedule: ArrivalSchedule,
    send_fn,
    payloads: List,
    n_clients: int,
) -> None:
    """Drive the arrival schedule from one or many client threads.

    With multiple clients the schedule (and payload stream) is split
    round-robin, each share driven by its own shaper thread against a
    shared wall-clock anchor — the union of arrivals is the original
    schedule regardless of client count, so topology experiments vary
    submission concurrency without changing the offered process.
    """
    if n_clients == 1:
        shaper.run(send_fn, payloads)
        return
    base = clock.now() - schedule.times[0]
    errors: List[BaseException] = []

    def client(share_times: List[float], share_payloads: List) -> None:
        try:
            TrafficShaper(clock, ArrivalSchedule(share_times)).run(
                send_fn, share_payloads, base=base
            )
        except BaseException as exc:  # noqa: BLE001 - surfaced to caller
            errors.append(exc)

    threads = []
    for i in range(n_clients):
        share_times = schedule.times[i::n_clients]
        if not share_times:
            continue
        threads.append(
            threading.Thread(
                target=client,
                args=(share_times, payloads[i::n_clients]),
                name=f"tb-client-{i}",
                daemon=True,
            )
        )
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
