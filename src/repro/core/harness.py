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

from ..faults import ScenarioDriver, ScenarioInjector
from .balancer import make_balancer
from .clock import Clock, WallClock
from .config import HarnessConfig
from .resilience import ResilientClient
from .run import RunParts, RunResult
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
    # Subsystems are built before transport start so the control
    # plane's admission gates (built with the queues) can hold the
    # tracer; gauge registration happens after start, once the
    # instances exist.
    parts = RunParts(config)
    collector, injector, schedule = parts.collector, parts.injector, parts.schedule
    tracer, plane, health, cache = parts.tracer, parts.plane, parts.health, parts.cache
    transport = make_transport(
        config.configuration,
        clock,
        one_way_delay=config.one_way_delay,
        execution=config.execution,
    )
    shaper = TrafficShaper(clock, schedule)

    client = app.make_client(seed=config.seed)
    payloads: List = [client.next_request() for _ in range(len(schedule))]

    transport.start(
        app,
        config.n_threads,
        collector,
        injector=injector,
        queue_capacity=config.queue_capacity,
        n_servers=config.n_servers,
        balancer=make_balancer(config.balancer, seed=config.seed),
        control=plane,
        batching=parts.batching,
        cache=cache,
    )
    if health is not None:
        transport.set_health(health)
    sampler = loop = None
    if parts.registry is not None:
        transport.set_observability(tracer, parts.registry)
        if parts.live is not None:
            transport.set_live(parts.live)
        parts.register_metrics()
        sampler = parts.make_sampler(clock)
        sampler.start()
    if plane is not None:
        from ..control import ControlLoop, LiveControlTarget

        plane.bind(LiveControlTarget(transport, plane))
        plane.register_metrics(parts.registry)
        loop = ControlLoop(plane, clock)
        loop.start()
    resilient: Optional[ResilientClient] = None
    if config.resilience.enabled:
        resilient = ResilientClient(
            transport, clock, config.resilience, collector, seed=config.seed,
            tracer=tracer, health=health,
        )
    fanout_client = None
    if config.fanout.enabled:
        # Lazy import, same policy as the other optional subsystems.
        from .fanout import FanoutClient, FanoutGatherer

        merge = getattr(app, "merge_responses", None)
        if not callable(merge):
            raise TypeError(
                "fan-out needs a sharded application exposing "
                "merge_responses(partials) — see repro.apps.ShardedApp"
            )
        fanout_client = FanoutClient(
            transport,
            clock,
            FanoutGatherer(
                config.fanout.shards,
                collector,
                merge=merge,
                warmup=parts.warmup,
                tracer=tracer,
            ),
            tracer=tracer,
        )
    if injector is not None:
        injector.start_run(clock.now())
    driver: Optional[ScenarioDriver] = None
    if isinstance(injector, ScenarioInjector):
        driver = ScenarioDriver(injector, clock)
    if resilient is not None:
        send_fn = resilient.send
    elif fanout_client is not None:
        send_fn = fanout_client.send
    else:
        send_fn = transport.send
    started = clock.now()
    if parts.live is not None:
        # Window boundaries anchor at run start (the simulator anchors
        # at virtual 0.0), so alert timing is window-aligned.
        parts.live.set_origin(started)
    if cache is not None:
        # Same anchoring for the cold-restart instant (clear_at).
        cache.set_origin(started)
    if driver is not None:
        driver.start(started)
    try:
        _run_clients(clock, shaper, schedule, send_fn, payloads, config.n_clients)
        if resilient is not None:
            resilient.drain()
        else:
            transport.drain()
    finally:
        run_end = clock.now()
        alive_workers = transport.alive_workers
        instances = [
            (
                instance.server_id,
                instance.completed,
                instance.started_at,
                instance.drained_at,
            )
            for instance in transport.instances
        ]
        routed_counts = tuple(
            instance.routed for instance in transport.instances
        )
        if driver is not None:
            driver.stop()
        if loop is not None:
            loop.stop()
        if sampler is not None:
            sampler.stop()
        if resilient is not None:
            resilient.close()
        transport.stop()

    shared = parts.finish(
        run_start=started,
        run_end=run_end,
        sampler=sampler,
        shed=transport.stats.shed,
        errors=transport.stats.errored,
        alive_workers=alive_workers,
        routed_counts=routed_counts,
        instances=instances,
    )
    wall_time = run_end - started
    # Achieved throughput counts actual completions — responses the
    # servers produced (succeeded + failed), excluding shed rejections
    # — not offered requests: under saturation or shedding the offered
    # count would over-report what the system actually sustained.
    # Under fan-out the transport counts sub-requests, so logical
    # completions are the gathers that merged.
    if fanout_client is not None:
        completions = fanout_client.stats.completed
    else:
        completions = max(
            transport.stats.completed - transport.stats.shed, 0
        )
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
        fanout=fanout_client.stats if fanout_client is not None else None,
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
