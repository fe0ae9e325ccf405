"""What a live run and a simulated run have in common.

:func:`repro.core.harness.run_harness` drives real threads under the
wall clock and :func:`repro.sim.simulate_load` drives events under a
virtual one, but both assemble the same optional subsystems from the
same :class:`~repro.core.config.RunConfig` and report the same
measurements. That common part lives here once: :class:`RunParts`
builds the clock-independent pieces of a run and packages its shared
result fields; :class:`RunResult` owns those fields, their accessors
and the report tail under both :class:`~repro.core.harness.HarnessResult`
and :class:`repro.sim.SimResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..faults import FaultInjector
from ..stats import LatencySummary
from .balancer import make_balancer
from .collector import CollectedStats, StatsCollector
from .config import RunConfig
from .resilience import ResilientClient
from .scheduler import every, lock_for
from .traffic import ArrivalSchedule, DeterministicArrivals, PoissonArrivals

__all__ = ["RunParts", "RunResult"]


@dataclass(frozen=True)
class RunResult:
    """The measurements every run reports, live or simulated."""

    config: RunConfig
    stats: CollectedStats
    offered_qps: float
    outcomes: Dict[str, int] = field(default_factory=dict)
    goodput_qps: float = 0.0
    fault_counts: Dict[str, int] = field(default_factory=dict)
    #: Workers still serving per server instance at run end; injected
    #: crashes decrement, so capacity loss is observable.
    alive_workers: Tuple[int, ...] = ()
    #: Requests routed to each server instance by the balancer
    #: (lifetime assignments, including warmup and failed attempts).
    routed_counts: Tuple[int, ...] = ()
    #: Observability artifacts (trace events, metric series, snapshot);
    #: None unless ``config.observability.tracing`` was enabled.
    obs: Optional[object] = None
    #: Control-plane tallies (ticks, admitted, per-cause drops, final
    #: AIMD limit, scale actions); empty unless control was enabled.
    control_counts: Dict[str, int] = field(default_factory=dict)
    #: Health-layer tallies (ejections, readmissions, probes, breaker
    #: transitions, retry-budget spends/denials); empty unless
    #: ``config.health.enabled``.
    health_counts: Dict[str, int] = field(default_factory=dict)
    #: Per-shard leaf latencies and critical-shard attribution
    #: (:class:`repro.core.fanout.FanoutStats`); None unless
    #: ``config.fanout.enabled``.
    fanout: Optional[object] = None
    #: Caching-tier tallies (hits, misses, expirations, evictions,
    #: rejections); empty unless ``config.cache.enabled``.
    cache_counts: Dict[str, int] = field(default_factory=dict)
    #: Per-instance ``(server_id, completions, active_seconds)``. The
    #: active window runs from the instance joining the replica set (or
    #: run start, for the initial set) until it drained (or run end) —
    #: so per-server rates stay honest under autoscaling membership
    #: churn instead of dividing a late replica's completions by the
    #: whole run.
    server_activity: Tuple[Tuple[int, int, float], ...] = ()

    def per_server_qps(self) -> Dict[int, float]:
        """Completions per second of *active window*, per instance."""
        return {
            server_id: (completed / active if active > 0 else 0.0)
            for server_id, completed, active in self.server_activity
        }

    @property
    def sojourn(self) -> LatencySummary:
        return self.stats.summary("sojourn")

    @property
    def service(self) -> LatencySummary:
        return self.stats.summary("service")

    @property
    def queue(self) -> LatencySummary:
        return self.stats.summary("queue")

    @property
    def attempt_latency(self) -> LatencySummary:
        """Per-attempt latency summary (every attempt with a response)."""
        return self.stats.attempt_summary()

    def per_server(self, metric: str = "sojourn") -> Dict[int, LatencySummary]:
        """Per-instance latency summaries (see CollectedStats.per_server)."""
        return self.stats.per_server(metric)

    @property
    def retry_amplification(self) -> float:
        """Attempts sent per logical request offered (1.0 = no retries)."""
        offered = self.outcomes.get("offered", 0)
        attempts = self.outcomes.get("attempts", 0)
        if offered == 0 or attempts == 0:
            return 1.0
        return attempts / offered

    @property
    def success_rate(self) -> float:
        """Fraction of offered logical requests that met their deadline."""
        offered = self.outcomes.get("offered", 0)
        if offered == 0:
            return 1.0
        return self.outcomes.get("succeeded", 0) / offered

    def fingerprint(self) -> tuple:
        """The bit-identity triple ``(samples, outcomes, routed_counts)``.

        What every "feature off ≡ baseline" and "same seed ≡ same run"
        claim compares: measured sojourn samples (rounded to 1e-12 s),
        the outcome tallies and the per-server routing counts.
        """
        return (
            tuple(round(x, 12) for x in self.stats.samples()),
            dict(self.outcomes),
            tuple(self.routed_counts),
        )

    def _describe_tail(self) -> List[str]:
        """Report lines after the clock-specific head, in one order:
        topology, per-server, fanout, control, cache, health, outcomes."""
        lines = []
        if self.config.n_servers > 1:
            lines.append(
                f"topology: {self.config.n_servers} servers "
                f"balancer={self.config.balancer} "
                f"routed={list(self.routed_counts)} "
                f"alive_workers={list(self.alive_workers)}"
            )
            for server_id, summary in sorted(self.per_server().items()):
                lines.append(
                    f"  server[{server_id}]: {summary.describe()}"
                )
        if self.fanout is not None:
            f = self.fanout
            lines.append(
                f"fanout: {f.shards} shards merged={f.completed} "
                f"failed={f.failed} critical={f.critical_counts}"
            )
        if self.control_counts:
            c = self.control_counts
            lines.append(
                f"control: ticks={c.get('ticks', 0)} "
                f"admitted={c.get('admitted', 0)} "
                f"codel_dropped={c.get('codel_dropped', 0)} "
                f"limit_dropped={c.get('limit_dropped', 0)} "
                f"scale_ups={c.get('scale_ups', 0)} "
                f"scale_downs={c.get('scale_downs', 0)} "
                f"active_servers={c.get('active_servers', 0)}"
            )
        if self.cache_counts:
            cc = self.cache_counts
            keyed = cc.get("hits", 0) + cc.get("misses", 0)
            rate = cc.get("hits", 0) / keyed if keyed else 0.0
            lines.append(
                f"cache: hit_rate={rate:.1%} hits={cc.get('hits', 0)} "
                f"misses={cc.get('misses', 0)} "
                f"expirations={cc.get('expirations', 0)} "
                f"evictions={cc.get('evictions', 0)}"
            )
        if self.health_counts:
            h = self.health_counts
            lines.append(
                f"health: ejections={h.get('ejections', 0)} "
                f"readmissions={h.get('readmissions', 0)} "
                f"probes={h.get('probes', 0)} "
                f"breaker_opens={h.get('breaker_opens', 0)} "
                f"retries_denied={h.get('retries_denied', 0)}"
            )
        if self.outcomes:
            o = self.outcomes
            lines.append(
                f"goodput_qps={self.goodput_qps:.1f} "
                f"succeeded={o.get('succeeded', 0)} "
                f"timed_out={o.get('timed_out', 0)} "
                f"failed={o.get('failed', 0)} shed={o.get('shed', 0)} "
                f"retries={o.get('retries', 0)} "
                f"amplification={self.retry_amplification:.2f}"
            )
        return lines


class RunParts:
    """The clock-independent pieces of one run, built from its config.

    Construction is the shared head of ``run_harness`` and
    ``simulate_load``: the collector, the fault injector, the arrival
    schedule and every enabled optional subsystem (``None`` where
    disabled). Optional packages are imported only when their switch
    is on, so a default run never touches obs / control / batching /
    health / cache beyond their config dataclasses. :meth:`wire`
    connects those pieces to the run's transport — the one wiring step
    of both clocks — :meth:`start` / :meth:`stop` bracket the run's
    time-driven work, and :meth:`finish` is the shared tail.
    """

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        # A load profile measures everything (the transient response to
        # the load change *is* the experiment); steady-state runs keep
        # the warmup-discard methodology.
        self.warmup = (
            0 if config.load_profile is not None else config.warmup_requests
        )
        self.collector = StatsCollector(warmup_requests=self.warmup)
        self.injector: Optional[FaultInjector] = None
        faults = config.faults
        if config.scenario is not None or (
            faults is not None and not faults.is_noop
        ):
            self.injector = FaultInjector(
                faults, seed=config.seed, scenario=config.scenario
            )
        if config.load_profile is not None:
            self.schedule = ArrivalSchedule.piecewise(
                config.load_profile,
                seed=config.seed,
                deterministic=config.deterministic_arrivals,
            )
            profile_time = sum(d for d, _ in config.load_profile)
            self.offered_qps = len(self.schedule) / profile_time
        else:
            process = (
                DeterministicArrivals(config.qps)
                if config.deterministic_arrivals
                else PoissonArrivals(config.qps)
            )
            self.schedule = ArrivalSchedule.generate(
                process, config.total_requests, seed=config.seed
            )
            self.offered_qps = config.qps
        self.tracer = self.registry = None
        if config.observability.tracing:
            from ..obs import MetricsRegistry, Tracer

            self.tracer = Tracer(capacity=config.observability.trace_capacity)
            self.registry = MetricsRegistry()
        self.live = None
        if config.observability.slo.enabled:
            # Config validation guarantees tracing is on here. The
            # caller anchors the windows (``set_origin``) at run start.
            from ..obs.live import LiveObs

            self.live = LiveObs(
                config.observability.slo, tracer=self.tracer, seed=config.seed
            )
        self.plane = None
        if config.control.enabled:
            from ..control import ControlPlane

            self.plane = ControlPlane(
                config.control, seed=config.seed, tracer=self.tracer
            )
        self.batching = None
        if config.batching.enabled:
            from ..batching import BatchPolicy

            self.batching = BatchPolicy.from_config(config.batching)
        self.health = None
        if config.health.enabled:
            from ..health import HealthManager

            self.health = HealthManager(config.health, tracer=self.tracer)
        self.cache = None
        if config.cache.enabled:
            from ..cache import build_cache

            self.cache = build_cache(config.cache, tracer=self.tracer)
        # Set by :meth:`wire`.
        self.transport = None
        self.clock = None
        self.scheduler = None
        self.sampler = None
        self.client: Optional[ResilientClient] = None
        #: The gather point (:class:`~repro.core.fanout.FanoutGatherer`).
        self.fanout = None

    def wire(self, transport, app, clock, scheduler):
        """Start ``transport`` over ``app`` and connect every built part.

        The one wiring step of ``run_harness`` and ``simulate_load``:
        replicas, health routing, tracer and gauges, control target,
        the transport's two feed lists and its sink (DESIGN.md §5 "The
        order on the wire": each enabled feature appends its feeds, a
        disabled one is absent), and the client stack the arrivals go
        through — ``transport.send``, wrapped by the resilient client
        if resilience is on, wrapped by the fan-out client if fan-out
        is. Returns the top layer's ``send(generated_at, payload)``.
        ``scheduler`` is the run's one ``at/after/cancel`` timer source
        (:mod:`repro.core.scheduler`): the timer thread live, the
        engine in the simulator. Everything time-driven — recovery
        timers, fault-delayed sends, and what :meth:`start` schedules —
        runs on it.

        What is left to the caller is what differs between the clocks:
        what a replica is (the transport) and who drives arrivals.
        """
        config = self.config
        self.transport = transport
        self.clock = clock
        self.scheduler = scheduler
        # The driver says who shares them (DESIGN.md §4 "Who shares
        # state"): a lock each live, none under the simulator's engine.
        registry, live, plane, health = (
            self.registry, self.live, self.plane, self.health
        )
        for part in (self.collector, self.injector, health, self.cache):
            if part is not None:
                part.lock = lock_for(scheduler)
        if plane is not None:
            plane.take_locks(scheduler)
        transport.start(
            app,
            config.n_threads,
            self.collector,
            injector=self.injector,
            queue_capacity=config.queue_capacity,
            n_servers=config.n_servers,
            balancer=make_balancer(config.balancer, seed=config.seed),
            control=plane,
            batching=self.batching,
            cache=self.cache,
            scheduler=scheduler,
            health=health,
        )
        on_send, on_complete = [], []
        if plane is not None and config.control.priority is not None:
            on_send.append(plane.classify)
        if registry is not None:
            from ..obs import MetricsSampler

            # The load generator's health signal ("Tell-Tale Tail
            # Latencies"); registered ahead of the transport's gauges.
            delay = registry.histogram(
                "tb_send_delay_seconds",
                help="Client-side lag between ideal arrival and actual send",
            )
            on_send.append(
                lambda request: delay.observe(
                    request.sent_at - request.generated_at
                )
            )
            transport.set_observability(self.tracer, registry)
            for part in (self.injector, health, live, self.cache):
                if part is not None:
                    part.register_metrics(registry)
            self.sampler = MetricsSampler(
                registry, clock,
                interval=config.observability.metrics_interval,
            )
        if live is not None:
            # Send-anchored SLO accounting: an attempt burns budget in
            # the window it was dispatched, whether or not it ever
            # completes (a stalled replica must not hide its backlog).
            on_send.append(lambda request: live.observe_sent(request.sent_at))
            on_complete.append(live.observe)
        if plane is not None:
            from ..control import TransportControlTarget

            if config.control.admission is not None:
                on_complete.append(plane.observe_sojourn)
            plane.bind(TransportControlTarget(transport, plane))
            plane.register_metrics(registry)
        if health is not None:
            on_complete.append(health.observe)
        transport.on_send, transport.on_complete = (
            tuple(on_send), tuple(on_complete)
        )
        # The client stack, bottom-up: each layer wraps the send below
        # it, and the layer below reports what it resolved to the one
        # above. Exactly one object is the transport's sink.
        send = transport.send
        if config.resilience.enabled:
            self.client = ResilientClient(
                transport, clock, config.resilience, self.collector,
                seed=config.seed, tracer=self.tracer, health=health,
                scheduler=scheduler,
            )
            transport.sink = self.client.on_attempt_complete
            send = self.client.send
        if config.fanout.enabled:
            from .fanout import FanoutClient, FanoutGatherer

            beneath = self.client
            self.fanout = FanoutGatherer(
                config.fanout.shards,
                self.collector,
                merge=getattr(app, "merge_responses", None),
                warmup=self.warmup,
                tracer=self.tracer,
                record=beneath.record if beneath is not None else None,
            )
            self.fanout.lock = lock_for(scheduler)
            if beneath is not None:
                beneath.sink = self.fanout.leg_resolved
            else:
                transport.sink = self.fanout.on_complete
            send = FanoutClient(send, clock, self.fanout, self.tracer).send
        return send

    def start(self, started: float, until: Optional[float] = None) -> None:
        """Anchor the run at ``started`` and schedule what recurs in it.

        Stall windows, SLO window boundaries and the cache's
        cold-restart instant (``clear_at``) are all stated relative to
        ``started`` — wall-clock "now" live, virtual 0.0 in the
        simulator. On the run's scheduler go, in this order (it decides
        ties on the event heap): one plan swap per scenario phase
        boundary, a metrics sample every ``metrics_interval`` from
        ``started``, and a control tick every ``tick_interval`` — the
        first one interval in, since at the start there is nothing to
        observe. ``until`` bounds the two cadences (virtual time: the
        arrival horizon, so the event heap drains).
        """
        if self.injector is not None:
            self.injector.start_run(started)
        for part in (self.live, self.cache):
            if part is not None:
                part.set_origin(started)
        scheduler, clock, plane = self.scheduler, self.clock, self.plane
        if self.injector is not None:
            for offset in self.injector.boundaries():
                scheduler.at(
                    started + offset, self.injector.advance_to, offset
                )
        if self.sampler is not None:
            every(
                scheduler, self.sampler.interval, started,
                self.sampler.sample, until,
            )
        if plane is not None:
            interval = self.config.control.tick_interval
            every(
                scheduler, interval, started + interval,
                lambda: plane.tick(clock.now()), until,
            )

    def stop(self) -> None:
        """Close what the run left open, then the series' final point.

        Called once nothing fires any more (scheduler stopped, or
        engine run dry), at the run's last instant: a call or a gather
        still unresolved — a dropped attempt with no deadline to notice
        — will never resolve on its own, so it fails here, bottom layer
        first.
        """
        for layer in (self.client, self.fanout):
            if layer is not None:
                layer.fail_unresolved()
        if self.sampler is not None:
            self.sampler.sample()

    def topology(self) -> dict:
        """What the result reports of the transport's replicas."""
        transport = self.transport
        instances = transport.instances
        return dict(
            alive_workers=transport.alive_workers,
            routed_counts=tuple(instance.routed for instance in instances),
            instances=[
                (
                    instance.server_id,
                    instance.completed,
                    instance.started_at,
                    instance.drained_at,
                )
                for instance in instances
            ],
        )

    def finish(
        self,
        *,
        run_start: float,
        run_end: float,
        alive_workers: Tuple[int, ...],
        routed_counts: Tuple[int, ...],
        instances: Iterable[Tuple[int, int, float, Optional[float]]],
    ) -> dict:
        """The :class:`RunResult` fields of a finished run.

        The keyword arguments after the run window are
        :meth:`topology`'s: ``instances`` yields ``(server_id,
        completions, started_at, drained_at)`` per server instance.
        What the transport counted as shed and errored is used only
        when no resilience layer kept logical tallies itself.
        """
        config = self.config
        transport, sampler = self.transport, self.sampler
        elapsed = run_end - run_start
        obs = None
        if self.tracer is not None:
            from ..obs import ObsResult, prometheus_text

            obs = ObsResult(
                events=self.tracer.events(),
                dropped=self.tracer.dropped,
                series=sampler.series,
                snapshot=self.registry.snapshot(),
                prom=prometheus_text(self.registry),
                live=(
                    self.live.finish(run_end)
                    if self.live is not None
                    else None
                ),
            )
        stats = self.collector.snapshot()
        outcomes = self.collector.outcome_counts()
        # Offered is what the schedule held — under fan-out, gathers:
        # each costs `shards` attempts, so scatter amplification shows
        # up exactly where retry amplification would.
        outcomes["offered"] = len(self.schedule)
        if self.client is None:
            # No resilience layer ran: synthesize the logical tallies
            # from what the wire and the servers saw, so downstream
            # reporting is uniform.
            outcomes["attempts"] = transport.stats.sent
            outcomes["succeeded"] = stats.count + stats.dropped_warmup
            outcomes["errors"] = transport.stats.errored
            outcomes["shed"] = transport.stats.shed
        return dict(
            config=config,
            stats=stats,
            offered_qps=self.offered_qps,
            outcomes=outcomes,
            goodput_qps=(
                outcomes.get("succeeded", 0) / elapsed if elapsed > 0 else 0.0
            ),
            fault_counts=(
                dict(self.injector.counts())
                if self.injector is not None
                else {}
            ),
            alive_workers=alive_workers,
            routed_counts=routed_counts,
            obs=obs,
            fanout=self.fanout.stats if self.fanout is not None else None,
            control_counts=(
                self.plane.counts() if self.plane is not None else {}
            ),
            health_counts=(
                self.health.counts() if self.health is not None else {}
            ),
            cache_counts=(
                self.cache.counts() if self.cache is not None else {}
            ),
            # Each replica is charged only for its tenure: join (or run
            # start) until drain (or run end).
            server_activity=tuple(
                (
                    server_id,
                    completed,
                    max(
                        (drained_at if drained_at is not None else run_end)
                        - max(started_at, run_start),
                        0.0,
                    ),
                )
                for server_id, completed, started_at, drained_at in instances
            ),
        )
