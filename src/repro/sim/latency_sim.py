"""Top-level virtual-time load testing.

:func:`simulate_load` is the simulator's counterpart of
:func:`repro.core.harness.run_harness`: same methodology (open-loop
Poisson arrivals, warmup discard, per-request timestamp chains), but
executed in virtual time against a calibrated or measured service-time
model. Deterministic given a seed, microsecond-exact, and fast — this
is the configuration the paper runs under zsim (Sec. VI).

Fault plans (``SimConfig.faults``) and resilience policies
(``SimConfig.resilience``) replay in virtual time through the live
harness's own :class:`~repro.core.resilience.ResilientClient` state
machine (deadlines, attempt timeouts, full-jitter backoff, hedging,
timer cancellation), scheduled on the engine instead of a timer
thread; :class:`_SimClient` only replaces its wire. Because the event
loop is single-threaded and every random draw comes from seeded
streams, the same plan replayed with the same seed yields
byte-identical results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..core.balancer import LoadBalancer, make_balancer, pick_active
from ..core.collector import StatsCollector
from ..core.config import RunConfig
from ..core.request import Request
from ..core.resilience import ResilienceConfig, ResilientClient, _Call
from ..core.run import RunParts, RunResult
from ..faults import FaultInjector, ScenarioInjector
from .calibration import AppProfile, paper_profile
from .engine import Engine
from .network_model import network_model_for
from .server_model import SimulatedServer

__all__ = ["SimConfig", "SimResult", "simulate_load", "simulate_app"]


@dataclass(frozen=True)
class SimConfig(RunConfig):
    """Parameters of one virtual-time measurement run.

    The shared fields are documented on
    :class:`repro.core.config.RunConfig`; the simulator keeps its own
    (larger) default run and adds the two model switches below. With
    the cache on, arrivals carry synthetic Zipfian keys drawn from a
    *dedicated* RNG stream and a hit substitutes ``hit_cost`` for the
    sampled service time — the sample is consumed either way, and the
    key stream simply never exists when disabled.
    """

    qps: float = 1000.0
    warmup_requests: int = 500
    measure_requests: int = 5000
    #: Model the zsim-simulated system (applies the profile's constant
    #: performance error) rather than the real machine.
    simulated_system: bool = False
    #: Idealized memory (zero-latency/infinite-bandwidth DRAM): removes
    #: memory-contention dilation, keeping synchronization overheads —
    #: the Sec. VII experiment.
    ideal_memory: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.cache.enabled and (
            self.resilience.enabled
            or self.health.enabled
            or self.faults is not None
            or self.scenario is not None
        ):
            # The simulated client submits keyless attempts (every
            # request would miss), which would silently defeat the
            # cache; reject rather than mislead. The live harness does
            # support these combinations — real apps key on real
            # payloads there.
            raise ValueError(
                "the simulator's synthetic key stream only feeds "
                "the direct and routed arrival paths; caching does "
                "not compose with resilience/health/faults in sim "
                "(use the live harness for those)"
            )


@dataclass(frozen=True)
class SimResult(RunResult):
    """Outcome of one virtual-time run."""

    profile_name: str = ""
    utilization: float = 0.0
    virtual_time: float = 0.0

    @property
    def saturated(self) -> bool:
        """Offered load at or beyond the server's service capacity."""
        return self.utilization >= 0.98

    def describe(self) -> str:
        lines = [
            f"{self.profile_name} [{self.config.configuration}] "
            f"qps={self.offered_qps:g} threads={self.config.n_threads} "
            f"util={self.utilization:.2f}",
            f"sojourn: {self.sojourn.describe()}",
        ]
        return "\n".join(lines + self._describe_tail())


class _Topology:
    """Routes attempts across N simulated servers through a balancer.

    Virtual-time mirror of the live transport's routing layer: tracks
    per-server ``outstanding`` (routed minus responded — the depth
    vector the balancer inspects, same signal as the live
    ``Transport.queue_depths``) and lifetime ``routed`` counts, and
    wraps each server's response callback so the slot is released when
    the response event fires. With one server the balancer is never
    consulted, so the single-server event/RNG streams are untouched.

    With a control plane the topology also owns runtime membership,
    mirroring the live transport: the server list is append-only
    (``add_server`` via ``server_factory``), removed replicas drain in
    place, and routing only ever targets the active subset (see
    :func:`repro.core.balancer.pick_active`).
    """

    def __init__(
        self,
        servers: List[SimulatedServer],
        balancer: LoadBalancer,
        engine: Optional[Engine] = None,
        server_factory: Optional[Callable[[int], SimulatedServer]] = None,
        plane=None,
        health=None,
    ) -> None:
        self._servers = servers
        self._balancer = balancer
        self._engine = engine
        self._factory = server_factory
        self._plane = plane
        self._health = health
        self._sink: Optional[Callable[[Request], None]] = None
        self._outstanding = [0] * len(servers)
        self.routed = [0] * len(servers)
        #: Hook run on every runtime-added server (gauge registration).
        self.on_server_added: Optional[Callable[[SimulatedServer], None]] = None

    @property
    def servers(self) -> List[SimulatedServer]:
        return list(self._servers)

    def server(self, server_id: int) -> SimulatedServer:
        return self._servers[server_id]

    def depths(self) -> List[int]:
        return list(self._outstanding)

    def active_ids(self) -> List[int]:
        return [
            server.server_id
            for server in self._servers
            if not server.draining
        ]

    def add_server(self) -> Optional[int]:
        """Grow the replica set by one at runtime (autoscale up)."""
        if self._factory is None:
            return None
        server_id = len(self._servers)
        server = self._factory(server_id)
        self._servers.append(server)
        self._outstanding.append(0)
        self.routed.append(0)
        if self._sink is not None:
            server.set_response_callback(self._sink)
        if self.on_server_added is not None:
            self.on_server_added(server)
        return server_id

    def drain_server(self) -> Optional[int]:
        """Stop routing to the youngest active replica (autoscale down).

        Work already queued on it still completes — the server object
        stays in place, exactly like the live transport's drain.
        """
        active = [s for s in self._servers if not s.draining]
        if len(active) <= 1:
            return None
        server = active[-1]
        server.draining = True
        server.drained_at = (
            self._engine.now if self._engine is not None else None
        )
        return server.server_id

    def submit_attempt(
        self,
        request: Request,
        extra_delay: float = 0.0,
        avoid: Optional[int] = None,
    ) -> int:
        """Route one attempt; returns the chosen server index.

        A request arriving with ``server_id`` already stamped (an
        injected duplicate shadowing its original) skips the balancer
        and lands on that server, as on the live wire.
        """
        if request.server_id is None:
            if self._plane is not None:
                self._plane.classify(request)
            if len(self._servers) == 1:
                request.server_id = 0
            elif self._health is not None:
                now = (
                    request.sent_at
                    if request.sent_at is not None
                    else request.generated_at
                )
                candidates, forced = self._health.route(
                    self.active_ids(), now
                )
                if forced:
                    # Probation probe / breaker trial: route directly.
                    request.server_id = candidates[0]
                else:
                    request.server_id = pick_active(
                        self._balancer, self.depths(), candidates,
                        avoid=avoid,
                    )
            else:
                request.server_id = pick_active(
                    self._balancer,
                    self.depths(),
                    self.active_ids(),
                    avoid=avoid,
                )
        server_id = request.server_id
        self._outstanding[server_id] += 1
        self.routed[server_id] += 1
        self._servers[server_id].submit_request(
            request, extra_delay=extra_delay
        )
        return server_id

    def set_response_callback(
        self, callback: Callable[[Request], None]
    ) -> None:
        """Install the client-side sink behind per-server settling."""

        def sink(request: Request) -> None:
            server_id = request.server_id or 0
            self._outstanding[server_id] = max(
                self._outstanding[server_id] - 1, 0
            )
            if (
                self._plane is not None
                and request.error is None
                and not request.shed
                and not request.discard
            ):
                # Same AIMD signal the live transport feeds: end-to-end
                # sojourn of every successful completion.
                self._plane.observe_sojourn(
                    request.response_received_at - request.generated_at
                )
            if (
                self._health is not None
                and not request.discard
                and request.server_id is not None
            ):
                # Same feed the live transport completion path gives
                # the health layer: every non-discarded response, ok or
                # not, attributed to the replica that served it.
                ok = request.error is None and not request.shed
                self._health.record_attempt(
                    request.server_id,
                    (
                        request.response_received_at - request.sent_at
                        if ok and request.sent_at is not None
                        else None
                    ),
                    ok,
                    request.response_received_at,
                )
            callback(request)

        self._sink = sink
        for server in self._servers:
            server.set_response_callback(sink)


class _SimControlTarget:
    """Bind the control plane to the simulated topology.

    Duck-typed :class:`repro.control.ControlTarget` (kept import-free
    so the control package loads only on controlled runs): controllers
    read virtual-time queue snapshots and load gauges and actuate
    runtime membership on the topology — the identical controller code
    that drives the live transport.
    """

    def __init__(self, topology: _Topology, plane) -> None:
        self._topology = topology
        self._plane = plane

    def active_servers(self) -> List[int]:
        return self._topology.active_ids()

    def queue_snapshot(self, server_id: int, now: float):
        return self._topology.server(server_id).queue_snapshot(now)

    def server_load(self, server_id: int) -> Tuple[int, int, int]:
        server = self._topology.server(server_id)
        return (server.queue_len, server.busy_workers, server.workers_alive)

    def gate(self, server_id: int):
        return self._plane.gate_for(server_id)

    def scale_up(self) -> Optional[int]:
        return self._topology.add_server()

    def scale_down(self) -> Optional[int]:
        return self._topology.drain_server()


class _SimClient(ResilientClient):
    """The one client state machine, on the simulator's wire.

    Everything above the wire — deadlines, attempt timeouts, retries
    with full-jitter backoff, hedges, first-response-wins resolution,
    late accounting, timer cancellation — is
    :class:`~repro.core.resilience.ResilientClient` itself, with the
    engine as its timer scheduler. Only the wire differs: there is no
    transport to corrupt, so each attempt becomes a :class:`Request`
    here, the injector's drop / delay / duplicate is applied inline,
    and the attempt goes to the topology. Every random draw comes from
    seeded streams and the engine is single-threaded, so a replay with
    the same seed is byte-identical.
    """

    def __init__(
        self,
        engine: Engine,
        topology: _Topology,
        config: ResilienceConfig,
        collector: StatsCollector,
        injector: Optional[FaultInjector],
        seed: int = 0,
        tracer=None,
        health=None,
    ) -> None:
        self._topology = topology
        self._injector = injector
        self._setup(
            engine, engine.clock, config, collector, seed, tracer, health
        )
        topology.set_response_callback(self._on_attempt_complete)

    def _put_on_wire(
        self, call: _Call, attempt_no: int, avoid: Optional[int]
    ) -> Optional[int]:
        tracer = self._tracer
        now = self._clock.now()
        duplicate = False
        extra_delay = 0.0
        if self._injector is not None:
            drop, duplicate, extra_delay = self._injector.transport_action()
            if drop:
                if tracer is not None:
                    # The live transport's dropped-attempt trail: the
                    # truncated chain plus an explicit fault marker.
                    tracer.emit("generated", call.generated_at,
                                logical_id=call.logical_id, attempt=attempt_no)
                    tracer.emit("sent", now, logical_id=call.logical_id,
                                attempt=attempt_no)
                    tracer.emit("fault_drop", now, logical_id=call.logical_id,
                                attempt=attempt_no)
                return None
        request = Request(
            payload=None,
            generated_at=call.generated_at,
            logical_id=call.logical_id,
            attempt=attempt_no,
            deadline=call.deadline,
        )
        request.sent_at = now
        if extra_delay > 0.0 and tracer is not None:
            tracer.emit(
                "fault_delay", now, logical_id=call.logical_id,
                request_id=request.request_id, attempt=attempt_no,
                value=extra_delay,
            )
        server_id = self._topology.submit_attempt(
            request, extra_delay=extra_delay, avoid=avoid
        )
        if duplicate:
            dup = Request(
                payload=None,
                generated_at=call.generated_at,
                logical_id=call.logical_id,
                attempt=attempt_no,
                deadline=call.deadline,
                discard=True,
            )
            dup.sent_at = now
            dup.server_id = server_id
            if tracer is not None:
                tracer.emit(
                    "fault_duplicate", now, logical_id=call.logical_id,
                    request_id=dup.request_id, attempt=attempt_no,
                    server_id=server_id,
                )
            self._topology.submit_attempt(dup, extra_delay=extra_delay)
        return server_id


def simulate_load(profile: AppProfile, config: SimConfig) -> SimResult:
    """Run one open-loop load test in virtual time."""
    network = network_model_for(config.configuration)
    service_model = profile.service_model(
        n_threads=config.n_threads,
        ideal_memory=config.ideal_memory,
        simulated_system=config.simulated_system,
        added_occupancy=network.server_occupancy,
    )
    engine = Engine()
    parts = RunParts(config)
    collector, injector, schedule = parts.collector, parts.injector, parts.schedule
    tracer, registry, plane = parts.tracer, parts.registry, parts.plane
    health, cache = parts.health, parts.cache
    if parts.live is not None:
        # Windows anchor at virtual t=0 — the simulator's run start — so
        # boundaries are deterministic and fault onsets alignable.
        parts.live.set_origin(0.0)
    next_cache_key = None
    if cache is not None:
        from ..stats import ZipfianGenerator

        # The synthetic key stream gets its own RNG, constructed only
        # here: a cache-off run draws nothing extra anywhere, so its
        # arrival schedule and per-server service streams — hence its
        # fingerprint — are untouched by this subsystem existing.
        key_rng = random.Random(config.seed ^ 0xCAC4ED)
        key_zipf = ZipfianGenerator(
            config.cache.sim_keyspace, theta=config.cache.sim_theta
        )

        def next_cache_key() -> int:
            return key_zipf.sample(key_rng)

    def make_server(server_id: int) -> SimulatedServer:
        # Server 0 keeps the pre-topology stream seed so n_servers=1
        # reproduces the original single-server simulator bit-for-bit;
        # replicas (including runtime scale-ups) draw from
        # independently seeded streams, so controlled runs stay
        # deterministic no matter when a replica joins.
        rng = random.Random((config.seed ^ 0x5EED) + 1_000_003 * server_id)
        scoped = (
            injector.for_server(server_id) if injector is not None else None
        )
        server = SimulatedServer(
            engine,
            service_model,
            network,
            config.n_threads,
            collector,
            rng,
            injector=scoped,
            queue_capacity=config.queue_capacity,
            server_id=server_id,
            tracer=tracer,
            gate=plane.gate_for(server_id) if plane is not None else None,
            buffer=plane.make_buffer() if plane is not None else None,
            batching=parts.batching,
            batch_marginal_cost=config.batching.sim_marginal_cost,
            live=parts.live,
            cache=cache,
        )
        server.started_at = engine.now
        return server

    servers: List[SimulatedServer] = [
        make_server(server_id) for server_id in range(config.n_servers)
    ]
    topology = _Topology(
        servers,
        make_balancer(config.balancer, seed=config.seed),
        engine=engine,
        server_factory=make_server if plane is not None else None,
        plane=plane,
        health=health,
    )
    if injector is not None:
        injector.start_run(0.0)
    if isinstance(injector, ScenarioInjector):
        # Phase boundaries become ordinary engine events — single
        # threaded playback, bit-identical per seed (the live harness
        # uses a driver thread at the same offsets).
        for offset in injector.scenario.boundaries():
            engine.at(offset, injector.advance_to, offset)
    parts.register_metrics()
    sampler = None
    if registry is not None:
        # Same gauge families the live transport registers, read lazily
        # from existing counters — sampling is a recurring virtual-time
        # event, not a thread, bounded by the arrival horizon so the
        # event heap still drains.
        def register_server_gauges(server: SimulatedServer) -> None:
            labels = {"server": str(server.server_id)}
            registry.gauge(
                "tb_queue_depth", help="Requests waiting in the queue",
                fn=(lambda s=server: s.queue_len), **labels,
            )
            registry.gauge(
                "tb_busy_workers", help="Workers currently serving",
                fn=(lambda s=server: s.busy_workers), **labels,
            )
            registry.gauge(
                "tb_alive_workers", help="Workers still alive",
                fn=(lambda s=server: s.workers_alive), **labels,
            )
            registry.gauge(
                "tb_completed_total", help="Responses produced",
                fn=(lambda s=server: s.completed), **labels,
            )
            registry.gauge(
                "tb_shed_total", help="Requests shed by admission control",
                fn=(lambda s=server: s.shed_count), **labels,
            )
            registry.gauge(
                "tb_outstanding", help="Attempts routed and not yet answered",
                fn=(
                    lambda t=topology, i=server.server_id: t.depths()[i]
                ),
                **labels,
            )

        for server in servers:
            register_server_gauges(server)
        topology.on_server_added = register_server_gauges
        registry.gauge(
            "tb_inflight", help="Attempts in flight across all servers",
            fn=(lambda t=topology: sum(t.depths())),
        )
        sampler = parts.make_sampler(engine.clock)
        horizon = schedule.times[-1]
        interval = config.observability.metrics_interval

        def tick() -> None:
            sampler.sample()
            if engine.now + interval <= horizon:
                engine.after(interval, tick)

        engine.at(0.0, tick)
    if plane is not None:
        plane.bind(_SimControlTarget(topology, plane))
        plane.register_metrics(registry)
        control_horizon = schedule.times[-1]
        tick_interval = config.control.tick_interval

        def control_tick() -> None:
            plane.tick(engine.now)
            if engine.now + tick_interval <= control_horizon:
                engine.after(tick_interval, control_tick)

        # First tick one interval in — at t=0 there is nothing to
        # observe; bounded by the arrival horizon so the heap drains.
        engine.at(tick_interval, control_tick)
    client: Optional[_SimClient] = None
    fanout_gatherer = None
    if injector is not None or config.resilience.enabled or health is not None:
        client = _SimClient(
            engine, topology, config.resilience, collector, injector,
            seed=config.seed, tracer=tracer, health=health,
        )
        for generated_at in schedule:
            engine.at(generated_at, client.send, generated_at, None)
    elif config.fanout.enabled:
        # Scatter-gather: every arrival pre-scheduled at build time
        # like the direct path — one pinned sub-request per shard, no
        # balancer draws, no routing events on the heap. At K=1 the
        # sub-request schedule, request construction order, and
        # per-server RNG streams coincide with the direct path's, so
        # an enabled fan-out of 1 replays the unsharded simulator
        # bit-for-bit; the gather callback merely renames the
        # completion path (the critical shard of a 1-wide gather is
        # the request itself).
        from ..core.fanout import FanoutGatherer

        fanout_gatherer = FanoutGatherer(
            config.fanout.shards, collector, merge=None,
            warmup=parts.warmup, tracer=tracer,
        )
        topology.set_response_callback(fanout_gatherer.on_complete)
        for generated_at in schedule:
            gather_id, pairs = fanout_gatherer.open_gather()
            for logical_id, shard in pairs:
                if tracer is not None:
                    tracer.emit(
                        "fanout_send", generated_at,
                        logical_id=logical_id, server_id=shard,
                        value=float(gather_id),
                    )
                request = Request(payload=None, generated_at=generated_at)
                request.logical_id = logical_id
                request.sent_at = generated_at
                request.server_id = shard
                topology.submit_attempt(request)
    elif config.n_servers == 1 and plane is None:
        # Original direct path: no routing events on the heap, so the
        # single-server event stream is byte-identical to before. With
        # the cache on, each arrival carries a key from the dedicated
        # Zipf stream; off, payload stays None and nothing is drawn.
        if next_cache_key is not None:
            for generated_at in schedule:
                servers[0].submit(generated_at, payload=next_cache_key())
        else:
            for generated_at in schedule:
                servers[0].submit(generated_at)
        topology.routed[0] = len(schedule)
    else:

        def record(request: Request) -> None:
            if (
                request.error is None
                and not request.shed
                and not request.discard
            ):
                collector.add(request.finish())

        topology.set_response_callback(record)

        def begin(generated_at: float) -> None:
            # Keys draw at the arrival event in schedule order — the
            # same deterministic sequence the direct path assigns.
            payload = (
                next_cache_key() if next_cache_key is not None else None
            )
            request = Request(payload=payload, generated_at=generated_at)
            request.sent_at = generated_at
            topology.submit_attempt(request)

        # The routing decision runs *at* the arrival instant, when the
        # depth vector reflects the simulated present — not at schedule
        # build time, when every queue is empty.
        for generated_at in schedule:
            engine.at(generated_at, begin, generated_at)
    engine.run()
    if client is not None:
        client.fail_unresolved()
    elapsed = engine.now
    if sampler is not None:
        sampler.sample()  # final sample at the run's last instant
    shared = parts.finish(
        run_start=0.0,
        run_end=elapsed,
        sampler=sampler,
        shed=sum(server.shed_count for server in servers),
        alive_workers=tuple(server.workers_alive for server in servers),
        routed_counts=tuple(topology.routed),
        instances=[
            (
                server.server_id,
                server.good_completed,
                server.started_at,
                server.drained_at,
            )
            for server in servers
        ],
    )
    total_busy = sum(server.busy_time for server in servers)
    # Capacity integrates each replica's *active window* — for a static
    # topology every window equals the whole run and this reduces to
    # elapsed * n_threads * n_servers; under autoscaling it charges a
    # late-joining or early-drained replica only for its tenure.
    capacity = sum(
        active * config.n_threads
        for _, _, active in shared["server_activity"]
    )
    return SimResult(
        profile_name=profile.name,
        utilization=total_busy / capacity if capacity > 0 else 0.0,
        virtual_time=elapsed,
        fanout=(
            fanout_gatherer.stats if fanout_gatherer is not None else None
        ),
        **shared,
    )


def simulate_app(name: str, config: SimConfig) -> SimResult:
    """Simulate a paper application by name with its calibrated profile."""
    return simulate_load(paper_profile(name), config)
