"""Harness and experiment configuration objects."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple, TypeVar

from ..batching.config import NO_BATCHING, BatchingConfig
from ..control.config import NO_CONTROL, ControlPlaneConfig
from ..faults import FaultPlan, Scenario
from ..health.config import NO_HEALTH, HealthConfig
from .balancer import BALANCERS
from .resilience import ResilienceConfig

__all__ = [
    "CacheConfig",
    "ExecutionConfig",
    "FanoutConfig",
    "HarnessConfig",
    "ObservabilityConfig",
    "RunConfig",
    "SloConfig",
    "SystemConfig",
    "PAPER_SYSTEM",
    "NO_BATCHING",
    "NO_CACHE",
    "NO_CONTROL",
    "NO_FANOUT",
    "NO_HEALTH",
    "NO_OBSERVABILITY",
    "NO_RESILIENCE",
    "NO_SLO",
    "THREADED",
]

_CONFIG_NAMES = ("integrated", "loopback", "networked")

#: Default client policy: no deadlines, retries, or hedging — the
#: paper's original wait-forever harness behavior.
NO_RESILIENCE = ResilienceConfig()


@dataclass(frozen=True)
class SloConfig:
    """Declared SLO for the live burn-rate monitor (:mod:`repro.obs.live`).

    The SLO is a latency/goodput objective: a request is *good* when it
    completes without error/shed and its sojourn (measured from the
    ideal open-loop arrival instant, the coordinated-omission-safe
    definition) is at most ``target``. Per fixed-width window the
    monitor counts good completions against attempts *sent*, so stuck
    work burns budget while it queues — a replica that stops answering
    cannot hide by never producing a bad completion.

    Burn rate over a trailing horizon = (bad fraction) / (1 -
    ``objective``). The monitor fires when the burn rate exceeds its
    threshold over *both* a fast horizon (``fast_windows`` windows,
    threshold ``fast_burn``) and a slow one (``slow_windows``,
    ``slow_burn``) — the multi-window multi-burn-rate SRE idiom: slow
    confirms magnitude, fast confirms it is still happening. Hysteresis:
    a firing alert clears only when both burn rates fall below
    ``clear_factor`` times their thresholds, so a signal sitting at the
    threshold cannot flap.

    Attributes
    ----------
    enabled:
        Master switch. Off (the default) constructs nothing, and the
        transport's send and completion feeds hold nothing of it.
    target:
        Latency target in seconds (sojourn at or under it is good).
    objective:
        Required good fraction in (0, 1); ``1 - objective`` is the
        error budget the burn rate is stated against.
    window:
        Sketch/burn bucket width in seconds (wall-clock live,
        virtual-time in the simulator).
    fast_windows / slow_windows:
        Trailing horizons in windows for the two burn rates.
    fast_burn / slow_burn:
        Burn-rate thresholds for the fast and slow horizons.
    clear_factor:
        Hysteresis factor in (0, 1]: clear when both burn rates drop
        below ``factor * threshold``.
    exemplars_per_window:
        Slowest completions retained per window with their full
        timestamp chains (0 disables exemplar capture).
    """

    enabled: bool = False
    target: float = 0.1
    objective: float = 0.99
    window: float = 1.0
    fast_windows: int = 3
    slow_windows: int = 12
    fast_burn: float = 6.0
    slow_burn: float = 3.0
    clear_factor: float = 0.5
    exemplars_per_window: int = 5

    def __post_init__(self) -> None:
        if self.target <= 0:
            raise ValueError("target must be positive")
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must lie in (0, 1)")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.fast_windows < 1:
            raise ValueError("fast_windows must be >= 1")
        if self.slow_windows < self.fast_windows:
            raise ValueError("slow_windows must be >= fast_windows")
        if self.fast_burn <= 0 or self.slow_burn <= 0:
            raise ValueError("burn-rate thresholds must be positive")
        if not 0.0 < self.clear_factor <= 1.0:
            raise ValueError("clear_factor must lie in (0, 1]")
        if self.exemplars_per_window < 0:
            raise ValueError("exemplars_per_window must be >= 0")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective

    @property
    def fast_horizon(self) -> float:
        """Fast alerting horizon in seconds."""
        return self.fast_windows * self.window

    @property
    def slow_horizon(self) -> float:
        """Slow alerting horizon in seconds."""
        return self.slow_windows * self.window


#: Default: no SLO declared, no live monitor constructed.
NO_SLO = SloConfig()


@dataclass(frozen=True)
class ObservabilityConfig:
    """Tracing/metrics policy for one run (see :mod:`repro.obs`).

    Attributes
    ----------
    tracing:
        Master switch. Off (the default) constructs nothing: no
        tracer, no registry, no sampler — the instrumented hot
        paths see ``None`` hooks, keeping measurement overhead within
        noise of the uninstrumented harness.
    trace_capacity:
        Ring-buffer bound in events. Overflow evicts the oldest events
        and is reported (``obs.dropped``), never silent.
    metrics_interval:
        Sampling cadence (seconds — wall-clock live, virtual-time in
        the simulator) for the metrics time series.
    slo:
        Declared SLO for the streaming live-observability engine
        (windowed sketches, burn-rate alerting, exemplar capture —
        see :class:`SloConfig` and :mod:`repro.obs.live`). Requires
        ``tracing`` (alert trace events and exemplar chains live in
        the trace stream). Off by default.
    """

    tracing: bool = False
    trace_capacity: int = 262_144
    metrics_interval: float = 0.05
    slo: SloConfig = NO_SLO

    def __post_init__(self) -> None:
        if self.trace_capacity < 1:
            raise ValueError("trace_capacity must be >= 1")
        if self.metrics_interval <= 0:
            raise ValueError("metrics_interval must be positive")
        if self.slo.enabled and not self.tracing:
            raise ValueError(
                "SLO monitoring needs the trace stream: set tracing=True "
                "alongside slo=SloConfig(enabled=True, ...)"
            )


#: Default: observability entirely off (the hot paths stay bare).
NO_OBSERVABILITY = ObservabilityConfig()

_EXECUTION_MODES = ("threaded", "process")
_START_METHODS = ("fork", "spawn")


@dataclass(frozen=True)
class ExecutionConfig:
    """Where replica worker pools execute (see DESIGN.md §4).

    Attributes
    ----------
    mode:
        ``"threaded"`` (default) runs every replica's worker pool as
        threads in the harness process — deterministic, bit-identical
        with all prior builds, but aggregate throughput is GIL-capped.
        ``"process"`` runs each replica in its own OS process behind
        :class:`repro.core.transport.ProcessTransport`: requests and
        batched completion records travel over pipes, and aggregate
        throughput scales with cores.
    start_method:
        ``multiprocessing`` start method for replica processes.
        ``"fork"`` (default) inherits the already-set-up application
        object for free; ``"spawn"`` requires the application and
        fault plan to be picklable.
    drain_timeout:
        Seconds a replica process is given to drain and exit after a
        shutdown message (scale-down join, end-of-run stop) before it
        is forcibly terminated.
    """

    mode: str = "threaded"
    start_method: str = "fork"
    drain_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.mode not in _EXECUTION_MODES:
            raise ValueError(
                f"execution mode must be one of {_EXECUTION_MODES}, "
                f"got {self.mode!r}"
            )
        if self.start_method not in _START_METHODS:
            raise ValueError(
                f"start_method must be one of {_START_METHODS}, "
                f"got {self.start_method!r}"
            )
        if self.drain_timeout <= 0:
            raise ValueError("drain_timeout must be positive")


#: Default execution substrate: the paper's single-process harness.
THREADED = ExecutionConfig()


@dataclass(frozen=True)
class FanoutConfig:
    """Scatter-gather request shape for sharded applications.

    With fan-out enabled, one *logical* request scatters into
    ``shards`` legs — one pinned to every server instance, whatever
    client layer lies beneath (:mod:`repro.core.fanout`) — and
    completes when the last shard responds (the gather point merges
    the per-shard partial responses; a leg that fails, fails the
    gather). Measured latency is the logical request's sojourn:
    the max over its shards, which is what makes the tail grow with
    ``shards`` (tail at scale, Dean & Barroso 2013; see
    :mod:`repro.analysis.fanout` for the order-statistic prediction).

    Attributes
    ----------
    enabled:
        Off by default: requests route through the balancer unchanged.
        Note an *enabled* fan-out of 1 still runs the scatter/gather
        machinery (one sub-request per logical request) — it is the
        degenerate case the bit-identity tests pin against unsharded
        runs.
    shards:
        Fan-out width K. Must equal ``n_servers``: every shard holds a
        disjoint data partition, so a logical request must visit all
        of them.
    """

    enabled: bool = False
    shards: int = 1

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")


#: Default request shape: no fan-out, requests route via the balancer.
NO_FANOUT = FanoutConfig()


@dataclass(frozen=True)
class CacheConfig:
    """The request/result caching tier (:mod:`repro.cache`).

    With caching enabled, server workers consult a shared cache before
    invoking the application: a hit serves the stored response for
    ``hit_cost`` seconds instead of the full service time. Apps opt in
    per request via ``Application.cache_key`` (None = uncacheable).
    The simulator draws synthetic Zipfian keys
    (``sim_keyspace``/``sim_theta``) for its requests and substitutes
    ``hit_cost`` for the sampled service draw on a hit — consuming the
    draw either way, so a disabled run's RNG streams are untouched and
    stay bit-identical per seed.

    Attributes
    ----------
    enabled:
        Off by default: the serving path is byte-for-byte the
        uncached one.
    policy:
        Replacement/admission policy: ``"lru"``, ``"lfu"``,
        ``"ttl"`` (LRU residence + required expiry) or ``"tinylfu"``
        (LRU gated by frequency-sketch admission).
    capacity:
        Maximum resident entries.
    ttl:
        Optional staleness bound in seconds. Required for the
        ``"ttl"`` policy; wraps any other policy when set.
    hit_cost:
        Service time a hit charges (lookup + serialization, no
        backend work).
    clear_at:
        Optional cold-restart instant, seconds from run start: the
        first access at or past it wipes the cache, modeling a
        redeploy that comes back with an empty cache.
    sim_keyspace / sim_theta:
        Popularity model for the simulator's synthetic key stream
        (Zipf over ``sim_keyspace`` keys, skew ``sim_theta``). Live
        runs ignore both: real apps key on their actual payloads.
    """

    enabled: bool = False
    policy: str = "lru"
    capacity: int = 128
    ttl: Optional[float] = None
    hit_cost: float = 50e-6
    clear_at: Optional[float] = None
    sim_keyspace: int = 512
    sim_theta: float = 0.9

    def __post_init__(self) -> None:
        if self.policy not in ("lru", "lfu", "ttl", "tinylfu"):
            raise ValueError(
                'cache policy must be one of "lru", "lfu", "ttl", '
                f'"tinylfu", got {self.policy!r}'
            )
        if self.capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        if self.ttl is not None and self.ttl <= 0:
            raise ValueError("cache ttl must be positive (or None)")
        if self.policy == "ttl" and self.ttl is None:
            raise ValueError('cache policy "ttl" requires a ttl')
        if self.hit_cost < 0:
            raise ValueError("cache hit_cost must be >= 0")
        if self.clear_at is not None and self.clear_at <= 0:
            raise ValueError("cache clear_at must be positive (or None)")
        if self.sim_keyspace < 1:
            raise ValueError("sim_keyspace must be >= 1")
        if self.sim_theta < 0:
            raise ValueError("sim_theta must be >= 0")


#: Default serving path: no caching tier, every request pays full service.
NO_CACHE = CacheConfig()


_C = TypeVar("_C", bound="RunConfig")


@dataclass(frozen=True)
class RunConfig:
    """What a live run and a simulated run are both configured by.

    :class:`HarnessConfig` (wall clock) and
    :class:`repro.sim.SimConfig` (virtual time) extend this core with
    their own defaults, their own few fields and their own rejections;
    every shared field, its meaning and its validation live here once.
    Times are wall-clock seconds live and virtual seconds in the
    simulator; every optional subsystem is off by default, and an
    off subsystem constructs nothing, so a disabled run stays
    bit-identical per seed to builds that predate it.

    Attributes
    ----------
    configuration:
        Harness configuration name: integrated / loopback / networked.
    qps:
        Offered load (mean arrival rate) in queries per second.
    n_threads:
        Application worker threads.
    warmup_requests:
        Leading completions discarded to reach steady state.
    measure_requests:
        Completions actually measured.
    seed:
        RNG seed for the arrival schedule and payload stream; repeated
        runs use different seeds (hysteresis countermeasure, Sec. IV-C).
    deterministic_arrivals:
        Use fixed interarrival gaps instead of exponential (testing /
        calibration only; real measurements keep the Poisson default).
    resilience:
        Client-side recovery policy (deadlines, retries, hedging);
        disabled by default.
    faults:
        Optional :class:`repro.faults.FaultPlan` injected into the
        transport / queue / worker / application layers.
    queue_capacity:
        Bound on the server request queue; arrivals beyond it are shed
        (admission control). ``None`` keeps the paper's unbounded
        queue. With ``n_servers > 1`` the bound applies per instance.
    n_servers:
        Number of independent server instances behind the balancer,
        each with its own request queue, worker pool and (simulated)
        service-time stream. 1 reproduces the paper's original
        single-server shape bit-for-bit.
    n_clients:
        Number of concurrent client (traffic-shaper) threads. The
        arrival schedule is split round-robin across clients, so the
        union of arrivals is identical at any client count — only the
        submission concurrency changes. In virtual time the split
        re-merges into the identical event sequence, so the simulator
        accepts the field and its results never depend on it.
    balancer:
        Routing policy name (see :mod:`repro.core.balancer`):
        ``round_robin`` / ``random`` / ``power_of_two`` / ``jsq``.
    observability:
        Tracing/metrics policy (see :class:`ObservabilityConfig`);
        fully disabled by default. Both clocks emit the same event
        schema; the simulator samples metrics as a recurring event.
    control:
        SLO-driven control plane (see
        :class:`repro.control.ControlPlaneConfig`): admission control,
        priority scheduling, replica autoscaling. Fully disabled by
        default; ``n_servers`` is then the fixed replica count, while
        an enabled autoscaler treats it as the *initial* count.
        Control ticks are recurring callbacks on the run's scheduler
        (the timer thread live, engine events in the simulator), so
        controlled sim runs stay deterministic per seed.
    batching:
        Dynamic request batching (see
        :class:`repro.batching.BatchingConfig`): workers dequeue
        size-or-deadline batches and service them with one application
        call (simulated: one full-price draw plus ``sim_marginal_cost``
        of each further member's draw). Fully disabled by default —
        the worker loop is then the original single-request loop.
    load_profile:
        Optional piecewise load schedule as ``((duration_seconds,
        qps), ...)`` segments replacing the constant-``qps`` arrival
        schedule — e.g. a load step for control-plane experiments.
        ``measure_requests``/``warmup_requests`` are ignored when set;
        the profile's duration determines the offered request count,
        and every completion is measured.
    health:
        Failure-aware serving policy (see
        :class:`repro.health.HealthConfig`): per-replica health
        tracking, outlier ejection, circuit breakers, and the global
        retry budget. Fully disabled by default.
    scenario:
        Optional chaos :class:`repro.faults.Scenario` — a timed
        sequence of fault-plan phases played back on the run's
        scheduler (timer thread live, engine events in the simulator).
        Composes over ``faults`` as the steady-state base plan.
    fanout:
        Scatter-gather request shape (see :class:`FanoutConfig`) for
        sharded applications: each logical request visits every server
        instance and completes at the gather point, so its latency is
        the slowest shard's. Requires ``n_servers == fanout.shards``.
        A K=1 fan-out replays the unsharded run bit-identically per
        seed.
    cache:
        Request/result caching tier (see :class:`CacheConfig` and
        :mod:`repro.cache`). Composes with batching — the lookup is
        per member of a batch, and only the misses reach the
        application — and with resilience, health and faults (the key
        is the payload, so every attempt carries it).
    """

    configuration: str = "integrated"
    qps: float = 100.0
    n_threads: int = 1
    warmup_requests: int = 100
    measure_requests: int = 2000
    seed: int = 0
    deterministic_arrivals: bool = False
    resilience: ResilienceConfig = NO_RESILIENCE
    faults: Optional[FaultPlan] = None
    queue_capacity: Optional[int] = None
    n_servers: int = 1
    n_clients: int = 1
    balancer: str = "round_robin"
    observability: ObservabilityConfig = NO_OBSERVABILITY
    control: ControlPlaneConfig = NO_CONTROL
    batching: BatchingConfig = NO_BATCHING
    load_profile: Optional[Tuple[Tuple[float, float], ...]] = None
    health: HealthConfig = NO_HEALTH
    scenario: Optional[Scenario] = None
    fanout: FanoutConfig = NO_FANOUT
    cache: CacheConfig = NO_CACHE

    def __post_init__(self) -> None:
        if self.qps <= 0:
            raise ValueError("qps must be positive")
        if self.n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        if self.warmup_requests < 0 or self.measure_requests < 1:
            raise ValueError("invalid request counts")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1 (or None)")
        if self.n_servers < 1:
            raise ValueError("n_servers must be >= 1")
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if self.balancer not in BALANCERS:
            raise ValueError(
                f"balancer must be one of {sorted(BALANCERS)}, "
                f"got {self.balancer!r}"
            )
        if self.load_profile is not None:
            if not self.load_profile:
                raise ValueError("load_profile must have >= 1 segment")
            for segment in self.load_profile:
                if len(segment) != 2:
                    raise ValueError(
                        "load_profile segments are (duration, qps) pairs"
                    )
                duration, qps = segment
                if duration <= 0 or qps <= 0:
                    raise ValueError(
                        "load_profile durations and qps must be positive"
                    )
        scaler = self.control.autoscaler if self.control.enabled else None
        if scaler is not None and not (
            scaler.min_servers <= self.n_servers <= scaler.max_servers
        ):
            raise ValueError(
                "n_servers must lie within the autoscaler's "
                "[min_servers, max_servers] band"
            )
        if self.fanout.enabled:
            if self.n_servers != self.fanout.shards:
                raise ValueError(
                    "fan-out requires n_servers == fanout.shards: each "
                    "shard holds a disjoint partition, so a logical "
                    "request must visit every server "
                    f"(n_servers={self.n_servers}, "
                    f"shards={self.fanout.shards})"
                )
            if scaler is not None:
                raise ValueError(
                    "fan-out has one replica per data shard, and a "
                    "replica the autoscaler adds holds no shard: "
                    "control.autoscaler must be None under fan-out"
                )
            if self.cache.enabled:
                raise ValueError(
                    "the replicas share one cache keyed by the query, so "
                    "one shard's partial response would answer another "
                    "shard's leg: cache must be off under fan-out"
                )

    @property
    def total_requests(self) -> int:
        return self.warmup_requests + self.measure_requests

    # dataclasses.replace keeps these honest as fields are added: a
    # hand-copied field list would silently drop new ones.
    def with_seed(self: _C, seed: int) -> _C:
        return dataclasses.replace(self, seed=seed)

    def with_qps(self: _C, qps: float) -> _C:
        return dataclasses.replace(self, qps=qps)

    def replace(self: _C, **changes) -> _C:
        """Copy with the given fields replaced (validation re-runs)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class HarnessConfig(RunConfig):
    """One live (wall-clock) load-testing run's parameters.

    The shared fields are documented on :class:`RunConfig`; the live
    harness adds:

    Attributes
    ----------
    one_way_delay:
        Modelled wire delay for the networked configuration.
    execution:
        Execution substrate (see :class:`ExecutionConfig`):
        ``threaded`` (default, bit-identical with prior builds) or
        ``process`` (one OS process per replica — multi-core scaling).
        What process mode does not run is rejected below, each
        rejection saying why (DESIGN.md's composition table lists
        them with the tests that pin them).
    """

    one_way_delay: float = 25e-6
    execution: ExecutionConfig = THREADED

    def __post_init__(self) -> None:
        if self.configuration not in _CONFIG_NAMES:
            raise ValueError(
                f"configuration must be one of {_CONFIG_NAMES}, "
                f"got {self.configuration!r}"
            )
        if self.one_way_delay < 0:
            raise ValueError("one_way_delay must be non-negative")
        super().__post_init__()
        if self.execution.mode == "process":
            if self.configuration != "integrated":
                raise ValueError(
                    "process execution requires the 'integrated' "
                    "configuration: the replica pipe is the transport "
                    f"(got {self.configuration!r})"
                )
            if self.control.enabled and (
                self.control.admission is not None
                or self.control.priority is not None
            ):
                raise ValueError(
                    "admission control and priority scheduling need "
                    "shared-memory access to replica queues; process "
                    "execution supports the autoscaler only"
                )
            if self.scenario is not None:
                raise ValueError(
                    "chaos scenarios mutate fault plans at run time and "
                    "cannot reach replica processes; process execution "
                    "supports static fault plans only"
                )
            if self.cache.enabled:
                raise ValueError(
                    "the cache is shared in-process state; replica "
                    "processes cannot reach it, so caching is "
                    "threaded-only"
                )


@dataclass(frozen=True)
class SystemConfig:
    """Machine description (the paper's Table II).

    Used by :mod:`repro.archsim` to size the cache hierarchy and by the
    simulator to document what system a calibration profile models.
    """

    name: str = "Xeon E5-2670 (SandyBridge)"
    cores: int = 8
    frequency_ghz: float = 2.4
    l1i_kb: int = 32
    l1i_ways: int = 8
    l1d_kb: int = 32
    l1d_ways: int = 8
    l2_kb: int = 256
    l2_ways: int = 8
    l3_mb: int = 20
    l3_ways: int = 20
    line_bytes: int = 64
    memory_gb: int = 32

    def __post_init__(self) -> None:
        for field_name in (
            "cores", "l1i_kb", "l1i_ways", "l1d_kb", "l1d_ways",
            "l2_kb", "l2_ways", "l3_mb", "l3_ways", "line_bytes",
        ):
            if getattr(self, field_name) < 1:
                raise ValueError(f"{field_name} must be >= 1")


#: The experimental system of Table II.
PAPER_SYSTEM = SystemConfig()
