"""Top-level virtual-time load testing.

:func:`simulate_load` is the simulator's counterpart of
:func:`repro.core.harness.run_harness`: same methodology (open-loop
Poisson arrivals, warmup discard, per-request timestamp chains), but
executed in virtual time against a calibrated or measured service-time
model. Deterministic given a seed, microsecond-exact, and fast — this
is the configuration the paper runs under zsim (Sec. VI).

The simulator is a transport, not a second harness:
:class:`~repro.sim.transport.SimulatedTransport` puts simulated servers
behind the live :class:`~repro.core.transport.Transport`, and
:meth:`repro.core.run.RunParts.wire` connects it to the same client,
control target and feeds ``run_harness`` uses — and the engine is the
run's scheduler where the live harness has a timer thread, so recovery
timers, scenario phases, metrics samples and control ticks are engine
events scheduled by the same :meth:`~repro.core.run.RunParts.start`.
What this module adds is the virtual clock's way of driving a run: the
arrival schedule streamed onto the engine's heap. Because the event
loop is single-threaded and every random draw comes from seeded
streams, the same plan replayed with the same seed yields
byte-identical results.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable

from ..core.config import RunConfig
from ..core.run import RunParts, RunResult
from .calibration import AppProfile, paper_profile
from .engine import Engine
from .network_model import network_model_for
from .transport import SimulatedTransport

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


def simulate_load(
    profile: AppProfile, config: SimConfig, power=None
) -> SimResult:
    """Run one open-loop load test in virtual time.

    ``power`` is an optional :class:`repro.energy.PowerStage`: every
    replica's service stage then runs under its DVFS / sleep policies
    and its energy account covers the run when this returns.
    """
    network = network_model_for(config.configuration)
    service_model = profile.service_model(
        n_threads=config.n_threads,
        ideal_memory=config.ideal_memory,
        simulated_system=config.simulated_system,
        added_occupancy=network.server_occupancy,
    )
    engine = Engine()
    parts = RunParts(config)
    schedule = parts.schedule
    transport = SimulatedTransport(
        engine, network, seed=config.seed,
        batch_marginal_cost=config.batching.sim_marginal_cost,
        power=power,
    )
    # The engine is the run's scheduler: virtual time advances only
    # through its heap.
    send_fn = parts.wire(transport, service_model, engine.clock, engine)
    # Virtual 0.0 is the run's start: window boundaries and fault
    # onsets are deterministic and alignable. What recurs is bounded by
    # the arrival horizon so the heap still drains.
    parts.start(0.0, until=schedule.times[-1])
    # Arrival i is send_fn(t_i, payload_i) at t_i. The whole schedule is
    # numbered here, after what start() scheduled, but only its next
    # arrival is ever on the heap (DESIGN.md §4).
    payloads = _synthetic_payloads(config, len(schedule))
    engine._queue.push_each(schedule.times, send_fn, zip(schedule, payloads))
    engine.run()
    elapsed = engine.now
    parts.stop()
    if power is not None:
        power.close(elapsed)
    shared = parts.finish(run_start=0.0, run_end=elapsed, **parts.topology())
    total_busy = sum(
        instance.server.busy_time for instance in transport.instances
    )
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
        **shared,
    )


def _synthetic_payloads(config: SimConfig, n: int) -> Iterable:
    """One payload per arrival, in schedule order.

    A service-time model reads no payload, so it is ``None`` — unless
    the cache is on, when each arrival carries a synthetic Zipfian key.
    The key stream has its own RNG, constructed only here: a cache-off
    run draws nothing extra anywhere, so its arrival schedule and
    per-server service streams — hence its fingerprint — are untouched
    by this subsystem existing. The key travels as the request payload,
    so every retry, hedge and duplicate of an arrival re-looks-up the
    same key.
    """
    if not config.cache.enabled:
        return itertools.repeat(None, n)
    from ..stats import ZipfianGenerator

    rng = random.Random(config.seed ^ 0xCAC4ED)
    zipf = ZipfianGenerator(
        config.cache.sim_keyspace, theta=config.cache.sim_theta
    )
    return [zipf.sample(rng) for _ in range(n)]


def simulate_app(name: str, config: SimConfig) -> SimResult:
    """Simulate a paper application by name with its calibrated profile."""
    return simulate_load(paper_profile(name), config)
