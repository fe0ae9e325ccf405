"""Energy as a stage of the simulated server.

Extends the latency simulation with the two energy mechanisms the
paper's related work studies: per-request DVFS (frequency chosen at
dispatch; only the compute-bound share of service time scales with
clock) and deep idle states (idle workers sleep after a threshold; the
request that wakes one pays the transition latency). There is no
energy server: a :class:`PowerStage` is the service-stage model
:class:`~repro.sim.server_model.SimulatedServer` consults when a window
opens and when it closes, so an energy run is
:func:`~repro.sim.latency_sim.simulate_load` with ``power=stage`` and
composes with everything a :class:`~repro.sim.latency_sim.SimConfig`
can say — topology, faults, batching, tracing, load profiles. It
produces the usual latency statistics and an energy account, so
policies can be judged on the actual trade: joules saved vs tail
latency spent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.collector import CollectedStats
from ..sim.calibration import AppProfile
from ..sim.latency_sim import SimConfig, simulate_load
from ..stats import Distribution, LatencySummary
from .policies import FrequencyPolicy, NoSleep, SleepPolicy, StaticFrequency
from .power import EnergyAccount, PowerModel

__all__ = ["EnergyResult", "PowerStage", "simulate_energy"]


@dataclass(frozen=True)
class EnergyResult:
    """Latency + energy outcome of one policy under one load."""

    stats: CollectedStats
    energy: EnergyAccount
    offered_qps: float
    virtual_time: float

    @property
    def sojourn(self) -> LatencySummary:
        return self.stats.summary("sojourn")

    @property
    def energy_per_request(self) -> float:
        if self.stats.count == 0:
            raise ValueError("no requests measured")
        return self.energy.total_energy / self.stats.count

    @property
    def average_power(self) -> float:
        return self.energy.average_power


class PowerStage:
    """DVFS and sleep states for every worker of a run, one account.

    Pass it as ``simulate_load(..., power=stage)``: each replica asks
    :meth:`for_server` for its own worker pool, all pools book to
    :attr:`account`, and :meth:`close` — called by ``simulate_load``
    when the run ends — books the idle workers' final intervals, so
    ``account.total_time`` is the run's worker-seconds.
    """

    def __init__(
        self,
        frequency_policy: FrequencyPolicy = StaticFrequency(1.0),
        sleep_policy: SleepPolicy = NoSleep(),
        power_model: PowerModel = PowerModel(),
        compute_fraction: float = 0.7,
    ) -> None:
        if not 0.0 <= compute_fraction <= 1.0:
            raise ValueError("compute_fraction must be in [0, 1]")
        self._frequency_policy = frequency_policy
        self._sleep_policy = sleep_policy
        self._compute_fraction = compute_fraction
        self.account = EnergyAccount(power_model)
        self._pools: List[_WorkerPool] = []

    def for_server(self, n_threads: int, now: float) -> "_WorkerPool":
        """The pool of a replica that joins the run at ``now``."""
        pool = _WorkerPool(self, n_threads, now)
        self._pools.append(pool)
        return pool

    def close(self, now: float) -> None:
        """Book every idle worker's interval up to the end of the run."""
        for pool in self._pools:
            for since in pool.idle_since:
                self._settle(since, now)
            pool.idle_since = [now] * len(pool.idle_since)

    def _settle(self, idle_since: float, now: float) -> bool:
        """Book one idle interval; returns True if the worker slept."""
        interval = now - idle_since
        threshold = self._sleep_policy.entry_threshold
        if interval > threshold:
            self.account.add_idle(threshold)
            self.account.add_sleep(interval - threshold)
            return True
        self.account.add_idle(interval)
        return False


class _WorkerPool:
    """One replica's workers: a stack of idle-since instants."""

    __slots__ = ("_stage", "idle_since")

    def __init__(self, stage: PowerStage, n_threads: int, now: float) -> None:
        self._stage = stage
        self.idle_since = [now] * n_threads

    def on_start(
        self, now: float, queue_depth: int, waited: float, window: float
    ) -> float:
        """A worker takes a service window; returns its real length.

        Only the compute-bound share scales with the clock. A wakeup
        sits inside the window — where a ``worker_pause`` already puts
        a stall — and is charged as active time at the chosen
        frequency.
        """
        stage = self._stage
        slept = stage._settle(self.idle_since.pop(), now)
        frequency = stage._frequency_policy.frequency(queue_depth, waited)
        share = stage._compute_fraction
        window *= share / frequency + (1.0 - share)
        if slept:
            window += stage._sleep_policy.wakeup_latency
        stage.account.add_active(window, frequency)
        return window

    def on_end(self, now: float) -> None:
        """The window closed: the worker idles from ``now`` (a
        back-to-back hand-off pops it again with a zero interval)."""
        self.idle_since.append(now)


def simulate_energy(
    service: Distribution,
    qps: float,
    frequency_policy: FrequencyPolicy = StaticFrequency(1.0),
    sleep_policy: SleepPolicy = NoSleep(),
    power_model: PowerModel = PowerModel(),
    n_threads: int = 1,
    compute_fraction: float = 0.7,
    measure_requests: int = 10_000,
    warmup_requests: int = 1000,
    seed: int = 0,
) -> EnergyResult:
    """Measure latency and energy for one policy at one load.

    Note the warmup applies to latency statistics only; the energy
    account covers the whole run (steady-state energy converges fast
    and the bias is second-order).
    """
    stage = PowerStage(
        frequency_policy, sleep_policy, power_model, compute_fraction
    )
    result = simulate_load(
        AppProfile("energy", service),
        SimConfig(
            qps=qps,
            n_threads=n_threads,
            warmup_requests=warmup_requests,
            measure_requests=measure_requests,
            seed=seed,
        ),
        power=stage,
    )
    return EnergyResult(
        stats=result.stats,
        energy=stage.account,
        offered_qps=qps,
        virtual_time=result.virtual_time,
    )
