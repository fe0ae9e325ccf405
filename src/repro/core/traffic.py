"""Open-loop traffic shaping.

The traffic shaper controls the timing of the request stream
(Sec. IV-A). It is *open-loop*: arrival instants are drawn from the
arrival process independently of when (or whether) earlier responses
came back, which is what makes the harness immune to coordinated
omission. A closed-loop process is also provided — not for use in real
measurements, but so tests and examples can demonstrate exactly how
badly a closed loop underestimates tail latency.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "DeterministicArrivals",
    "BurstyArrivals",
    "ArrivalSchedule",
    "TrafficShaper",
]


class ArrivalProcess:
    """Generates successive interarrival gaps (seconds)."""

    def next_gap(self, rng: random.Random) -> float:
        raise NotImplementedError

    def reset(self) -> None:
        """Restore any mutable draw state to its initial value.

        Called at the start of every schedule generation so that one
        process instance produces identical schedules for identical
        seeds regardless of what was generated from it before.
        Memoryless processes have nothing to restore.
        """

    @property
    def rate(self) -> float:
        """Mean arrival rate in requests/second."""
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Exponential interarrival times at a configurable rate (QPS).

    Exponentially distributed interarrivals accurately model datacenter
    traffic [Meisner et al., ISCA 2011]; this is the harness default.
    """

    def __init__(self, qps: float) -> None:
        if qps <= 0:
            raise ValueError("qps must be positive")
        self._qps = float(qps)

    def next_gap(self, rng: random.Random) -> float:
        return rng.expovariate(self._qps)

    @property
    def rate(self) -> float:
        return self._qps

    def __repr__(self) -> str:
        return f"PoissonArrivals(qps={self._qps:g})"


class DeterministicArrivals(ArrivalProcess):
    """Fixed interarrival gap — useful for calibration and tests."""

    def __init__(self, qps: float) -> None:
        if qps <= 0:
            raise ValueError("qps must be positive")
        self._qps = float(qps)

    def next_gap(self, rng: random.Random) -> float:
        return 1.0 / self._qps

    @property
    def rate(self) -> float:
        return self._qps

    def __repr__(self) -> str:
        return f"DeterministicArrivals(qps={self._qps:g})"


class BurstyArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (MMPP-2).

    Datacenter traffic is bursty beyond simple Poisson: load swings
    between calm and burst regimes (diurnal effects, request fan-in
    correlations). This process alternates between a low-rate and a
    high-rate Poisson regime with exponentially distributed dwell
    times, while preserving a configurable *average* rate — so bursty
    and Poisson runs are comparable at equal offered load.

    Parameters
    ----------
    qps:
        Long-run average arrival rate.
    burstiness:
        Ratio of burst-regime rate to calm-regime rate (> 1).
    burst_fraction:
        Fraction of time spent in the burst regime.
    regime_dwell:
        Mean dwell time per regime visit (seconds).
    """

    def __init__(
        self,
        qps: float,
        burstiness: float = 10.0,
        burst_fraction: float = 0.1,
        regime_dwell: float = 0.05,
    ) -> None:
        if qps <= 0:
            raise ValueError("qps must be positive")
        if burstiness <= 1.0:
            raise ValueError("burstiness must exceed 1")
        if not 0.0 < burst_fraction < 1.0:
            raise ValueError("burst_fraction must be in (0, 1)")
        if regime_dwell <= 0:
            raise ValueError("regime_dwell must be positive")
        self._qps = float(qps)
        self.burstiness = float(burstiness)
        self.burst_fraction = float(burst_fraction)
        self.regime_dwell = float(regime_dwell)
        # Solve rates so the time-weighted average equals qps:
        # qps = f * burst_rate + (1 - f) * calm_rate, burst = B * calm.
        denom = burst_fraction * burstiness + (1.0 - burst_fraction)
        self.calm_rate = qps / denom
        self.burst_rate = self.calm_rate * burstiness
        self._in_burst = False
        self._regime_left = 0.0

    def reset(self) -> None:
        # The regime state mutates as gaps are drawn; without this
        # reset a second schedule generated from the same instance
        # would start mid-regime and diverge from a fresh instance
        # even at the same seed.
        self._in_burst = False
        self._regime_left = 0.0

    def next_gap(self, rng: random.Random) -> float:
        gap = 0.0
        while True:
            if self._regime_left <= 0.0:
                self._in_burst = rng.random() < self.burst_fraction
                self._regime_left = rng.expovariate(1.0 / self.regime_dwell)
            rate = self.burst_rate if self._in_burst else self.calm_rate
            candidate = rng.expovariate(rate)
            if candidate <= self._regime_left:
                self._regime_left -= candidate
                return gap + candidate
            # Regime expires before the next arrival: burn the dwell
            # and redraw in the next regime (memorylessness).
            gap += self._regime_left
            self._regime_left = 0.0

    @property
    def rate(self) -> float:
        return self._qps

    def __repr__(self) -> str:
        return (
            f"BurstyArrivals(qps={self._qps:g}, "
            f"burstiness={self.burstiness:g})"
        )


def service_stream(seed: int, server_id: int) -> random.Random:
    """The service-time stream of replica ``server_id`` in a run seeded
    ``seed``.

    The arrival schedule draws from ``random.Random(seed)``; each
    simulated replica draws its service times from its own stream, so a
    replica's draws do not depend on when it joined or on how the others
    were routed. Server 0's stream is the pre-topology single-server one.
    The simulator and :func:`repro.queueing.mgk_percentiles` both seed
    from here, so the M/G/k baseline sees the simulator's service draws.
    """
    return random.Random((seed ^ 0x5EED) + 1_000_003 * server_id)


class ArrivalSchedule:
    """A concrete, pre-drawn list of arrival instants.

    Pre-drawing the schedule (instead of sampling gaps on the fly)
    serves two purposes: the load generator never does RNG work on the
    critical path, and the *same* schedule can be replayed against
    different systems/configurations for paired comparisons. The
    harness re-randomizes the schedule seed on every repeated run, per
    the paper's hysteresis countermeasure (Sec. IV-C).
    """

    def __init__(self, times: List[float]) -> None:
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("arrival times must be non-decreasing")
        self.times = list(times)

    @classmethod
    def generate(
        cls,
        process: ArrivalProcess,
        n_requests: int,
        seed: int = 0,
        start: float = 0.0,
    ) -> "ArrivalSchedule":
        if n_requests < 1:
            raise ValueError("need at least one request")
        process.reset()
        rng = random.Random(seed)
        times = []
        t = start
        for _ in range(n_requests):
            t += process.next_gap(rng)
            times.append(t)
        return cls(times)

    @classmethod
    def piecewise(
        cls,
        segments,
        seed: int = 0,
        start: float = 0.0,
        deterministic: bool = False,
    ) -> "ArrivalSchedule":
        """Generate a load-profile schedule from (duration, qps) segments.

        Each segment draws arrivals at its own rate for its duration;
        segments are concatenated on the time axis. The whole schedule
        comes from one seeded RNG, so a profile is exactly reproducible
        and two runs of the same profile are paired. Used for the
        load-step experiments that exercise the control plane (a
        steady-state rate cannot show a controller reacting).
        """
        if not segments:
            raise ValueError("need at least one (duration, qps) segment")
        rng = random.Random(seed)
        times: List[float] = []
        t = start
        for duration, qps in segments:
            if duration <= 0 or qps <= 0:
                raise ValueError("segment durations and qps must be positive")
            segment_end = t + duration
            while True:
                gap = (1.0 / qps) if deterministic else rng.expovariate(qps)
                if t + gap >= segment_end:
                    break
                t += gap
                times.append(t)
            t = segment_end
        if not times:
            raise ValueError("load profile produced no arrivals")
        return cls(times)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[float]:
        return iter(self.times)

    @property
    def duration(self) -> float:
        if not self.times:
            return 0.0
        return self.times[-1] - self.times[0]

    @property
    def observed_qps(self) -> Optional[float]:
        """Empirical rate over the schedule span, or None if undefined.

        A single arrival (or several at the same instant) spans zero
        time, so no rate can be observed; callers get None rather than
        an exception for these degenerate-but-valid schedules.
        """
        if len(self.times) < 2 or self.duration == 0:
            return None
        return (len(self.times) - 1) / self.duration


class TrafficShaper:
    """Paces request submission according to an arrival schedule.

    In live mode it sleeps on the clock until each ideal arrival
    instant and then hands the request to the transport. The ideal
    instant is recorded as ``generated_at`` whether or not the shaper
    managed to send on time, so latencies always include any backlog —
    the open-loop guarantee.
    """

    def __init__(self, clock, schedule: ArrivalSchedule) -> None:
        self._clock = clock
        self._schedule = schedule

    def run(
        self,
        send_fn,
        payloads: Optional[List] = None,
        base: Optional[float] = None,
    ) -> int:
        """Send every scheduled request via ``send_fn(ideal_time, payload)``.

        Returns the number of requests sent. ``payloads`` may be None
        (payload-less pings) or must match the schedule length.
        ``base`` overrides the wall-clock anchor the schedule offsets
        are added to; multiple concurrent shapers (one per client
        thread) pass a shared anchor so their interleaved sub-schedules
        reconstruct the original arrival process exactly.
        """
        times = self._schedule.times
        if payloads is not None and len(payloads) != len(times):
            raise ValueError("payloads must match schedule length")
        if not times:
            return 0
        if base is None:
            # Anchor the schedule at "now": schedule times are offsets.
            base = self._clock.now() - times[0]
        for i, ideal in enumerate(times):
            deadline = base + ideal
            self._clock.sleep_until(deadline)
            payload = payloads[i] if payloads is not None else None
            send_fn(deadline, payload)
        return len(times)
