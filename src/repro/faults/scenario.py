"""Chaos scenarios: timed sequences of fault plans.

A :class:`Scenario` is pure data — a named sequence of
:class:`FaultPhase` windows, each activating a
:class:`~repro.faults.plan.FaultPlan` for ``[start, start+duration)``
relative to run start. The run's one
:class:`~repro.faults.injector.FaultInjector` plays it back by swapping
its active (merged) plan at phase boundaries: the run
(:meth:`repro.core.run.RunParts.start`) schedules one
:meth:`FaultInjector.advance_to` per boundary on its scheduler — a
timer-thread callback under the wall clock, an engine event in the
simulator, where replay is single-threaded and bit-identical per seed.
Fault *decisions* keep flowing through the injector's per-layer
streams, so a scenario run with the same seed makes the same draws as
the equivalent fixed-plan run while any given phase is active.

Built-in scenarios cover the canonical serving pathologies:
:func:`slow_replica`, :func:`crash_recover`, :func:`error_burst`, and
:func:`retry_storm` — the last being the metastable-failure recipe the
``fig-resilience`` experiment demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .plan import FaultPlan

__all__ = [
    "FaultPhase",
    "Scenario",
    "SCENARIOS",
    "crash_recover",
    "error_burst",
    "retry_storm",
    "scenario_names",
    "slow_replica",
]


@dataclass(frozen=True)
class FaultPhase:
    """One timed activation window of a fault plan."""

    start: float
    duration: float
    plan: FaultPlan
    label: str = ""

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("phase start must be non-negative")
        if self.duration <= 0:
            raise ValueError("phase duration must be positive")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def active_at(self, offset: float) -> bool:
        return self.start <= offset < self.end


@dataclass(frozen=True)
class Scenario:
    """A named, timed sequence of fault phases (may overlap)."""

    name: str
    phases: Tuple[FaultPhase, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        phases = tuple(
            sorted(self.phases, key=lambda p: (p.start, p.end, p.label))
        )
        if not phases:
            raise ValueError("scenario needs at least one phase")
        object.__setattr__(self, "phases", phases)

    @property
    def horizon(self) -> float:
        """Instant after which no phase is active (all clear)."""
        return max(phase.end for phase in self.phases)

    def boundaries(self) -> Tuple[float, ...]:
        """Every instant the active plan changes, ascending."""
        edges = set()
        for phase in self.phases:
            edges.add(phase.start)
            edges.add(phase.end)
        return tuple(sorted(edges))

    def plan_at(
        self, offset: float, base: Optional[FaultPlan] = None
    ) -> FaultPlan:
        """The merged plan active ``offset`` seconds into the run.

        Active phases compose via :meth:`FaultPlan.merged` (independent
        probabilities, max durations, ``server_ids`` union — ``None``
        meaning all-servers wins a union). ``base`` is a standing plan
        (``config.faults``) the scenario overlays; it is ignored while
        it is a no-op so a phase's replica scoping survives.
        """
        plan: Optional[FaultPlan] = None
        if base is not None and not base.is_noop:
            plan = base
        for phase in self.phases:
            if phase.active_at(offset):
                plan = phase.plan if plan is None else plan.merged(phase.plan)
        return plan if plan is not None else FaultPlan()

    def timeline(self) -> str:
        """One human-readable line per phase (for experiment reports)."""
        lines = []
        for phase in self.phases:
            label = phase.label or "fault"
            scope = (
                f" on servers {list(phase.plan.server_ids)}"
                if phase.plan.server_ids is not None
                else ""
            )
            lines.append(
                f"  {phase.start:6.2f}s - {phase.end:6.2f}s  {label}{scope}"
            )
        lines.append(f"  {self.horizon:6.2f}s -          all clear")
        return "\n".join(lines)


# -- built-in scenarios --------------------------------------------------

def slow_replica(
    server_id: int = 0,
    start: float = 5.0,
    duration: float = 10.0,
    pause: float = 0.2,
    pause_rate: float = 1.0,
) -> Scenario:
    """One replica serves every request ``pause`` seconds late, then heals."""
    return Scenario(
        name="slow_replica",
        phases=(
            FaultPhase(
                start,
                duration,
                FaultPlan(
                    worker_pause_rate=pause_rate,
                    worker_pause=pause,
                    server_ids=(server_id,),
                ),
                label="slow",
            ),
        ),
    )


def crash_recover(
    server_id: int = 0,
    start: float = 5.0,
    duration: float = 2.0,
    crash_rate: float = 1.0,
) -> Scenario:
    """A burst window in which one replica's workers die permanently.

    Worker crashes do not heal when the window closes (lost capacity
    stays lost, as live) — the *recovery* this scenario exercises is
    the serving layer's: routing away from, and never back to, a
    replica that stopped answering.
    """
    return Scenario(
        name="crash_recover",
        phases=(
            FaultPhase(
                start,
                duration,
                FaultPlan(
                    worker_crash_rate=crash_rate, server_ids=(server_id,)
                ),
                label="crash",
            ),
        ),
    )


def error_burst(
    start: float = 5.0,
    duration: float = 5.0,
    error_rate: float = 0.5,
    server_ids: Optional[Tuple[int, ...]] = None,
) -> Scenario:
    """A window of application-level errors (all replicas by default)."""
    return Scenario(
        name="error_burst",
        phases=(
            FaultPhase(
                start,
                duration,
                FaultPlan(error_rate=error_rate, server_ids=server_ids),
                label="errors",
            ),
        ),
    )


def retry_storm(
    server_id: int = 0,
    start: float = 5.0,
    duration: float = 10.0,
    pause: float = 0.3,
) -> Scenario:
    """The metastable-failure recipe: one replica degrades hard.

    During the window the target replica pauses ``pause`` seconds per
    request — far beyond any sane attempt timeout — so an undefended
    client times out on its share of traffic and retries onto the
    healthy replicas. If the retry amplification pushes offered load
    past the survivors' capacity, the overload *outlives the fault*:
    the backlog and the retries it spawns keep the system saturated
    after the window closes. Defenses (ejection + breakers + retry
    budget) bound the amplification and recover within seconds.
    """
    return Scenario(
        name="retry_storm",
        phases=(
            FaultPhase(
                start,
                duration,
                FaultPlan(
                    worker_pause_rate=1.0,
                    worker_pause=pause,
                    server_ids=(server_id,),
                ),
                label="retry_storm",
            ),
        ),
    )


#: Built-in scenario factories by name.
SCENARIOS: Dict[str, object] = {
    "slow_replica": slow_replica,
    "crash_recover": crash_recover,
    "error_burst": error_burst,
    "retry_storm": retry_storm,
}


def scenario_names() -> List[str]:
    return sorted(SCENARIOS)
