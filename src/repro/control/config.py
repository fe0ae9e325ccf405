"""Control-plane configuration objects.

One frozen :class:`ControlPlaneConfig` describes the whole closed
loop: which controllers run (admission / priority / autoscaling),
their set-points, and the shared control-tick cadence. Everything is
off by default — a config with ``enabled=False`` constructs nothing
and every managed hot path sees ``None`` hooks, so unmanaged runs are
bit-identical to the pre-control-plane harness and simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "AdmissionConfig",
    "RequestClassSpec",
    "PriorityConfig",
    "AutoscalerConfig",
    "ControlPlaneConfig",
    "NO_CONTROL",
]


@dataclass(frozen=True)
class AdmissionConfig:
    """Admission control: CoDel drop state + AIMD concurrency limit.

    Two cooperating mechanisms replace the static ``queue_capacity``
    bound:

    - **CoDel-style sojourn policing** [Nichols & Jacobson 2012]: when
      the head-of-line sojourn stays above ``codel_target`` for at
      least ``codel_interval``, the gate enters a drop state and sheds
      arrivals with the classic ``interval / sqrt(n)`` spacing until
      the sojourn recovers. This bounds *queueing delay* directly
      rather than queue length.
    - **AIMD concurrency limiting**: a per-server depth limit that
      additively grows by ``additive_increase`` while the observed
      windowed p99 sojourn is at or under ``target_p99``, and shrinks
      multiplicatively by ``multiplicative_decrease`` when it is
      above — the TCP-congestion-control shape applied to admission
      [Suresh et al., and Netflix concurrency-limits].
    """

    target_p99: float = 0.05
    codel_target: float = 0.02
    codel_interval: float = 0.1
    initial_limit: int = 64
    min_limit: int = 1
    max_limit: int = 4096
    additive_increase: int = 1
    multiplicative_decrease: float = 0.7

    def __post_init__(self) -> None:
        if self.target_p99 <= 0:
            raise ValueError("target_p99 must be positive")
        if self.codel_target <= 0 or self.codel_interval <= 0:
            raise ValueError("codel_target/codel_interval must be positive")
        if self.min_limit < 1:
            raise ValueError("min_limit must be >= 1")
        if self.max_limit < self.min_limit:
            raise ValueError("max_limit must be >= min_limit")
        if not self.min_limit <= self.initial_limit <= self.max_limit:
            raise ValueError("initial_limit must lie in [min_limit, max_limit]")
        if self.additive_increase < 1:
            raise ValueError("additive_increase must be >= 1")
        if not 0.0 < self.multiplicative_decrease < 1.0:
            raise ValueError("multiplicative_decrease must be in (0, 1)")


@dataclass(frozen=True)
class RequestClassSpec:
    """One request class: its share of traffic and scheduling weight.

    ``priority`` orders classes (higher = more urgent), ``weight``
    feeds the weighted discipline, and ``fraction`` is the share of
    offered traffic the seeded classifier assigns to this class.
    """

    name: str
    priority: int = 0
    weight: float = 1.0
    fraction: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("class name must be non-empty")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")


@dataclass(frozen=True)
class PriorityConfig:
    """Priority scheduling policy: request classes plus the discipline.

    ``mode`` selects the :class:`~repro.core.queueing.PriorityBuffer`
    discipline: ``strict`` (latency-critical class always dequeues
    first; the batch class absorbs overload queueing and shedding) or
    ``weighted`` (smooth weighted round-robin by class weight).
    """

    classes: Tuple[RequestClassSpec, ...]
    mode: str = "strict"

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("priority scheduling needs at least one class")
        if self.mode not in ("strict", "weighted"):
            raise ValueError("mode must be 'strict' or 'weighted'")
        names = [spec.name for spec in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate class names: {names}")
        total = sum(spec.fraction for spec in self.classes)
        if not 0.999 <= total <= 1.001:
            raise ValueError(
                f"class fractions must sum to 1.0 (got {total:g})"
            )

    def weights(self) -> dict:
        """``{priority: weight}`` map for the weighted discipline."""
        return {spec.priority: spec.weight for spec in self.classes}


@dataclass(frozen=True)
class AutoscalerConfig:
    """Replica autoscaling: thresholds, hysteresis, and cooldown.

    The scaling signals are the same gauges :mod:`repro.obs` exports —
    mean queue depth per active replica (scale up when above
    ``scale_up_depth``) and mean worker utilization (scale down when
    below ``scale_down_util``). ``hysteresis_ticks`` consecutive
    breaching ticks are required before acting, and ``cooldown``
    seconds must pass between actions, so transient bursts do not
    thrash the replica set.

    The utilization signal is sampled instantaneously at each tick —
    with one worker it is literally 0 or 1 — so the scale-down path
    compares against an exponentially-smoothed value
    (``util_smoothing`` is the EWMA weight of the newest sample).
    A few idle samples in a row at moderate load must not read as
    "underutilized"; only a genuinely sustained idle fraction should.
    """

    min_servers: int = 1
    max_servers: int = 4
    scale_up_depth: float = 8.0
    scale_down_util: float = 0.25
    hysteresis_ticks: int = 3
    cooldown: float = 0.5
    util_smoothing: float = 0.2

    def __post_init__(self) -> None:
        if self.min_servers < 1:
            raise ValueError("min_servers must be >= 1")
        if self.max_servers < self.min_servers:
            raise ValueError("max_servers must be >= min_servers")
        if self.scale_up_depth <= 0:
            raise ValueError("scale_up_depth must be positive")
        if not 0.0 <= self.scale_down_util < 1.0:
            raise ValueError("scale_down_util must be in [0, 1)")
        if self.hysteresis_ticks < 1:
            raise ValueError("hysteresis_ticks must be >= 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        if not 0.0 < self.util_smoothing <= 1.0:
            raise ValueError("util_smoothing must be in (0, 1]")


@dataclass(frozen=True)
class ControlPlaneConfig:
    """The whole control plane for one run.

    ``tick_interval`` is the shared control cadence: every controller's
    :meth:`~repro.control.controllers.Controller.tick` runs at this
    fixed interval on the run's scheduler — a timer-thread callback in
    the live harness, a recurring virtual-time event in the simulator
    — so control decisions are comparable (and, in the simulator,
    deterministic) across modes.
    """

    enabled: bool = False
    tick_interval: float = 0.05
    admission: Optional[AdmissionConfig] = None
    priority: Optional[PriorityConfig] = None
    autoscaler: Optional[AutoscalerConfig] = None

    def __post_init__(self) -> None:
        if self.tick_interval <= 0:
            raise ValueError("tick_interval must be positive")
        if self.enabled and not (
            self.admission or self.priority or self.autoscaler
        ):
            raise ValueError(
                "control plane enabled but no controller configured "
                "(set admission=, priority=, and/or autoscaler=)"
            )


#: Default: control plane entirely off (hot paths stay bare).
NO_CONTROL = ControlPlaneConfig()
