"""The three controllers behind the shared ``Controller`` interface.

Each controller is a pure tick-driven state machine: it reads signals
through a :class:`~repro.control.plane.ControlTarget` (queue
snapshots, per-server load, the windowed sojourn p99 — the same
signals the :mod:`repro.obs` gauges export), mutates its own state,
and pushes decisions back out (gate limits, drop states, scaling
actions). Nothing here threads or schedules: the run ticks the plane
every ``tick_interval`` on its scheduler
(:meth:`repro.core.run.RunParts.start`) — a timer-thread callback in
live runs, a recurring virtual-time event in the simulator — identical
control logic in both modes, which is what makes simulated
control-plane results trustworthy stand-ins for live ones. A tick
therefore must not block: it shares the timer thread with every
deadline, retry and hedge of the run.
"""

from __future__ import annotations

from typing import Dict, Optional

from .config import AdmissionConfig, AutoscalerConfig

__all__ = ["Controller", "AdmissionController", "AutoscaleController"]


class Controller:
    """One closed-loop controller ticked at the shared control cadence."""

    #: Display/registry name; subclasses override.
    name: str = "base"

    def tick(self, now: float) -> None:
        """Run one control interval: read signals, update actuators."""
        raise NotImplementedError


class AdmissionController(Controller):
    """CoDel drop-state management plus AIMD concurrency limiting.

    Per tick, for every active server:

    1. Read the queue snapshot. If the head-of-line sojourn has been
       above ``codel_target`` continuously for ``codel_interval``,
       put that server's gate into the CoDel drop state; the first
       tick at or under the target releases it.
    2. Read the run's windowed p99 sojourn (completions since the last
       tick). Above ``target_p99``: multiplicative decrease of the
       shared limit. At or under: additive increase. The new limit is
       installed on every gate as a per-server depth bound.
    """

    name = "admission"

    def __init__(self, config: AdmissionConfig, target, signals) -> None:
        self._config = config
        self._target = target
        self._signals = signals
        self._limit = config.initial_limit
        #: server_id -> instant its head sojourn first exceeded target.
        self._above_since: Dict[int, float] = {}

    @property
    def limit(self) -> int:
        """Current AIMD limit (shared across server gates)."""
        return self._limit

    def tick(self, now: float) -> None:
        config = self._config
        active = self._target.active_servers()
        for server_id in active:
            gate = self._target.gate(server_id)
            if gate is None:
                continue
            snap = self._target.queue_snapshot(server_id, now)
            if snap.head_sojourn > config.codel_target:
                first = self._above_since.setdefault(server_id, now)
                if now - first >= config.codel_interval and not gate.dropping:
                    gate.set_dropping(True, now)
            else:
                self._above_since.pop(server_id, None)
                if gate.dropping:
                    gate.set_dropping(False, now)
        p99 = self._signals.window_p99()
        if p99 is not None:
            if p99 > config.target_p99:
                self._limit = max(
                    config.min_limit,
                    int(self._limit * config.multiplicative_decrease),
                )
            else:
                self._limit = min(
                    config.max_limit, self._limit + config.additive_increase
                )
            for server_id in active:
                gate = self._target.gate(server_id)
                if gate is not None:
                    gate.set_limit(self._limit, now)


class AutoscaleController(Controller):
    """Grow/shrink the replica set on queue-depth and utilization.

    Scale-up when the mean queue depth per active replica exceeds
    ``scale_up_depth``; scale-down when the *smoothed* mean worker
    utilization falls below ``scale_down_util``. Queue depth is acted
    on raw — backlog is a persistent signal and scale-up should be
    prompt — while utilization is an EWMA over ticks, because the
    instantaneous busy-worker count is a 0/1-per-worker sample whose
    noise would otherwise fake an idle system at moderate load. Both
    directions require ``hysteresis_ticks`` consecutive breaching
    ticks (a single bursty sample never scales) and respect a shared
    ``cooldown`` between actions (a fresh replica gets time to absorb
    load before the next decision — classic up/down hysteresis so the
    replica count never oscillates around a threshold).
    """

    name = "autoscaler"

    def __init__(self, config: AutoscalerConfig, target, tracer=None) -> None:
        self._config = config
        self._target = target
        self._tracer = tracer
        self._up_streak = 0
        self._down_streak = 0
        self._last_action: Optional[float] = None
        # Start the smoothed utilization at 1.0 (fully busy) so a run's
        # first few ticks can never read as an idle system.
        self._util_ewma = 1.0
        self.scale_ups = 0
        self.scale_downs = 0

    def _in_cooldown(self, now: float) -> bool:
        return (
            self._last_action is not None
            and now - self._last_action < self._config.cooldown
        )

    def tick(self, now: float) -> None:
        config = self._config
        active = self._target.active_servers()
        n = len(active)
        if n == 0:
            return
        depth_total = 0.0
        util_total = 0.0
        for server_id in active:
            depth, busy, workers = self._target.server_load(server_id)
            depth_total += depth
            util_total += busy / workers if workers else 0.0
        mean_depth = depth_total / n
        alpha = config.util_smoothing
        self._util_ewma += alpha * (util_total / n - self._util_ewma)
        if mean_depth > config.scale_up_depth:
            self._up_streak += 1
            self._down_streak = 0
        elif self._util_ewma < config.scale_down_util:
            self._down_streak += 1
            self._up_streak = 0
        else:
            self._up_streak = 0
            self._down_streak = 0
        if (
            self._up_streak >= config.hysteresis_ticks
            and n < config.max_servers
            and not self._in_cooldown(now)
        ):
            server_id = self._target.scale_up()
            if server_id is not None:
                self.scale_ups += 1
                self._last_action = now
                self._up_streak = 0
                if self._tracer is not None:
                    self._tracer.emit(
                        "scale_up", now, server_id=server_id,
                        value=float(n + 1),
                    )
        elif (
            self._down_streak >= config.hysteresis_ticks
            and n > config.min_servers
            and not self._in_cooldown(now)
        ):
            server_id = self._target.scale_down()
            if server_id is not None:
                self.scale_downs += 1
                self._last_action = now
                self._down_streak = 0
                if self._tracer is not None:
                    self._tracer.emit(
                        "scale_down", now, server_id=server_id,
                        value=float(n - 1),
                    )
