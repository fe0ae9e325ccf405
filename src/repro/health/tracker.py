"""Replica health tracking, outlier ejection, and health-aware routing.

The :class:`HealthManager` is the one stateful object of the health
layer. It is fed one call per attempt outcome —
:meth:`HealthManager.observe`, one of the transport's completion feeds,
under either clock, and :meth:`HealthManager.record_attempt` for an
attempt timeout the client noticed — and consulted once per routing
decision — :meth:`HealthManager.route` — to shrink the balancer's
candidate set to the healthy replicas.

Per replica it maintains:

- an EWMA of attempt latency (successful responses only — a slow
  replica's *successes* carry the slowness signal; failures carry
  theirs through the failure EWMA);
- an EWMA of failure rate (errors, sheds, and attempt timeouts);
- an ejection flag with probation bookkeeping (1-in-N probes while
  ejected, readmission after K consecutive probe successes);
- a :class:`~repro.health.breaker.CircuitBreaker`.

Plus one global :class:`~repro.health.breaker.RetryBudget` the
resilient client consults before scheduling any retry.

Everything is RNG-free and clocked by caller-passed timestamps, so the
single-threaded simulator replays the identical ejection/breaker event
sequence per seed; live callers are serialized by one lock, which the
run's driver hands out (none under the simulator's engine).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.scheduler import NO_LOCK, locked
from .breaker import CircuitBreaker, RetryBudget
from .config import HealthConfig

__all__ = ["HealthManager", "HealthView", "ReplicaHealthView"]

#: Smoothing factor of the per-replica EWMAs (attempt latency and
#: failure rate): 0.2 weights the last ~10 attempts.
_EWMA_ALPHA = 0.2


class _ReplicaState:
    """Mutable health record of one replica (lock-guarded by the manager)."""

    __slots__ = ("server_id", "samples", "failure_ewma", "latency_ewma",
                 "ejected", "probe_successes", "skipped", "breaker")

    def __init__(self, server_id: int,
                 breaker: Optional[CircuitBreaker]) -> None:
        self.server_id = server_id
        self.samples = 0
        self.failure_ewma = 0.0
        self.latency_ewma: Optional[float] = None
        self.ejected = False
        self.probe_successes = 0
        #: Routing decisions skipped since the last probe while ejected.
        self.skipped = 0
        self.breaker = breaker


@dataclass(frozen=True)
class ReplicaHealthView:
    """Read-only snapshot of one replica's health record."""

    server_id: int
    samples: int
    failure_ewma: float
    latency_ewma: Optional[float]
    ejected: bool
    breaker_state: str
    probe_successes: int

    @property
    def healthy(self) -> bool:
        return not self.ejected and self.breaker_state != "open"


@dataclass(frozen=True)
class HealthView:
    """Point-in-time snapshot the balancer (and tests) consult."""

    replicas: Tuple[ReplicaHealthView, ...]
    retry_tokens: Optional[float]

    def replica(self, server_id: int) -> Optional[ReplicaHealthView]:
        for view in self.replicas:
            if view.server_id == server_id:
                return view
        return None


class HealthManager:
    """Failure-aware serving state shared by routing and completion paths.

    Parameters
    ----------
    config:
        The run's :class:`~repro.health.config.HealthConfig` (must be
        enabled — disabled runs construct no manager at all).
    tracer:
        Optional :class:`repro.obs.Tracer`; ejection, readmission,
        probe, breaker, and budget-exhausted events are emitted with
        the replica id and the caller's timestamp.
    """

    def __init__(self, config: HealthConfig, tracer=None) -> None:
        if not config.enabled:
            raise ValueError("HealthManager requires an enabled HealthConfig")
        self.config = config
        self._tracer = tracer
        #: Serializes callers. The run's driver replaces it
        #: (``RunParts.wire``, via
        #: :func:`~repro.core.scheduler.lock_for`): None in a simulated
        #: run, whose one thread is the only caller.
        self.lock: Optional[threading.Lock] = threading.Lock()
        self._states: Dict[int, _ReplicaState] = {}
        self._budget = (
            RetryBudget(
                config.retry_budget_ratio,
                config.retry_budget_reserve,
                config.retry_budget_cap,
            )
            if config.retry_budget
            else None
        )
        self._counts: Dict[str, int] = {
            "ejections": 0,
            "readmissions": 0,
            "probes": 0,
            "breaker_opens": 0,
            "breaker_half_opens": 0,
            "breaker_closes": 0,
        }

    # -- state access --------------------------------------------------
    def _state_locked(self, server_id: int) -> _ReplicaState:
        state = self._states.get(server_id)
        if state is None:
            breaker = (
                CircuitBreaker(
                    self.config.breaker_failures,
                    self.config.breaker_reset_after,
                )
                if self.config.breaker
                else None
            )
            state = _ReplicaState(server_id, breaker)
            self._states[server_id] = state
        return state

    def _emit(self, kind: str, now: float, server_id: Optional[int] = None,
              value: Optional[float] = None) -> None:
        if self._tracer is not None:
            self._tracer.emit(kind, now, server_id=server_id, value=value)

    # -- routing path --------------------------------------------------
    def route(
        self, active_ids: Sequence[int], now: float
    ) -> Tuple[List[int], bool]:
        """Filter the active set down to routable replicas.

        Returns ``(candidates, forced)``. ``forced`` is True when the
        single candidate is a probation probe (to an ejected replica)
        or a half-open breaker trial — the caller must route there
        directly instead of consulting the balancer. When every replica
        is unhealthy the *full* active set comes back (fail open,
        matching ``pick_active``'s degrade-gracefully contract): routing
        somewhere beats raising in a storm.
        """
        return locked(self.lock, self._route_locked, active_ids, now)

    def _route_locked(
        self, active_ids: Sequence[int], now: float
    ) -> Tuple[List[int], bool]:
        available: List[int] = []
        probe_id: Optional[int] = None
        for server_id in active_ids:
            state = self._state_locked(server_id)
            if state.ejected:
                state.skipped += 1
                if (
                    probe_id is None
                    and state.skipped >= self.config.probe_interval
                ):
                    state.skipped = 0
                    probe_id = server_id
                continue
            breaker = state.breaker
            if breaker is not None and breaker.state != "closed":
                was_open = breaker.state == "open"
                if breaker.allows(now):
                    if was_open:
                        self._counts["breaker_half_opens"] += 1
                        self._emit("breaker_half_open", now,
                                   server_id=server_id)
                    if probe_id is None:
                        probe_id = server_id
                    else:
                        # Another replica won this round's probe
                        # slot; release the trial for a later pick.
                        breaker.trial_inflight = False
                continue
            available.append(server_id)
        if probe_id is not None:
            self._counts["probes"] += 1
            self._emit("probe", now, server_id=probe_id)
            return [probe_id], True
        if not available:
            return list(active_ids), False
        return available, False

    # -- completion path -----------------------------------------------
    def record_attempt(
        self,
        server_id: int,
        latency: Optional[float],
        ok: bool,
        now: float,
    ) -> None:
        """Feed one attempt outcome (response, shed, error, or timeout).

        ``latency`` is the attempt's send-to-response time for
        successful responses and ``None`` otherwise (a timed-out
        attempt has no response instant to measure against).
        """
        locked(
            self.lock, self._record_locked, server_id, latency, ok, now
        )

    def _record_locked(
        self,
        server_id: int,
        latency: Optional[float],
        ok: bool,
        now: float,
    ) -> None:
        config = self.config
        state = self._state_locked(server_id)
        state.samples += 1
        alpha = _EWMA_ALPHA
        fail = 0.0 if ok else 1.0
        if state.samples == 1:
            state.failure_ewma = fail
        else:
            state.failure_ewma = (
                alpha * fail + (1.0 - alpha) * state.failure_ewma
            )
        if ok and latency is not None:
            if state.latency_ewma is None:
                state.latency_ewma = latency
            else:
                state.latency_ewma = (
                    alpha * latency + (1.0 - alpha) * state.latency_ewma
                )
        breaker = state.breaker
        if breaker is not None:
            transition = breaker.record(ok, now)
            if transition in ("open", "reopen"):
                self._counts["breaker_opens"] += 1
                self._emit("breaker_open", now, server_id=server_id,
                           value=float(breaker.consecutive))
            elif transition == "close":
                self._counts["breaker_closes"] += 1
                self._emit("breaker_close", now, server_id=server_id)
        if state.ejected:
            if ok:
                state.probe_successes += 1
                if state.probe_successes >= config.readmit_successes:
                    self._readmit_locked(state, now)
            else:
                state.probe_successes = 0
        elif (
            config.ejection
            and state.samples >= config.min_samples
            and self._is_outlier_locked(state)
            and self._can_eject_locked()
        ):
            self._eject_locked(state, now)

    def observe(self, request) -> None:
        """Completion feed: one answered attempt of the replica it hit.

        ``ok`` is an answer that is neither shed nor an error; its
        latency is the send-to-response time.
        """
        server_id = request.server_id
        if server_id is None:
            return
        ok = request.error is None and not request.shed
        now = request.response_received_at
        sent_at = request.sent_at
        self.record_attempt(
            server_id,
            now - sent_at if ok and sent_at is not None else None,
            ok,
            now,
        )

    def _is_outlier_locked(self, state: _ReplicaState) -> bool:
        config = self.config
        if state.failure_ewma >= config.failure_rate_threshold:
            return True
        if config.latency_factor is None or state.latency_ewma is None:
            return False
        peers = sorted(
            other.latency_ewma
            for other in self._states.values()
            if other is not state
            and not other.ejected
            and other.latency_ewma is not None
            and other.samples >= config.min_samples
        )
        if not peers:
            return False
        median = peers[len(peers) // 2]
        return median > 0.0 and state.latency_ewma > (
            config.latency_factor * median
        )

    def _can_eject_locked(self) -> bool:
        ejected = sum(1 for s in self._states.values() if s.ejected)
        return (ejected + 1) <= (
            self.config.max_ejected_fraction * len(self._states)
        )

    def _eject_locked(self, state: _ReplicaState, now: float) -> None:
        state.ejected = True
        state.probe_successes = 0
        state.skipped = 0
        self._counts["ejections"] += 1
        self._emit("eject", now, server_id=state.server_id,
                   value=state.failure_ewma)

    def _readmit_locked(self, state: _ReplicaState, now: float) -> None:
        # Probation proved K consecutive successes: start the replica's
        # statistics (and breaker) from a clean slate so the stale fault
        # window cannot immediately re-eject it.
        state.ejected = False
        state.samples = 0
        state.failure_ewma = 0.0
        state.latency_ewma = None
        state.probe_successes = 0
        state.skipped = 0
        if state.breaker is not None:
            state.breaker.state = "closed"
            state.breaker.consecutive = 0
            state.breaker.trial_inflight = False
        self._counts["readmissions"] += 1
        self._emit("readmit", now, server_id=state.server_id)

    # -- retry budget ---------------------------------------------------
    def on_first_attempt(self) -> None:
        """Credit the retry budget for one first attempt."""
        if self._budget is None:
            return
        locked(self.lock, self._budget.deposit)

    def try_spend_retry(self, now: float) -> bool:
        """Whether a retry may be sent; False = budget exhausted."""
        if self._budget is None:
            return True
        return locked(self.lock, self._spend_locked, now)

    def _spend_locked(self, now: float) -> bool:
        allowed = self._budget.try_spend()
        if not allowed:
            self._emit("budget_exhausted", now, value=self._budget.tokens)
        return allowed

    # -- inspection ------------------------------------------------------
    def view(self) -> HealthView:
        """Immutable snapshot of every replica's health record."""
        with self.lock or NO_LOCK:
            replicas = tuple(
                ReplicaHealthView(
                    server_id=state.server_id,
                    samples=state.samples,
                    failure_ewma=state.failure_ewma,
                    latency_ewma=state.latency_ewma,
                    ejected=state.ejected,
                    breaker_state=(
                        state.breaker.state
                        if state.breaker is not None
                        else "closed"
                    ),
                    probe_successes=state.probe_successes,
                )
                for _, state in sorted(self._states.items())
            )
            tokens = (
                self._budget.tokens if self._budget is not None else None
            )
        return HealthView(replicas=replicas, retry_tokens=tokens)

    def counts(self) -> Dict[str, int]:
        """Lifetime tallies of health-layer actions."""
        with self.lock or NO_LOCK:
            out = dict(self._counts)
            if self._budget is not None:
                out["retries_budgeted"] = self._budget.spent
                out["retries_denied"] = self._budget.denied
        return out

    def register_metrics(self, registry) -> None:
        """Expose tallies and budget level as callback gauges."""
        for kind in ("ejections", "readmissions", "probes", "breaker_opens",
                     "breaker_half_opens", "breaker_closes"):
            registry.gauge(
                "tb_health_events_total",
                help="Health-layer actions taken, by kind",
                fn=(lambda k=kind: self._counts[k]),
                kind=kind,
            )
        if self._budget is not None:
            budget = self._budget
            registry.gauge(
                "tb_retry_budget_tokens",
                help="Retry-budget tokens currently available",
                fn=(lambda b=budget: b.tokens),
            )
            registry.gauge(
                "tb_health_events_total",
                help="Health-layer actions taken, by kind",
                fn=(lambda b=budget: b.denied),
                kind="retries_denied",
            )
