"""Failure-aware serving policy knobs.

:class:`HealthConfig` collects every knob of the health layer —
replica health tracking, outlier ejection with probation, per-replica
circuit breakers, and the global retry budget — on one frozen
dataclass attached to ``HarnessConfig``/``SimConfig``. The default
(:data:`NO_HEALTH`) is fully disabled: the harness then constructs no
:class:`~repro.health.tracker.HealthManager` at all, so the hot paths
keep their single ``is None`` test and disabled runs stay bit-identical
to a build without this package.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

__all__ = ["HealthConfig", "NO_HEALTH"]


@dataclass(frozen=True)
class HealthConfig:
    """Failure-aware serving policy for one run.

    Attributes
    ----------
    enabled:
        Master switch. Off (the default) constructs nothing.
    ejection:
        Enable outlier ejection (skip unhealthy replicas at routing
        time). Requires ``enabled``.
    min_samples:
        Attempts a replica must have absorbed before it can be judged
        an outlier — protects cold replicas from one bad first sample.
    failure_rate_threshold:
        Eject when the failure-rate EWMA (errors + sheds + attempt
        timeouts over attempts) reaches this level.
    latency_factor:
        Eject when the replica's latency EWMA exceeds this multiple of
        the median latency EWMA of its healthy peers (requires at least
        one peer with ``min_samples``). ``None`` disables the latency
        criterion, leaving failure-rate ejection only.
    max_ejected_fraction:
        Never eject beyond this fraction of the known replica set —
        mass ejection under a global fault would otherwise concentrate
        all load on one survivor.
    probe_interval:
        Probation: every ``probe_interval``-th routing decision sends a
        probe to an ejected replica instead of skipping it.
    readmit_successes:
        Consecutive successful probes required to readmit an ejected
        replica (one failure restarts the count).
    breaker:
        Enable the per-replica circuit breaker. Requires ``enabled``.
    breaker_failures:
        Consecutive failures that trip a closed breaker open.
    breaker_reset_after:
        Seconds an open breaker waits before half-open (one trial
        request; success closes it, failure re-opens).
    retry_budget:
        Enable the global token-bucket retry budget. Requires
        ``enabled``.
    retry_budget_ratio:
        Tokens deposited per first attempt; each retry withdraws 1.0.
        0.1 caps steady-state retry amplification at ~1.1x — the known
        cure for retry storms.
    retry_budget_reserve:
        Initial tokens (and the bucket's floor capacity), so
        low-traffic clients can still retry isolated failures.
    retry_budget_cap:
        Bucket ceiling; bounds the burst of retries a long healthy
        period can bank.
    """

    enabled: bool = False
    ejection: bool = True
    min_samples: int = 10
    failure_rate_threshold: float = 0.5
    latency_factor: Optional[float] = None
    max_ejected_fraction: float = 0.5
    probe_interval: int = 20
    readmit_successes: int = 3
    breaker: bool = True
    breaker_failures: int = 5
    breaker_reset_after: float = 1.0
    retry_budget: bool = True
    retry_budget_ratio: float = 0.1
    retry_budget_reserve: float = 10.0
    retry_budget_cap: float = 100.0

    def __post_init__(self) -> None:
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if not 0.0 < self.failure_rate_threshold <= 1.0:
            raise ValueError("failure_rate_threshold must be in (0, 1]")
        if self.latency_factor is not None and self.latency_factor <= 1.0:
            raise ValueError("latency_factor must be > 1 (or None)")
        if not 0.0 <= self.max_ejected_fraction < 1.0:
            raise ValueError("max_ejected_fraction must be in [0, 1)")
        if self.probe_interval < 1:
            raise ValueError("probe_interval must be >= 1")
        if self.readmit_successes < 1:
            raise ValueError("readmit_successes must be >= 1")
        if self.breaker_failures < 1:
            raise ValueError("breaker_failures must be >= 1")
        if self.breaker_reset_after <= 0:
            raise ValueError("breaker_reset_after must be positive")
        if not 0.0 < self.retry_budget_ratio <= 1.0:
            raise ValueError("retry_budget_ratio must be in (0, 1]")
        if self.retry_budget_reserve < 0:
            raise ValueError("retry_budget_reserve must be >= 0")
        if self.retry_budget_cap < self.retry_budget_reserve:
            raise ValueError("retry_budget_cap must be >= reserve")

    def replace(self, **changes) -> "HealthConfig":
        return dataclasses.replace(self, **changes)


#: Default: the health layer entirely off (hot paths stay bare).
NO_HEALTH = HealthConfig()
