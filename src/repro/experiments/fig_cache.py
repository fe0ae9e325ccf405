"""Caching extension: Zipf closed-form hit rates and the cold-cache spike.

Three claims about the caching tier (:mod:`repro.cache`), each checked
by its own verdict:

1. **Closed-form hit rate.** Under Zipfian popularity with exponent
   theta, a frequency-optimal cache of capacity C holds exactly the C
   most popular keys, so its steady-state hit rate is the sum of the
   top-C popularity mass (:func:`repro.cache.predicted_hit_rate`).
   Sweeping C in {1%, 5%, 20%} of the keyspace, the measured LFU hit
   rate must land within 5% *absolute* of that prediction — in the
   simulator (synthetic Zipf key stream) and, when the live mode runs,
   in the real harness serving vsearch (whose client draws query ids
   from the same Zipfian family). The LRU arm is reported alongside:
   it sits *below* the closed form by construction, because LRU pays
   recency churn the frequency-optimal bound ignores — the gap is the
   policy cost made visible, not a measurement error.

2. **Cold-cache restart spike.** A cached system sized so that the
   *miss* load exceeds capacity is metastable: wiping the cache
   mid-run (``CacheConfig.clear_at`` — a restart that loses cache
   state) sends every request back to full service, the replica
   overloads, and queues push p99 far above the warm arm until the
   popular keys are re-admitted. The verdict: windowed p99 in the
   post-clear recovery window is >= 2x the warm arm's in the same
   window. This is Dean & Barroso's cold-cache failure mode in
   miniature, and the reason caches in front of latency-critical
   tiers are capacity liabilities as much as latency assets.

3. **Bit-identity off.** A run with the cache disabled must be
   bit-identical (fingerprinted samples, outcomes, routing) to a run
   whose config never mentions the cache, per seed — the repo's
   discipline that an off subsystem costs nothing and changes nothing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..cache import predicted_hit_rate
from ..core import CacheConfig, HarnessConfig, run_harness
from ..sim import SimConfig, simulate_load
from ..sim.calibration import paper_profile
from ..stats import quantile
from .reporting import ascii_table

__all__ = [
    "HitRatePoint",
    "ColdRestart",
    "CacheComparison",
    "run_fig_cache",
    "render_fig_cache",
    "DEFAULT_CAPACITY_FRACTIONS",
]

#: Cache capacity as a fraction of the keyspace — the sweep of claim 1.
DEFAULT_CAPACITY_FRACTIONS: Tuple[float, ...] = (0.01, 0.05, 0.20)

#: Synthetic key stream for the sim arms (matches CacheConfig defaults
#: for theta; keyspace sized so 1% capacity is still a real cache).
_SIM_KEYSPACE = 512
_THETA = 0.9

#: Live arm: vsearch query pool = the cacheable keyspace.
_LIVE_KEYSPACE = 256
_LIVE_VECTORS = 2048
_LIVE_NPROBE = 4


@dataclass(frozen=True)
class HitRatePoint:
    """One (mode, policy, capacity) cell: measured vs predicted."""

    mode: str
    policy: str
    fraction: float
    capacity: int
    keyspace: int
    measured: float
    predicted: float
    hits: int
    misses: int

    @property
    def error(self) -> float:
        """Absolute hit-rate error vs the closed form."""
        return abs(self.measured - self.predicted)


@dataclass(frozen=True)
class ColdRestart:
    """Warm-vs-cold arms of the restart experiment (sim)."""

    qps: float
    capacity: int
    clear_at: float
    window: float
    #: p99 sojourn inside the recovery window, per arm.
    warm_window_p99: float
    cold_window_p99: float
    #: Whole-run p99 per arm, for context.
    warm_p99: float
    cold_p99: float

    @property
    def spike_ratio(self) -> float:
        return self.cold_window_p99 / self.warm_window_p99


@dataclass(frozen=True)
class CacheComparison:
    """All three claims' evidence, both modes."""

    fractions: Tuple[float, ...]
    theta: float
    points: Tuple[HitRatePoint, ...]
    cold: Optional[ColdRestart]
    #: Is a cache-disabled run bit-identical to a config that never
    #: mentions the cache, at every probed seed? None if sim didn't run.
    disabled_identical: Optional[bool] = None

    def hit_rate_agreement(self, tolerance: float = 0.05) -> bool:
        """Is every LFU arm within ``tolerance`` absolute of the
        closed-form prediction, in every mode that ran?"""
        return all(
            point.error <= tolerance
            for point in self.points
            if point.policy == "lfu"
        )

    def cold_spike(self, ratio: float = 2.0) -> bool:
        """Did the cold-cache arm spike >= ``ratio`` x the warm arm's
        p99 inside the recovery window?"""
        return self.cold is not None and self.cold.spike_ratio >= ratio


def _hit_rate(counts: Dict[str, int]) -> float:
    looked = counts.get("hits", 0) + counts.get("misses", 0)
    return counts.get("hits", 0) / looked if looked else 0.0


def _windowed_p99(result, start: float, end: float) -> float:
    """p99 sojourn among completions generated inside [start, end)."""
    values = [
        r.sojourn_time
        for r in result.stats.records
        if start <= r.generated_at < end
    ]
    return quantile(values, 0.99) if values else float("nan")


def run_fig_cache(
    measure_requests: int = 8000,
    seed: int = 0,
    fractions: Tuple[float, ...] = DEFAULT_CAPACITY_FRACTIONS,
    modes: Tuple[str, ...] = ("live", "sim"),
) -> CacheComparison:
    """Sweep cache capacity through the simulator and the live harness.

    The sim arms drive the synthetic Zipf key stream against the
    calibrated xapian profile at moderate load (hit rates are
    load-independent, so the load only buys runtime). The live arm
    serves real vsearch queries — the app's own Zipfian client supplies
    the popularity, and ``VsearchApp.cache_key`` the keys.
    """
    warmup = max(100, measure_requests // 10)
    points = []
    cold: Optional[ColdRestart] = None
    disabled_identical: Optional[bool] = None

    if "sim" in modes:
        profile = paper_profile("xapian")
        qps = 0.5 / profile.service.mean
        base = SimConfig(
            qps=qps,
            n_threads=1,
            configuration="integrated",
            warmup_requests=warmup,
            measure_requests=measure_requests,
            seed=seed,
        )
        for fraction in fractions:
            capacity = max(1, int(_SIM_KEYSPACE * fraction))
            for policy in ("lru", "lfu"):
                result = simulate_load(
                    profile,
                    dataclasses.replace(
                        base,
                        cache=CacheConfig(
                            enabled=True,
                            policy=policy,
                            capacity=capacity,
                            sim_keyspace=_SIM_KEYSPACE,
                            sim_theta=_THETA,
                        ),
                    ),
                )
                points.append(
                    HitRatePoint(
                        mode="sim",
                        policy=policy,
                        fraction=fraction,
                        capacity=capacity,
                        keyspace=_SIM_KEYSPACE,
                        measured=_hit_rate(result.cache_counts),
                        predicted=predicted_hit_rate(
                            _SIM_KEYSPACE, _THETA, capacity
                        ),
                        hits=result.cache_counts["hits"],
                        misses=result.cache_counts["misses"],
                    )
                )

        cold = _run_cold_restart(profile, measure_requests, seed)

        # Claim 3: disabled == never-mentioned, per seed, plus rerun
        # determinism of the never-mentioned config itself.
        disabled_identical = True
        for probe_seed in (seed, seed + 1):
            plain = dataclasses.replace(base, seed=probe_seed)
            explicit = dataclasses.replace(
                plain, cache=CacheConfig(enabled=False)
            )
            fp = simulate_load(profile, plain).fingerprint()
            if fp != simulate_load(profile, explicit).fingerprint():
                disabled_identical = False
            if fp != simulate_load(profile, plain).fingerprint():
                disabled_identical = False

    if "live" in modes:
        from ..apps.vsearch import VsearchApp

        app = VsearchApp(
            n_vectors=_LIVE_VECTORS,
            nprobe=_LIVE_NPROBE,
            n_queries=_LIVE_KEYSPACE,
            theta=_THETA,
            seed=seed,
        )
        app.setup()
        live_measure = min(measure_requests, 5000)
        for fraction in fractions:
            capacity = max(1, int(_LIVE_KEYSPACE * fraction))
            result = run_harness(
                app,
                HarnessConfig(
                    configuration="integrated",
                    qps=600.0,
                    n_threads=1,
                    warmup_requests=warmup,
                    measure_requests=live_measure,
                    seed=seed,
                    cache=CacheConfig(
                        enabled=True, policy="lfu", capacity=capacity
                    ),
                ),
            )
            points.append(
                HitRatePoint(
                    mode="live",
                    policy="lfu",
                    fraction=fraction,
                    capacity=capacity,
                    keyspace=_LIVE_KEYSPACE,
                    measured=_hit_rate(result.cache_counts),
                    predicted=predicted_hit_rate(
                        _LIVE_KEYSPACE, _THETA, capacity
                    ),
                    hits=result.cache_counts["hits"],
                    misses=result.cache_counts["misses"],
                )
            )

    return CacheComparison(
        fractions=tuple(fractions),
        theta=_THETA,
        points=tuple(points),
        cold=cold,
        disabled_identical=disabled_identical,
    )


def _run_cold_restart(
    profile, measure_requests: int, seed: int
) -> ColdRestart:
    """Claim 2: size the load so the warm cache carries it and the
    cold cache cannot.

    Capacity 20% of the keyspace gives a warm hit rate around 0.67,
    so at ``qps = 1.3 / mean_service`` the warm effective utilization
    is ~0.45 while the all-miss utilization is 1.3 — transient
    overload until the popular keys are re-admitted.
    """
    warmup = max(100, measure_requests // 10)
    capacity = max(1, int(_SIM_KEYSPACE * 0.20))
    qps = 1.3 / profile.service.mean
    # Arrivals span ~(warmup + measure) / qps seconds of virtual time;
    # clear at the midpoint, judge the next quarter of the run.
    span = (warmup + measure_requests) / qps
    clear_at = 0.5 * span
    window = 0.25 * span
    base = SimConfig(
        qps=qps,
        n_threads=1,
        configuration="integrated",
        warmup_requests=warmup,
        measure_requests=measure_requests,
        seed=seed,
    )
    warm_cfg = dataclasses.replace(
        base,
        cache=CacheConfig(
            enabled=True,
            policy="lfu",
            capacity=capacity,
            sim_keyspace=_SIM_KEYSPACE,
            sim_theta=_THETA,
        ),
    )
    cold_cfg = dataclasses.replace(
        warm_cfg,
        cache=dataclasses.replace(warm_cfg.cache, clear_at=clear_at),
    )
    warm = simulate_load(profile, warm_cfg)
    cold_run = simulate_load(profile, cold_cfg)
    return ColdRestart(
        qps=qps,
        capacity=capacity,
        clear_at=clear_at,
        window=window,
        warm_window_p99=_windowed_p99(warm, clear_at, clear_at + window),
        cold_window_p99=_windowed_p99(cold_run, clear_at, clear_at + window),
        warm_p99=quantile(warm.stats.samples(), 0.99),
        cold_p99=quantile(cold_run.stats.samples(), 0.99),
    )


def render_fig_cache(result: CacheComparison) -> str:
    headers = [
        "mode", "policy", "C/keyspace", "capacity", "measured",
        "predicted", "abs err",
    ]
    rows = []
    for point in result.points:
        rows.append([
            point.mode,
            point.policy,
            f"{point.fraction:.0%} of {point.keyspace}",
            str(point.capacity),
            f"{point.measured:.1%}",
            f"{point.predicted:.1%}",
            f"{point.error:.1%}",
        ])
    table = ascii_table(
        headers,
        rows,
        title=(
            "Cache: measured hit rate vs closed-form Zipf prediction "
            f"(theta={result.theta:g})"
        ),
    )
    lines = [table]
    lines.append(
        "LFU hit rate within 5% absolute of the closed-form prediction "
        "at every capacity, every mode"
        if result.hit_rate_agreement()
        else "WARNING: LFU hit rate off by >5% absolute somewhere"
    )
    lru_points = [p for p in result.points if p.policy == "lru"]
    if lru_points and all(
        p.measured <= p.predicted + 0.02 for p in lru_points
    ):
        lines.append(
            "LRU sits at or below the frequency-optimal bound "
            "(recency churn), as expected"
        )
    if result.cold is not None:
        c = result.cold
        lines.append(
            f"cold restart (clear at {c.clear_at:.1f}s, capacity "
            f"{c.capacity}): recovery-window p99 "
            f"{c.cold_window_p99 * 1e3:.1f}ms vs warm "
            f"{c.warm_window_p99 * 1e3:.1f}ms — "
            f"{c.spike_ratio:.1f}x spike "
            f"(whole-run p99 {c.cold_p99 * 1e3:.1f}ms vs "
            f"{c.warm_p99 * 1e3:.1f}ms)"
        )
        lines.append(
            "cold-cache spike >= 2x the warm arm in the recovery window"
            if result.cold_spike()
            else "WARNING: cold-cache spike below 2x"
        )
    if result.disabled_identical is not None:
        lines.append(
            "sim: cache-disabled run bit-identical to a config that "
            "never mentions the cache, per seed"
            if result.disabled_identical
            else "WARNING: cache-disabled run diverges from baseline"
        )
    return "\n".join(lines)
