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
from typing import Tuple

from ..cache import predicted_hit_rate
from ..core import CacheConfig, HarnessConfig, run_harness
from ..sim import SimConfig, SimResult, simulate_load
from ..sim.calibration import paper_profile
from ..stats import quantile
from .figure import Arm, Report, claim, run_figure

__all__ = ["run_fig_cache", "DEFAULT_CAPACITY_FRACTIONS"]

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


def _measure(result) -> dict:
    cache, counts = result.config.cache, result.cache_counts
    keyspace = (
        cache.sim_keyspace if isinstance(result, SimResult) else _LIVE_KEYSPACE
    )
    hits, misses = counts.get("hits", 0), counts.get("misses", 0)
    measured = hits / (hits + misses) if hits + misses else 0.0
    predicted = predicted_hit_rate(keyspace, _THETA, cache.capacity)
    return dict(
        policy=cache.policy,
        capacity=cache.capacity,
        keyspace=keyspace,
        measured=measured,
        predicted=predicted,
        # Absolute hit-rate error vs the closed form.
        error=abs(measured - predicted),
    )


def _windowed_p99(result, start: float, end: float) -> float:
    """p99 sojourn among completions generated inside [start, end)."""
    values = [
        r.sojourn_time
        for r in result.stats.records
        if start <= r.generated_at < end
    ]
    return quantile(values, 0.99) if values else float("nan")


def _sim_cache(policy: str, capacity: int) -> CacheConfig:
    return CacheConfig(
        enabled=True,
        policy=policy,
        capacity=capacity,
        sim_keyspace=_SIM_KEYSPACE,
        sim_theta=_THETA,
    )


def run_fig_cache(
    measure_requests: int = 8000,
    seed: int = 0,
    fractions: Tuple[float, ...] = DEFAULT_CAPACITY_FRACTIONS,
    modes: Tuple[str, ...] = ("live", "sim"),
) -> Report:
    """Sweep cache capacity through the simulator and the live harness.

    The sim arms drive the synthetic Zipf key stream against the
    calibrated xapian profile at moderate load (hit rates are
    load-independent, so the load only buys runtime). The live arm
    serves real vsearch queries — the app's own Zipfian client supplies
    the popularity, and ``VsearchApp.cache_key`` the keys.
    """
    profile = paper_profile("xapian")
    base = dict(
        warmup_requests=max(100, measure_requests // 10),
        seed=seed,
    )
    sim = dict(qps=0.5 / profile.service.mean, measure_requests=measure_requests)
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

    def run(mode, **fields):
        if mode == "sim":
            return simulate_load(profile, SimConfig(**fields))
        return run_harness(app, HarnessConfig(**fields))

    arms = [
        Arm(f"{policy} {fraction:g}", dict(
            sim, cache=_sim_cache(policy, max(1, int(_SIM_KEYSPACE * fraction)))
        ), modes=("sim",))
        for fraction in fractions
        for policy in ("lru", "lfu")
    ] + [
        Arm(f"lfu {fraction:g}", dict(
            qps=600.0,
            measure_requests=min(measure_requests, 5000),
            cache=CacheConfig(
                enabled=True,
                policy="lfu",
                capacity=max(1, int(_LIVE_KEYSPACE * fraction)),
            ),
        ), modes=("live",))
        for fraction in fractions
    ]

    cold = identical = None
    if "sim" in modes:
        plain = SimConfig(**base, **sim)
        cold = _run_cold_restart(profile, plain)
        # Claim 3: disabled == never-mentioned, per seed, plus rerun
        # determinism of the never-mentioned config itself.
        def fingerprints(config):
            disabled = dataclasses.replace(
                config, cache=CacheConfig(enabled=False)
            )
            return [
                simulate_load(profile, c).fingerprint()
                for c in (config, disabled, config)
            ]

        identical = all(
            a == b == c
            for a, b, c in (
                fingerprints(dataclasses.replace(plain, seed=probe_seed))
                for probe_seed in (seed, seed + 1)
            )
        )

    def hit_rates(series, judged):
        return claim(
            all(r.error <= 0.05 for r in series if r.policy == "lfu"),
            "LFU hit rate within 5% absolute of the closed-form prediction "
            "at every capacity, every mode",
            "LFU hit rate off by >5% absolute somewhere",
            judged,
        )

    def claims(rows):
        live, sim = (list(rows[mode].values()) for mode in ("live", "sim"))
        # Judged on the simulator; live arms are reported.
        out = [hit_rates(sim or live, judged=bool(sim))]
        if sim and live:
            out.append((None, f"live: {hit_rates(live, False)[1]}"))
        lru = [r for r in sim if r.policy == "lru"]
        if lru and all(r.measured <= r.predicted + 0.02 for r in lru):
            out.append((None, "LRU sits at or below the frequency-optimal "
                        "bound (recency churn), as expected"))
        if cold is not None:
            spike = cold["cold_window_p99"] / cold["warm_window_p99"]
            out.append((None, (
                f"cold restart (clear at {cold['clear_at']:.1f}s, capacity "
                f"{cold['capacity']}): recovery-window p99 "
                f"{cold['cold_window_p99'] * 1e3:.1f}ms vs warm "
                f"{cold['warm_window_p99'] * 1e3:.1f}ms — {spike:.1f}x "
                f"spike (whole-run p99 {cold['cold_p99'] * 1e3:.1f}ms vs "
                f"{cold['warm_p99'] * 1e3:.1f}ms)"
            )))
            out.append(claim(
                spike >= 2.0,
                "cold-cache spike >= 2x the warm arm in the recovery window",
                "cold-cache spike below 2x",
            ))
        if identical is not None:
            out.append(claim(
                identical,
                "sim: cache-disabled run bit-identical to a config that "
                "never mentions the cache, per seed",
                "cache-disabled run diverges from baseline",
            ))
        return out

    return run_figure(
        title=(
            "Cache: measured hit rate vs closed-form Zipf prediction "
            f"(theta={_THETA:g})"
        ),
        columns=(
            ("policy", "{policy}"),
            ("C/keyspace", lambda r: (
                f"{r.capacity / r.keyspace:.0%} of {r.keyspace}"
            )),
            ("capacity", "{capacity}"),
            ("measured", "{measured:.1%}"),
            ("predicted", "{predicted:.1%}"),
            ("abs err", "{error:.1%}"),
        ),
        run=run,
        base=base,
        arms=arms,
        measure=_measure,
        claims=claims,
        modes=modes,
    )


def _run_cold_restart(profile, base: SimConfig) -> dict:
    """Claim 2: size the load so the warm cache carries it and the
    cold cache cannot.

    Capacity 20% of the keyspace gives a warm hit rate around 0.67,
    so at ``qps = 1.3 / mean_service`` the warm effective utilization
    is ~0.45 while the all-miss utilization is 1.3 — transient
    overload until the popular keys are re-admitted.
    """
    capacity = max(1, int(_SIM_KEYSPACE * 0.20))
    qps = 1.3 / profile.service.mean
    # Arrivals span ~(warmup + measure) / qps seconds of virtual time;
    # clear at the midpoint, judge the next quarter of the run.
    span = (base.warmup_requests + base.measure_requests) / qps
    clear_at = 0.5 * span
    window = 0.25 * span
    warm_cfg = dataclasses.replace(
        base, qps=qps, cache=_sim_cache("lfu", capacity)
    )
    cold_cfg = dataclasses.replace(
        warm_cfg,
        cache=dataclasses.replace(warm_cfg.cache, clear_at=clear_at),
    )
    warm = simulate_load(profile, warm_cfg)
    cold_run = simulate_load(profile, cold_cfg)
    return dict(
        capacity=capacity,
        clear_at=clear_at,
        # p99 sojourn inside the recovery window, and over the whole
        # run for context, per arm.
        warm_window_p99=_windowed_p99(warm, clear_at, clear_at + window),
        cold_window_p99=_windowed_p99(cold_run, clear_at, clear_at + window),
        warm_p99=quantile(warm.stats.samples(), 0.99),
        cold_p99=quantile(cold_run.stats.samples(), 0.99),
    )
