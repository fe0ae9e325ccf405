"""Caching tier: Zipf hit rates, cold-restart spike, policy op cost.

The deterministic half runs the virtual-time simulator — hit rates
depend only on seeded RNG streams, so they are pinned exactly
(``PINNED_HIT_RATES``) and reproduce across machines. The wall-clock
half times raw policy lookup/store ops via pytest-benchmark and is
not judged.

Run:  pytest benchmarks/bench_cache.py --benchmark-only
The rendered table lands in benchmarks/results/cache_hit_rates.txt.
"""

import dataclasses
import random

import pytest

from repro.cache import make_policy, predicted_hit_rate
from repro.cache.policies import HIT
from repro.core import CacheConfig
from repro.sim import SimConfig, simulate_load
from repro.sim.calibration import paper_profile
from repro.stats import ZipfianGenerator

KEYSPACE = 512
THETA = 0.9
MEASURE_REQUESTS = 5000

#: (policy, capacity fraction) -> simulated hit rate at the constants
#: above and seed 0. A change here is a change to the cache, the Zipf
#: key stream or the simulator's seeding, never noise.
PINNED_HIT_RATES = {
    ("lru", 0.05): 0.3216363636363636,
    ("lfu", 0.05): 0.4712727272727273,
    ("tinylfu", 0.05): 0.4092727272727273,
    ("lru", 0.20): 0.5950909090909091,
    ("lfu", 0.20): 0.6721818181818182,
    ("tinylfu", 0.20): 0.6472727272727272,
}
PINNED_PREDICTED_C20 = 0.699496311398202


def _hit_rate(counts):
    looked = counts["hits"] + counts["misses"]
    return counts["hits"] / looked if looked else 0.0


def test_cache_hit_rates(benchmark, save_result):
    """Measured sim hit rates vs the closed form, plus policy op cost."""
    profile = paper_profile("xapian")
    base = SimConfig(
        qps=0.5 / profile.service.mean,
        n_threads=1,
        configuration="integrated",
        warmup_requests=500,
        measure_requests=MEASURE_REQUESTS,
        seed=0,
    )

    rates = {}
    for policy in ("lru", "lfu", "tinylfu"):
        for fraction in (0.05, 0.20):
            capacity = max(1, int(KEYSPACE * fraction))
            result = simulate_load(
                profile,
                dataclasses.replace(
                    base,
                    cache=CacheConfig(
                        enabled=True,
                        policy=policy,
                        capacity=capacity,
                        sim_keyspace=KEYSPACE,
                        sim_theta=THETA,
                    ),
                ),
            )
            rates[(policy, fraction)] = _hit_rate(result.cache_counts)

    lines = [
        f"cache hit rates (sim, keyspace={KEYSPACE}, theta={THETA}):"
    ]
    for (policy, fraction), rate in sorted(rates.items()):
        capacity = max(1, int(KEYSPACE * fraction))
        predicted = predicted_hit_rate(KEYSPACE, THETA, capacity)
        lines.append(
            f"  {policy:8s} C={fraction:.0%} ({capacity:3d}): "
            f"measured={rate:.3f}  closed-form={predicted:.3f}"
        )
    report = "\n".join(lines)
    print(report)
    save_result("cache_hit_rates", report)

    # Wall-clock op cost: one Zipfian lookup+store cycle against LRU.
    policy = make_policy("lru", 128)
    zipf = ZipfianGenerator(KEYSPACE, theta=THETA)
    rng = random.Random(0)

    def one_op():
        key = zipf.sample(rng)
        status, _ = policy.lookup(key, 0.0)
        if status != HIT:
            policy.store(key, True, 0.0)

    benchmark(one_op)

    # Sanity: frequency-aware policies beat LRU under Zipf, and every
    # measured rate respects the frequency-optimal bound (plus noise).
    for fraction in (0.05, 0.20):
        capacity = max(1, int(KEYSPACE * fraction))
        bound = predicted_hit_rate(KEYSPACE, THETA, capacity)
        assert rates[("lfu", fraction)] > rates[("lru", fraction)]
        for policy_name in ("lru", "lfu", "tinylfu"):
            assert rates[(policy_name, fraction)] <= bound + 0.02

    assert rates == pytest.approx(PINNED_HIT_RATES, abs=1e-9)
    assert predicted_hit_rate(
        KEYSPACE, THETA, int(KEYSPACE * 0.20)
    ) == pytest.approx(PINNED_PREDICTED_C20, abs=1e-9)
