"""``repro.cache`` — the pluggable request/result caching tier.

The canonical lever that shapes serving tails at scale: a cache in
front of the backend turns the Zipf-skewed head of the request
popularity distribution into near-zero-cost hits, and its failure
modes (cold-cache restart, expiry-driven load spikes) are themselves
tail generators worth reproducing (Dean & Barroso, "The Tail at
Scale"). See DESIGN.md §13.

Layering:

- :mod:`~repro.cache.policies` — LRU / LFU / TTL-wrapped / TinyLFU
  replacement and admission behind one :class:`CachePolicy` seam.
- :class:`~repro.cache.request_cache.RequestCache` — the thread-safe
  counting/tracing front both execution modes share.
- :mod:`~repro.cache.analysis` — the closed-form Zipf hit-rate
  prediction ``fig-cache`` validates against.

Apps opt in per request via ``Application.cache_key`` (None =
uncacheable); configuration is ``HarnessConfig.cache`` /
``SimConfig.cache`` (:class:`repro.core.CacheConfig`).
"""

from .analysis import capacity_for_hit_rate, predicted_hit_rate
from .policies import (
    CachePolicy,
    FrequencySketch,
    LFUCache,
    LRUCache,
    TinyLFUCache,
    TTLCache,
    make_policy,
)
from .request_cache import RequestCache

__all__ = [
    "CachePolicy",
    "FrequencySketch",
    "LFUCache",
    "LRUCache",
    "RequestCache",
    "TTLCache",
    "TinyLFUCache",
    "build_cache",
    "capacity_for_hit_rate",
    "make_policy",
    "predicted_hit_rate",
]


def build_cache(config, tracer=None) -> RequestCache:
    """Construct the tier for an enabled ``CacheConfig``."""
    if not config.enabled:
        raise ValueError("build_cache needs an enabled CacheConfig")
    policy = make_policy(config.policy, config.capacity, ttl=config.ttl)
    return RequestCache(
        policy,
        hit_cost=config.hit_cost,
        clear_at=config.clear_at,
        tracer=tracer,
    )
