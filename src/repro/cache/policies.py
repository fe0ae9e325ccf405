"""Replacement and admission policies behind one ``CachePolicy`` seam.

The caching tier (DESIGN.md §13) separates *what* is kept from *how*
the keeper decides: :class:`RequestCache` owns thread-safety, counters
and trace emission, while everything below this interface is a pure
single-threaded data structure the simulator can drive deterministically
in virtual time.

Contract (all times are caller-supplied seconds, monotone per run):

- ``lookup(key, now) -> (status, value)`` with status one of ``"hit"``,
  ``"miss"``, ``"expired"``. An expired entry is removed as a side
  effect; the caller treats it as a miss with its own counter.
- ``store(key, value, now) -> (admitted, evicted_keys)``. Admission may
  be refused (TinyLFU); eviction may remove any number of residents.
- ``discard`` / ``clear`` / ``__len__`` do what they say.

Determinism matters here: the TinyLFU sketch hashes with ``zlib.crc32``
over ``repr(key)`` rather than built-in ``hash()``, whose string values
change per process (``PYTHONHASHSEED``) and would break the repo's
bit-identity discipline.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Tuple

__all__ = [
    "CachePolicy",
    "LRUCache",
    "LFUCache",
    "TTLCache",
    "TinyLFUCache",
    "FrequencySketch",
    "make_policy",
]

#: ``lookup`` statuses.
HIT = "hit"
MISS = "miss"
EXPIRED = "expired"


class CachePolicy:
    """Interface every replacement/admission policy implements."""

    capacity: int

    def lookup(self, key: Hashable, now: float) -> Tuple[str, Any]:
        raise NotImplementedError

    def store(
        self, key: Hashable, value: Any, now: float
    ) -> Tuple[bool, List[Hashable]]:
        raise NotImplementedError

    def discard(self, key: Hashable) -> None:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class LRUCache(CachePolicy):
    """Least-recently-used replacement over an ordered dict."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    def lookup(self, key: Hashable, now: float) -> Tuple[str, Any]:
        try:
            value = self._data[key]
        except KeyError:
            return MISS, None
        self._data.move_to_end(key)
        return HIT, value

    def store(
        self, key: Hashable, value: Any, now: float
    ) -> Tuple[bool, List[Hashable]]:
        evicted: List[Hashable] = []
        if key in self._data:
            self._data.move_to_end(key)
            self._data[key] = value
            return True, evicted
        while len(self._data) >= self.capacity:
            victim, _ = self._data.popitem(last=False)
            evicted.append(victim)
        self._data[key] = value
        return True, evicted

    def discard(self, key: Hashable) -> None:
        self._data.pop(key, None)

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


class LFUCache(CachePolicy):
    """Perfect-LFU replacement: frequencies persist across eviction.

    Every ``lookup`` — hit or miss — counts toward the key's lifetime
    frequency, and eviction never erases that history, so a popular key
    that gets displaced does not restart from zero (the tenure-reset
    churn that makes naive in-cache LFU undershoot the static optimum).
    A store that would evict is admitted only when the candidate's
    count strictly exceeds the coldest resident's, so one-hit wonders
    are refused rather than cycled through.

    Under a static Zipfian popularity this converges to caching exactly
    the top-C most popular keys, which is what makes the closed-form
    hit-rate prediction (:func:`repro.cache.predicted_hit_rate`) tight.
    The price is O(distinct keys) counter metadata — fine for the
    bounded keyspaces this repo serves; :class:`TinyLFUCache` is the
    bounded-memory approximation of the same idea. Eviction scans all
    residents for the minimum ``(frequency, age)`` pair — O(capacity),
    trivially auditable at benchmark-scale capacities.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._data: Dict[Hashable, Any] = {}
        self._freq: Dict[Hashable, int] = {}
        self._stamp: Dict[Hashable, int] = {}
        self._tick = 0

    def lookup(self, key: Hashable, now: float) -> Tuple[str, Any]:
        self._freq[key] = self._freq.get(key, 0) + 1
        try:
            value = self._data[key]
        except KeyError:
            return MISS, None
        return HIT, value

    def store(
        self, key: Hashable, value: Any, now: float
    ) -> Tuple[bool, List[Hashable]]:
        evicted: List[Hashable] = []
        if key in self._data:
            self._data[key] = value
            return True, evicted
        if len(self._data) >= self.capacity:
            victim = min(
                self._data, key=lambda k: (self._freq[k], self._stamp[k])
            )
            if self._freq.get(key, 0) <= self._freq[victim]:
                return False, evicted
            del self._data[victim]
            self._stamp.pop(victim, None)
            evicted.append(victim)
        self._tick += 1
        self._data[key] = value
        self._stamp[key] = self._tick
        return True, evicted

    def discard(self, key: Hashable) -> None:
        # Drops the value, not the frequency history: discard models an
        # entry going away (expiry, invalidation), not amnesia.
        self._data.pop(key, None)
        self._stamp.pop(key, None)

    def clear(self) -> None:
        # A cold restart loses everything, history included.
        self._data.clear()
        self._freq.clear()
        self._stamp.clear()
        self._tick = 0

    def __len__(self) -> int:
        return len(self._data)


class TTLCache(CachePolicy):
    """Expiry wrapper: bounds staleness of any inner policy's entries.

    Entries carry an ``expires_at`` stamp; a lookup past it removes the
    entry and reports ``"expired"`` so the front can count expiry-driven
    misses separately from capacity misses — the distinction that makes
    expiry-driven load spikes (all popular entries aging out together)
    visible in traces.
    """

    def __init__(self, inner: CachePolicy, ttl: float) -> None:
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        self.inner = inner
        self.ttl = ttl
        self.capacity = inner.capacity

    def lookup(self, key: Hashable, now: float) -> Tuple[str, Any]:
        status, wrapped = self.inner.lookup(key, now)
        if status != HIT:
            return status, None
        value, expires_at = wrapped
        if now >= expires_at:
            self.inner.discard(key)
            return EXPIRED, None
        return HIT, value

    def store(
        self, key: Hashable, value: Any, now: float
    ) -> Tuple[bool, List[Hashable]]:
        return self.inner.store(key, (value, now + self.ttl), now)

    def discard(self, key: Hashable) -> None:
        self.inner.discard(key)

    def clear(self) -> None:
        self.inner.clear()

    def __len__(self) -> int:
        return len(self.inner)


class FrequencySketch:
    """Count-min sketch with periodic halving (TinyLFU's aging).

    Four salted CRC32 rows; estimates are upper bounds whose error
    shrinks with ``width``. After ``sample_size`` increments every
    counter is halved, so the sketch tracks *recent* popularity instead
    of accumulating history forever.
    """

    ROWS = 4

    def __init__(self, width: int, sample_size: int) -> None:
        if width < 1:
            raise ValueError("width must be >= 1")
        if sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        self.width = width
        self.sample_size = sample_size
        self._rows = [[0] * width for _ in range(self.ROWS)]
        self._additions = 0

    def _indexes(self, key: Hashable) -> List[int]:
        data = repr(key).encode("utf-8")
        return [
            zlib.crc32(data, 0x9E3779B9 * (row + 1) & 0xFFFFFFFF) % self.width
            for row in range(self.ROWS)
        ]

    def increment(self, key: Hashable) -> None:
        for row, idx in zip(self._rows, self._indexes(key)):
            row[idx] += 1
        self._additions += 1
        if self._additions >= self.sample_size:
            self._age()

    def estimate(self, key: Hashable) -> int:
        return min(
            row[idx] for row, idx in zip(self._rows, self._indexes(key))
        )

    def _age(self) -> None:
        for row in self._rows:
            for i, v in enumerate(row):
                row[i] = v >> 1
        self._additions //= 2

    def clear(self) -> None:
        for row in self._rows:
            for i in range(len(row)):
                row[i] = 0
        self._additions = 0


class TinyLFUCache(CachePolicy):
    """LRU residence gated by frequency-sketch admission (TinyLFU).

    Every lookup feeds the sketch. On a store that would evict, the
    candidate is admitted only if its estimated frequency *exceeds* the
    LRU victim's — one-hit wonders never displace a warm working set,
    which is the scan-resistance property plain LRU lacks.
    """

    def __init__(self, capacity: int, sample_factor: int = 8) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lru = LRUCache(capacity)
        self.sketch = FrequencySketch(
            width=max(64, 4 * capacity),
            sample_size=max(2, sample_factor) * capacity,
        )

    def lookup(self, key: Hashable, now: float) -> Tuple[str, Any]:
        self.sketch.increment(key)
        return self._lru.lookup(key, now)

    def store(
        self, key: Hashable, value: Any, now: float
    ) -> Tuple[bool, List[Hashable]]:
        if key in self._lru._data or len(self._lru) < self.capacity:
            return self._lru.store(key, value, now)
        victim = next(iter(self._lru._data))
        if self.sketch.estimate(key) <= self.sketch.estimate(victim):
            return False, []
        return self._lru.store(key, value, now)

    def discard(self, key: Hashable) -> None:
        self._lru.discard(key)

    def clear(self) -> None:
        self._lru.clear()
        self.sketch.clear()

    def __len__(self) -> int:
        return len(self._lru)


def make_policy(
    policy: str, capacity: int, ttl=None
) -> CachePolicy:
    """Build the policy chain for a :class:`~repro.core.CacheConfig`.

    ``policy`` picks the replacement structure (``"ttl"`` is LRU
    residence with a required expiry); a non-None ``ttl`` wraps any of
    them in :class:`TTLCache`.
    """
    if policy in ("lru", "ttl"):
        base: CachePolicy = LRUCache(capacity)
    elif policy == "lfu":
        base = LFUCache(capacity)
    elif policy == "tinylfu":
        base = TinyLFUCache(capacity)
    else:
        raise ValueError(f"unknown cache policy: {policy!r}")
    if policy == "ttl" and ttl is None:
        raise ValueError('policy "ttl" requires a ttl')
    if ttl is not None:
        return TTLCache(base, ttl)
    return base
