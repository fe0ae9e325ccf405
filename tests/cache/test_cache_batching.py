"""Cache x batching: the lookup is per member of the one service stage.

The pair was rejected while the cache tier existed only in the
unbatched worker loop; with one stage it composes in both clocks.
"""

import threading

import pytest

from repro.apps.base import Application, Client
from repro.batching import BatchingConfig
from repro.core import CacheConfig, HarnessConfig, run_harness
from repro.core.config import ObservabilityConfig
from repro.sim import SimConfig, simulate_load
from repro.sim.calibration import paper_profile

PROFILE = paper_profile("xapian")
CACHE = CacheConfig(enabled=True, capacity=64)


def _sim(**kwargs):
    defaults = dict(
        qps=1.5 / PROFILE.service.mean, n_threads=1, warmup_requests=100,
        measure_requests=2000, seed=4, cache=CACHE,
    )
    defaults.update(kwargs)
    return simulate_load(PROFILE, SimConfig(**defaults))


def _batching(size, delay):
    return BatchingConfig(
        enabled=True, max_batch_size=size, max_batch_delay=delay
    )


class TestSim:
    def test_batch_of_one_is_cache_alone(self):
        alone = _sim()
        one = _sim(batching=_batching(1, 0.0))
        for name in ("sojourn", "service", "queue"):
            assert alone.stats.samples(name) == one.stats.samples(name)
        assert alone.cache_counts == one.cache_counts
        assert alone.virtual_time == one.virtual_time

    def test_batches_see_the_same_key_stream(self):
        # Keys come from their own RNG stream and one worker looks them
        # up in arrival order either way, so grouping lookups into
        # batches changes when they happen, not what they find.
        alone = _sim()
        batched = _sim(batching=_batching(8, 0.002))
        assert batched.stats.mean_batch_size > 2.0
        assert batched.cache_counts == alone.cache_counts
        assert alone.cache_counts["hits"] > 0 < alone.cache_counts["evictions"]

    def test_members_share_a_window_priced_by_its_misses(self):
        result = _sim(batching=_batching(8, 0.002))
        windows = {}
        for r in result.stats.records:
            windows.setdefault(
                (r.service_start_at, r.service_end_at), []
            ).append(r)
        mixed = [
            rs for rs in windows.values()
            if any(r.cache_hit for r in rs) and not all(r.cache_hit for r in rs)
        ]
        assert mixed  # hits and misses really rode in one batch
        all_hits = [
            rs for rs in windows.values()
            if all(r.cache_hit for r in rs) and len(rs) == rs[0].batch_size
        ]
        for rs in all_hits:
            # Nothing reached the backend: the window is hit costs only.
            assert rs[0].service_time == pytest.approx(len(rs) * CACHE.hit_cost)


class _KeyedBatchApp(Application):
    """Cycles through ``n_keys`` payloads; records what the backend saw."""

    name = "keyed-batch"

    def __init__(self, n_keys):
        self._n_keys = n_keys
        self.batches = []
        self._lock = threading.Lock()

    def setup(self):
        pass

    def process(self, payload):
        raise AssertionError("a batched server calls handle_batch")

    def handle_batch(self, payloads):
        with self._lock:
            self.batches.append(list(payloads))
        return [("value", p) for p in payloads]

    def cache_key(self, payload):
        return payload

    def make_client(self, seed=0):
        app = self

        class Cycling(Client):
            i = 0

            def next_request(self):
                self.i += 1
                return (self.i - 1) % app._n_keys

        return Cycling()


class TestLive:
    def test_only_misses_reach_handle_batch(self):
        # More keys than a batch holds, so no batch carries one twice.
        app = _KeyedBatchApp(n_keys=12)
        result = run_harness(
            app,
            HarnessConfig(
                qps=2000.0, n_threads=1, warmup_requests=0,
                measure_requests=300, seed=1,
                cache=CacheConfig(enabled=True, capacity=16, hit_cost=0.0),
                batching=_batching(8, 0.004),
                observability=ObservabilityConfig(tracing=True),
            ),
        )
        # One worker, capacity above the key count: each key misses
        # exactly once and the backend never sees it again.
        seen = [p for batch in app.batches for p in batch]
        assert sorted(seen) == list(range(12))
        assert result.cache_counts["misses"] == 12
        assert result.cache_counts["hits"] == 288
        assert all(app.batches)  # never called with nothing to do
        records = result.stats.records
        assert len(records) == 300
        hits = [r for r in records if r.cache_hit]
        assert len(hits) == 288
        assert max(r.batch_size for r in records) > 1
        # A hit carries its batch's shared service window.
        by_window = {}
        for r in records:
            by_window.setdefault(
                (r.service_start_at, r.service_end_at), []
            ).append(r)
        for members in by_window.values():
            assert len(members) == members[0].batch_size
        lookups = [
            e for e in result.obs.events
            if e.kind in ("cache_hit", "cache_miss")
        ]
        assert len(lookups) == 300
