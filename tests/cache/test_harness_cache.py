"""Live-harness integration: the worker hit path end to end."""

import statistics
import time

import pytest

from repro.apps.base import Application, Client
from repro.core import CacheConfig, HarnessConfig, ResilienceConfig, run_harness
from repro.core.config import ExecutionConfig, ObservabilityConfig
from repro.faults import FaultPlan


class _CyclingClient(Client):
    """Deterministic key stream: 0,1,...,n-1,0,1,... — every key
    repeats, so a cache of capacity >= n hits on all but the first
    pass."""

    def __init__(self, n_keys):
        self._n = n_keys
        self._i = 0

    def next_request(self):
        key = self._i % self._n
        self._i += 1
        return key


class _SleepApp(Application):
    """Keyed busy-sleep app: misses cost real time, hits must not."""

    name = "sleep-keyed"
    domain = "synthetic"

    def __init__(self, n_keys=8, service=0.002):
        self._n_keys = n_keys
        self._service = service
        self.processed = 0

    def setup(self):
        pass

    def process(self, payload):
        self.processed += 1
        time.sleep(self._service)
        return ("value", payload)

    def make_client(self, seed=0):
        return _CyclingClient(self._n_keys)

    def cache_key(self, payload):
        return payload


class _UncacheableApp(_SleepApp):
    name = "sleep-unkeyed"

    def cache_key(self, payload):
        return None


def _config(**kwargs):
    defaults = dict(
        configuration="integrated",
        qps=300.0,
        n_threads=1,
        warmup_requests=20,
        measure_requests=200,
        seed=0,
    )
    defaults.update(kwargs)
    return HarnessConfig(**defaults)


class TestWorkerHitPath:
    def test_hits_short_circuit_service(self):
        app_service = 0.002
        app = _SleepApp(n_keys=8, service=app_service)
        result = run_harness(
            app,
            _config(cache=CacheConfig(enabled=True, capacity=16,
                                      hit_cost=0.0)),
        )
        counts = result.cache_counts
        # 220 requests over 8 cycling keys: 8 compulsory misses, the
        # rest hits.
        assert counts["misses"] == 8
        assert counts["hits"] == 212
        assert app.processed == 8
        # the result records carry the flag
        flagged = [r for r in result.stats.records if r.cache_hit]
        assert flagged
        # A hit skips the app's sleep (the 8 misses all fall inside
        # the 20-request warmup, so the measured records hold hits
        # only). Judged on the median: one preempted worker moves the
        # maximum, not the median.
        hit_service = [
            r.service_time for r in result.stats.records if r.cache_hit
        ]
        assert hit_service
        assert statistics.median(hit_service) < app_service / 2
        assert "cache:" in result.describe()

    def test_uncacheable_app_bypasses_cache(self):
        app = _UncacheableApp(n_keys=8)
        result = run_harness(
            app, _config(cache=CacheConfig(enabled=True, capacity=16)),
        )
        assert result.cache_counts["hits"] == 0
        assert result.cache_counts["misses"] == 0
        assert app.processed == 220

    def test_disabled_cache_reports_no_counts(self):
        result = run_harness(_SleepApp(), _config())
        assert result.cache_counts == {}

    def test_trace_events_emitted_live(self):
        result = run_harness(
            _SleepApp(n_keys=4),
            _config(
                measure_requests=60,
                cache=CacheConfig(enabled=True, capacity=8),
                observability=ObservabilityConfig(tracing=True),
            ),
        )
        kinds = {event.kind for event in result.obs.events}
        assert "cache_hit" in kinds and "cache_miss" in kinds

    def test_cold_restart_live(self):
        # clear_at in wall seconds from run start: ~220 requests at
        # 300 qps span ~0.73s, so 0.3s lands mid-run.
        app = _SleepApp(n_keys=8)
        result = run_harness(
            app,
            _config(cache=CacheConfig(enabled=True, capacity=16,
                                      clear_at=0.3)),
        )
        # the wiped cache forces a second compulsory-miss pass
        assert result.cache_counts["misses"] >= 16
        assert app.processed >= 16


class TestHarnessComposition:
    def test_rejects_process_execution(self):
        with pytest.raises(ValueError):
            _config(
                cache=CacheConfig(enabled=True),
                execution=ExecutionConfig(mode="process"),
            )

    def test_cache_with_resilience_and_faults_runs_live(self):
        # The composition the simulator accepts too (tests/cache/
        # test_sim_cache.py::TestComposition): retries re-send the
        # payload, so they re-look-up its key.
        result = run_harness(_SleepApp(n_keys=8), _config(
            cache=CacheConfig(enabled=True, capacity=16),
            resilience=ResilienceConfig(
                deadline=1.0, attempt_timeout=0.2, max_retries=2
            ),
            faults=FaultPlan(drop_rate=0.05, error_rate=0.05),
        ))
        outcomes = result.outcomes
        assert outcomes["offered"] == 220 == (
            outcomes["succeeded"] + outcomes["failed"] + outcomes["timed_out"]
        )
        assert outcomes["retries"] > 0
        assert result.cache_counts["hits"] > 0
