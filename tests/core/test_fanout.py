"""Tests for scatter-gather fan-out: config, gatherer, live harness."""

import itertools
import time

import pytest

from repro.apps.base import Application, Client, ShardedApp
from repro.apps.vsearch import VsearchApp
from repro.cache import LRUCache, RequestCache
from repro.core import (
    ExecutionConfig,
    FanoutConfig,
    FanoutGatherer,
    HarnessConfig,
    ObservabilityConfig,
    ResilienceConfig,
    StatsCollector,
    run_harness,
)
from repro.core.clock import WallClock
from repro.core.config import NO_FANOUT
from repro.core.queueing import RequestQueue
from repro.core.request import Request
from repro.core.server import Server
from repro.core.transport import IntegratedTransport
from repro.faults import FaultPlan
from repro.stats import quantile


class _StubCollector:
    def __init__(self):
        self.records = []

    def add(self, record):
        self.records.append(record)


def _finished_request(logical_id, server_id, t0, latency, response=None):
    req = Request(payload=None, generated_at=t0)
    req.logical_id = logical_id
    req.server_id = server_id
    req.sent_at = t0
    req.enqueued_at = t0
    req.service_start_at = t0
    req.service_end_at = t0 + latency
    req.response_received_at = t0 + latency
    req.response = response
    return req


class TestFanoutConfig:
    def test_defaults_off(self):
        assert NO_FANOUT.enabled is False
        assert HarnessConfig().fanout is NO_FANOUT

    def test_shards_validated(self):
        with pytest.raises(ValueError):
            FanoutConfig(shards=0)

    def test_disabled_composes_freely(self):
        config = HarnessConfig(
            n_servers=3, fanout=FanoutConfig(enabled=False, shards=2)
        )
        assert config.fanout.shards == 2


class TestFanoutGatherer:
    def test_open_gather_allocates_distinct_logical_ids(self):
        gatherer = FanoutGatherer(4, _StubCollector())
        _, pairs_a = gatherer.open_gather()
        _, pairs_b = gatherer.open_gather()
        ids = [lid for lid, _ in pairs_a + pairs_b]
        assert len(set(ids)) == 8
        assert [s for _, s in pairs_a] == [0, 1, 2, 3]
        assert gatherer.outstanding == 8

    def test_unknown_request_is_not_ours(self):
        gatherer = FanoutGatherer(2, _StubCollector())
        stray = _finished_request(logical_id=999, server_id=0,
                                  t0=0.0, latency=1e-3)
        assert gatherer.on_complete(stray) is False

    def test_completes_on_last_arrival_with_critical_shard(self):
        collector = _StubCollector()
        gatherer = FanoutGatherer(3, collector)
        _, pairs = gatherer.open_gather()
        latencies = {0: 1e-3, 1: 5e-3, 2: 2e-3}
        for lid, shard in pairs:
            req = _finished_request(lid, shard, 0.0, latencies[shard])
            assert gatherer.on_complete(req) is True
        assert len(collector.records) == 1
        # Shard 1 was slowest: its record is the logical record.
        assert collector.records[0].sojourn_time == pytest.approx(5e-3)
        assert gatherer.stats.completed == 1
        assert gatherer.stats.critical_counts == [0, 1, 0]
        assert gatherer.stats.leaf_samples() == pytest.approx(
            [1e-3, 5e-3, 2e-3]
        )
        assert gatherer.outstanding == 0

    def test_merge_combines_partial_responses(self):
        collector = _StubCollector()
        gatherer = FanoutGatherer(2, collector, merge=lambda rs: sum(rs))
        _, pairs = gatherer.open_gather()
        requests = []
        for i, (lid, shard) in enumerate(pairs):
            req = _finished_request(lid, shard, 0.0, 1e-3 * (shard + 1),
                                    response=10 + i)
            requests.append(req)
            gatherer.on_complete(req)
        # The critical (slowest: shard 1) request carries the merge.
        assert requests[1].response == 21
        assert len(collector.records) == 1

    def test_failed_subrequest_spoils_gather(self):
        collector = _StubCollector()
        gatherer = FanoutGatherer(2, collector)
        _, pairs = gatherer.open_gather()
        ok = _finished_request(pairs[0][0], 0, 0.0, 1e-3)
        bad = _finished_request(pairs[1][0], 1, 0.0, 2e-3)
        bad.error = "boom"
        gatherer.on_complete(ok)
        gatherer.on_complete(bad)
        assert gatherer.stats.failed == 1
        assert gatherer.stats.completed == 0
        assert collector.records == []

    def test_sweep_fails_a_gather_once_however_many_legs_are_open(self):
        gatherer = FanoutGatherer(3, _StubCollector())
        _, pairs = gatherer.open_gather()
        gatherer.on_complete(_finished_request(pairs[0][0], 0, 0.0, 1e-3))
        gatherer.fail_unresolved()
        gatherer.fail_unresolved()
        assert (gatherer.stats.completed, gatherer.stats.failed) == (0, 1)
        assert gatherer.outstanding == 0

    def test_warmup_gathers_not_measured(self):
        collector = _StubCollector()
        gatherer = FanoutGatherer(1, collector, warmup=2)
        for i in range(5):
            _, pairs = gatherer.open_gather()
            gatherer.on_complete(
                _finished_request(pairs[0][0], 0, float(i), 1e-3)
            )
        # All five reach the collector (it applies its own warmup
        # discard) but only the post-warmup three are leaf samples.
        assert len(collector.records) == 5
        assert len(gatherer.stats.leaf_samples()) == 3

    def test_predicted_quantile_math(self):
        gatherer = FanoutGatherer(2, _StubCollector())
        gatherer.stats.shard_samples[0] = [float(i) for i in range(100)]
        gatherer.stats.shard_samples[1] = [float(i) for i in range(100)]
        expected = quantile(
            gatherer.stats.leaf_samples(), 0.99 ** 0.5
        )
        assert gatherer.stats.predicted_quantile(0.99) == expected


class _EchoShard(Application):
    """Answers ``(shard, payload)``, so a merge can check what it got."""

    name = "echo"

    def __init__(self, shard):
        self.shard = shard

    def setup(self):
        pass

    def process(self, payload):
        return (self.shard, payload)


class _Numbered(Client):
    def __init__(self):
        self._next = itertools.count()

    def next_request(self):
        return next(self._next)


class _KeyedEchoShard(_EchoShard):
    def cache_key(self, payload):
        return payload


class TestWhyRejected:
    """What the two surviving fan-out rejections keep from happening."""

    def test_a_replica_the_autoscaler_adds_holds_no_shard(self):
        app = ShardedApp([_EchoShard(i) for i in range(2)], len)
        transport = IntegratedTransport(WallClock())
        transport.start(app, 1, StatsCollector(), n_servers=2)
        try:
            with pytest.raises(IndexError):
                transport.add_server()  # asks the app for shard 2 of 2
        finally:
            transport.stop()

    def test_a_shared_cache_answers_a_shard_with_anothers_partial(self):
        clock = WallClock()
        cache = RequestCache(LRUCache(8))
        answered = []
        queues = [RequestQueue(clock) for _ in range(2)]
        servers = [
            Server(_KeyedEchoShard(shard), queue, clock, cache=cache,
                   server_id=shard, respond=answered.append)
            for shard, queue in enumerate(queues)
        ]
        for server in servers:
            server.start()
        try:
            for shard, queue in enumerate(queues):  # one query, two legs
                leg = Request(payload="q", generated_at=0.0)
                leg.sent_at = 0.0
                queue.put(leg)
                deadline = time.time() + 2.0
                while len(answered) <= shard and time.time() < deadline:
                    time.sleep(0.001)
        finally:
            for server in servers:
                server.shutdown()
        # Shard 1 never ran: its leg was a hit on shard 0's partial.
        assert [r.response for r in answered] == [(0, "q"), (0, "q")]
        assert [r.cache_hit for r in answered] == [False, True]


@pytest.mark.parametrize("mode", ["threaded", "process"])
def test_faulted_legs_never_mix_payloads(mode):
    """Drops, errors and duplicates beneath the gather, retries above
    the wire: a merge still gets shards 0, 1, 2 of *one* payload, and
    every gather either merges or fails."""
    merged = []

    def merge(partials):
        merged.append(sorted(partials))
        return len(partials)

    app = ShardedApp(
        [_EchoShard(i) for i in range(3)], merge,
        client_factory=lambda seed: _Numbered(),
    )
    result = run_harness(
        app,
        HarnessConfig(
            qps=1000.0,
            n_servers=3,
            warmup_requests=20,
            measure_requests=200,
            fanout=FanoutConfig(enabled=True, shards=3),
            faults=FaultPlan(
                drop_rate=0.05, error_rate=0.1, duplicate_rate=0.1
            ),
            resilience=ResilienceConfig(deadline=0.05, max_retries=2),
            execution=ExecutionConfig(mode=mode),
        ),
    )
    fanout, outcomes = result.fanout, result.outcomes
    assert fanout.completed + fanout.failed == outcomes["offered"] == 220
    assert fanout.completed == len(merged) == outcomes["succeeded"]
    assert fanout.failed == outcomes["failed"] + outcomes["timed_out"]
    assert outcomes["retries"] > 0 and result.fault_counts["drops"] > 0
    payloads = [partials[0][1] for partials in merged]
    assert merged == [[(0, n), (1, n), (2, n)] for n in payloads]
    assert len(set(payloads)) == len(payloads)


def test_process_execution_merges_every_shard():
    """Replica processes ship each shard's response back to the gather."""
    merged = []

    def merge(partials):
        merged.append(sorted(partials))
        return len(partials)

    app = ShardedApp(
        [_EchoShard(i) for i in range(3)], merge,
        client_factory=lambda seed: _Numbered(),
    )
    result = run_harness(
        app,
        HarnessConfig(
            qps=1000.0,
            n_servers=3,
            warmup_requests=20,
            measure_requests=200,
            fanout=FanoutConfig(enabled=True, shards=3),
            execution=ExecutionConfig(mode="process"),
        ),
    )
    assert (result.fanout.completed, result.fanout.failed) == (220, 0)
    assert result.stats.count == 200
    assert result.routed_counts == (220, 220, 220)
    # Every merge saw shards 0, 1, 2 of one payload, and every payload
    # was merged exactly once.
    assert sorted(merged) == [
        [(0, n), (1, n), (2, n)] for n in range(220)
    ]


class TestLiveFanout:
    @pytest.fixture(scope="class")
    def result(self):
        app = VsearchApp(
            n_vectors=512, n_queries=32, n_lists=8, nprobe=2, seed=0
        ).sharded(2)
        app.setup()
        return run_harness(
            app,
            HarnessConfig(
                configuration="integrated",
                qps=400.0,
                n_threads=1,
                n_servers=2,
                warmup_requests=20,
                measure_requests=150,
                seed=0,
                fanout=FanoutConfig(enabled=True, shards=2),
                observability=ObservabilityConfig(tracing=True),
            ),
        )

    def test_every_gather_completes(self, result):
        assert result.fanout is not None
        assert result.fanout.completed == 170
        assert result.fanout.failed == 0
        assert result.stats.count == 150

    def test_scatter_amplification_in_outcomes(self, result):
        assert result.outcomes["offered"] == 170
        assert result.outcomes["attempts"] == 340
        assert result.retry_amplification == pytest.approx(2.0)

    def test_leaf_samples_per_shard(self, result):
        for shard in (0, 1):
            assert len(result.fanout.shard_samples[shard]) == 150

    def test_e2e_at_least_leaf_p99(self, result):
        leaves = result.fanout.leaf_samples()
        e2e_p99 = quantile(result.stats.samples(), 0.99)
        per_shard = [result.fanout.shard_p99(s) for s in (0, 1)]
        assert e2e_p99 >= max(per_shard) - 1e-9
        assert len(leaves) == 300

    def test_pinned_routing_covers_both_shards(self, result):
        assert len(result.routed_counts) == 2
        assert result.routed_counts[0] == result.routed_counts[1] == 170

    def test_trace_events_emitted(self, result):
        kinds = [e.kind for e in result.obs.events]
        assert kinds.count("fanout_send") == 340
        assert kinds.count("fanout_gather") == 170
        gathers = [e for e in result.obs.events if e.kind == "fanout_gather"]
        assert {e.server_id for e in gathers} <= {0, 1}

    def test_critical_counts_sum_to_measured(self, result):
        assert sum(result.fanout.critical_counts) == 150
