"""Tests for the fault-injection subsystem and client-side resilience."""

import threading
import time

import pytest

from repro.core import (
    Request,
    RequestQueue,
    ResilienceConfig,
    StatsCollector,
    WallClock,
)
from repro.core.resilience import (
    ResilientClient,
    backoff_delay,
    effective_attempt_timeout,
)
from repro.faults import FaultInjector, FaultPlan, StallWindow, TransportAction


class TestStallWindow:
    def test_end(self):
        assert StallWindow(1.0, 0.5).end == 1.5

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            StallWindow(-0.1, 1.0)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            StallWindow(0.0, 0.0)


class TestFaultPlan:
    def test_noop_by_default(self):
        assert FaultPlan().is_noop

    def test_any_knob_disables_noop(self):
        assert not FaultPlan(drop_rate=0.1).is_noop
        assert not FaultPlan(queue_stalls=[(0.0, 1.0)]).is_noop
        assert not FaultPlan(error_rate=0.01).is_noop

    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(error_rate=-0.1)

    def test_rate_without_duration_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(delay_rate=0.5)  # delay defaults to 0
        with pytest.raises(ValueError):
            FaultPlan(worker_pause_rate=0.5)

    def test_stalls_normalized_and_sorted(self):
        plan = FaultPlan(queue_stalls=[(2.0, 0.5), StallWindow(1.0, 0.1)])
        assert plan.queue_stalls == (
            StallWindow(1.0, 0.1),
            StallWindow(2.0, 0.5),
        )

    def test_replace(self):
        plan = FaultPlan(drop_rate=0.1).replace(error_rate=0.2)
        assert plan.drop_rate == 0.1
        assert plan.error_rate == 0.2

    def test_merged_combines_independent_probabilities(self):
        merged = FaultPlan(drop_rate=0.5).merged(FaultPlan(drop_rate=0.5))
        assert merged.drop_rate == pytest.approx(0.75)

    def test_merged_takes_max_durations_and_concats_stalls(self):
        a = FaultPlan(
            delay_rate=0.1, delay=0.01, queue_stalls=[(0.0, 1.0)]
        )
        b = FaultPlan(
            delay_rate=0.1, delay=0.05, queue_stalls=[(5.0, 1.0)]
        )
        merged = a.merged(b)
        assert merged.delay == 0.05
        assert len(merged.queue_stalls) == 2

    def test_frozen_and_hashable(self):
        plan = FaultPlan(drop_rate=0.1)
        with pytest.raises(Exception):
            plan.drop_rate = 0.5
        assert hash(plan) == hash(FaultPlan(drop_rate=0.1))


class TestFaultInjector:
    def _decision_trace(self, plan, seed, n=200):
        injector = FaultInjector(plan, seed=seed)
        return [
            (
                injector.transport_action(),
                injector.worker_pause(),
                injector.worker_crash(),
                injector.app_error(),
            )
            for _ in range(n)
        ]

    def test_same_seed_same_decisions(self):
        plan = FaultPlan(
            drop_rate=0.2, delay_rate=0.1, delay=0.005, duplicate_rate=0.1,
            worker_pause_rate=0.1, worker_pause=0.01,
            worker_crash_rate=0.01, error_rate=0.2,
        )
        assert self._decision_trace(plan, 7) == self._decision_trace(plan, 7)

    def test_different_seeds_differ(self):
        plan = FaultPlan(drop_rate=0.5)
        assert self._decision_trace(plan, 1) != self._decision_trace(plan, 2)

    def test_layers_draw_independent_streams(self):
        # Enabling transport faults must not change app-layer decisions.
        base = FaultPlan(error_rate=0.3)
        noisy = base.replace(drop_rate=0.5, duplicate_rate=0.5)
        a = FaultInjector(base, seed=3)
        b = FaultInjector(noisy, seed=3)
        errors_a = [a.app_error() for _ in range(300)]
        for _ in range(300):
            b.transport_action()  # consumes only the transport stream
        errors_b = [b.app_error() for _ in range(300)]
        assert errors_a == errors_b

    def test_noop_layers_consume_nothing(self):
        injector = FaultInjector(FaultPlan(), seed=0)
        assert injector.transport_action() == TransportAction()
        assert injector.worker_pause() == 0.0
        assert injector.worker_crash() is False
        assert injector.app_error() is False
        assert all(v == 0 for v in injector.counts().values())

    def test_counts_track_fired_faults(self):
        injector = FaultInjector(FaultPlan(drop_rate=1.0), seed=0)
        for _ in range(5):
            assert injector.transport_action().drop
        assert injector.counts()["drops"] == 5

    def test_queue_stall_anchored_to_run_start(self):
        plan = FaultPlan(queue_stalls=[(1.0, 2.0)])
        injector = FaultInjector(plan)
        injector.start_run(100.0)
        assert injector.queue_stall_remaining(100.0) == 0.0
        assert injector.queue_stall_remaining(101.0) == pytest.approx(2.0)
        assert injector.queue_stall_remaining(102.5) == pytest.approx(0.5)
        assert injector.queue_stall_remaining(103.0) == 0.0


def make_request():
    request = Request(payload=None, generated_at=0.0)
    request.sent_at = 0.0
    return request


class TestBoundedQueue:
    def test_put_sheds_past_capacity(self):
        queue = RequestQueue(WallClock(), capacity=2)
        assert queue.put(make_request())
        assert queue.put(make_request())
        rejected = make_request()
        assert not queue.put(rejected)
        assert rejected.shed
        assert queue.snapshot().total_shed == 1
        assert len(queue) == 2

    def test_unbounded_by_default(self):
        queue = RequestQueue(WallClock())
        assert queue.capacity is None
        for _ in range(100):
            assert queue.put(make_request())

    def test_stall_window_delays_get(self):
        injector = FaultInjector(FaultPlan(queue_stalls=[(0.0, 0.2)]))
        clock = WallClock()
        queue = RequestQueue(clock, injector=injector)
        injector.start_run(clock.now())
        queue.put(make_request())
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            queue.get(timeout=0.05)  # stalled: item present but frozen
        assert queue.get(timeout=2.0) is not None
        assert time.monotonic() - start >= 0.15


class TestResilienceConfig:
    def test_disabled_by_default(self):
        assert not ResilienceConfig().enabled

    def test_any_mechanism_enables(self):
        assert ResilienceConfig(deadline=1.0).enabled
        assert ResilienceConfig(max_retries=1).enabled
        assert ResilienceConfig(hedge_after=0.01).enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(deadline=0.0)
        with pytest.raises(ValueError):
            ResilienceConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ResilienceConfig(hedge_after=-1.0)

    def test_backoff_is_full_jitter(self):
        import random

        config = ResilienceConfig(backoff_base=0.01, backoff_cap=0.03)
        rng = random.Random(0)
        for k in range(6):
            cap = min(0.03, 0.01 * 2**k)
            for _ in range(50):
                assert 0.0 <= backoff_delay(config, rng, k) <= cap

    def test_attempt_timeout_defaults_from_deadline(self):
        config = ResilienceConfig(deadline=0.3, max_retries=2)
        assert effective_attempt_timeout(config) == pytest.approx(0.1)
        explicit = ResilienceConfig(deadline=0.3, attempt_timeout=0.05)
        assert effective_attempt_timeout(explicit) == 0.05
        assert effective_attempt_timeout(ResilienceConfig()) is None

    def test_attempt_timeout_clamped_to_deadline_budget(self):
        # Regression: backoff sleeps consume the deadline budget, so a
        # fixed per-attempt window granted late in the request's life
        # used to run past the deadline (a timer waiting on an outcome
        # the deadline had already decided).
        config = ResilienceConfig(deadline=0.3, max_retries=2)
        # Fresh request: the full window fits the budget.
        assert effective_attempt_timeout(
            config, now=0.0, deadline=0.3
        ) == pytest.approx(0.1)
        # Late attempt: only the remaining budget is granted.
        assert effective_attempt_timeout(
            config, now=0.25, deadline=0.3
        ) == pytest.approx(0.05)
        # At/past the deadline: zero, never negative.
        assert effective_attempt_timeout(config, now=0.3, deadline=0.3) == 0.0
        assert effective_attempt_timeout(config, now=0.4, deadline=0.3) == 0.0

    def test_clamp_requires_both_now_and_deadline(self):
        config = ResilienceConfig(deadline=0.3, max_retries=2)
        # now without a deadline (deadline-less request): unclamped.
        assert effective_attempt_timeout(config, now=5.0) == pytest.approx(0.1)
        explicit = ResilienceConfig(attempt_timeout=0.05)
        assert effective_attempt_timeout(
            explicit, now=1.0, deadline=1.02
        ) == pytest.approx(0.02)


class FakeTransport:
    """Hand-cranked transport: the test decides when attempts complete."""

    def __init__(self, clock):
        self._clock = clock
        #: What the answers go to; the client under test sets it.
        self.sink = None
        self.sent = []
        self._cv = threading.Condition()

    def send(self, generated_at, payload, *, logical_id=None, attempt=0,
             deadline=None, avoid_server=None, server_id=None):
        request = Request(
            payload=payload, generated_at=generated_at,
            logical_id=logical_id, attempt=attempt, deadline=deadline,
        )
        request.sent_at = self._clock.now()
        request.server_id = 0
        with self._cv:
            self.sent.append(request)
            self._cv.notify_all()
        return 0

    def wait_for_sends(self, n, timeout=5.0):
        with self._cv:
            assert self._cv.wait_for(lambda: len(self.sent) >= n, timeout), (
                f"expected {n} sends, saw {len(self.sent)}"
            )

    def complete(self, request, error=None, shed=False):
        now = self._clock.now()
        request.enqueued_at = request.sent_at
        request.service_start_at = now
        request.service_end_at = now
        request.response_received_at = now
        request.error = error
        request.shed = shed
        self.sink(request)


def _client(config, seed=1, health=None):
    clock = WallClock()
    transport = FakeTransport(clock)
    collector = StatsCollector()
    client = ResilientClient(
        transport, clock, config, collector, seed=seed, health=health
    )
    transport.sink = client.on_attempt_complete
    return clock, transport, collector, client


class TestResilientClient:
    def test_success_resolves_and_records(self):
        clock, transport, collector, client = _client(
            ResilienceConfig(deadline=5.0)
        )
        try:
            client.send(clock.now(), "p")
            transport.complete(transport.sent[0])
            client.drain(timeout=5.0)
        finally:
            client.close()
        counts = collector.outcome_counts()
        assert counts["offered"] == counts["succeeded"] == 1
        assert counts["attempts"] == 1
        assert collector.snapshot().count == 1

    def test_error_response_retried_then_succeeds(self):
        clock, transport, collector, client = _client(
            ResilienceConfig(
                deadline=5.0, max_retries=2,
                backoff_base=0.001, backoff_cap=0.002,
            )
        )
        try:
            client.send(clock.now(), "p")
            transport.complete(transport.sent[0], error="boom")
            transport.wait_for_sends(2)  # the retry
            transport.complete(transport.sent[1])
            client.drain(timeout=5.0)
        finally:
            client.close()
        counts = collector.outcome_counts()
        assert counts["succeeded"] == 1
        assert counts["retries"] == 1
        assert counts["errors"] == 1
        assert counts["attempts"] == 2

    def test_shed_response_retried(self):
        clock, transport, collector, client = _client(
            ResilienceConfig(
                deadline=5.0, max_retries=1,
                backoff_base=0.001, backoff_cap=0.002,
            )
        )
        try:
            client.send(clock.now(), "p")
            transport.complete(transport.sent[0], shed=True)
            transport.wait_for_sends(2)
            transport.complete(transport.sent[1])
            client.drain(timeout=5.0)
        finally:
            client.close()
        counts = collector.outcome_counts()
        assert counts["shed"] == 1
        assert counts["succeeded"] == 1

    def test_unanswered_request_times_out_at_deadline(self):
        clock, transport, collector, client = _client(
            ResilienceConfig(deadline=0.05)
        )
        try:
            client.send(clock.now(), "p")
            client.drain(timeout=5.0)  # deadline resolves it; no response
        finally:
            client.close()
        counts = collector.outcome_counts()
        assert counts["timed_out"] == 1
        assert counts["succeeded"] == 0
        assert collector.snapshot().count == 0

    def test_hedge_fires_and_first_response_wins(self):
        clock, transport, collector, client = _client(
            ResilienceConfig(deadline=5.0, hedge_after=0.01, max_hedges=1)
        )
        try:
            client.send(clock.now(), "p")
            transport.wait_for_sends(2)  # original + hedge
            transport.complete(transport.sent[1])  # hedge answers first
            client.drain(timeout=5.0)
            transport.complete(transport.sent[0])  # straggler
        finally:
            client.close()
        counts = collector.outcome_counts()
        assert counts["hedges"] == 1
        assert counts["succeeded"] == 1
        assert counts["late"] == 1
        assert collector.snapshot().count == 1  # straggler not double-counted

    def test_late_response_excluded_from_success_stats(self):
        clock, transport, collector, client = _client(
            ResilienceConfig(deadline=0.02)
        )
        try:
            client.send(clock.now(), "p")
            client.drain(timeout=5.0)  # deadline fires first
            transport.complete(transport.sent[0])  # response after deadline
        finally:
            client.close()
        counts = collector.outcome_counts()
        assert counts["timed_out"] == 1
        assert counts["late"] == 1
        assert collector.snapshot().count == 0
        # ... but the attempt still feeds per-attempt statistics.
        assert collector.snapshot().attempt_count == 1

    def test_attempt_timeout_triggers_retry_without_response(self):
        clock, transport, collector, client = _client(
            ResilienceConfig(
                deadline=5.0, attempt_timeout=0.02, max_retries=1,
                backoff_base=0.001, backoff_cap=0.002,
            )
        )
        try:
            client.send(clock.now(), "p")
            transport.wait_for_sends(2)  # timeout-driven retry
            transport.complete(transport.sent[1])
            client.drain(timeout=5.0)
        finally:
            client.close()
        counts = collector.outcome_counts()
        assert counts["retries"] == 1
        assert counts["succeeded"] == 1


class TestTimerHygiene:
    def test_resolution_cancels_outstanding_timers(self):
        # A resolved call's deadline/hedge/timeout entries must be
        # disarmed — at high QPS dead-call wakeups would dominate the
        # timer wheel. pending() counts live heap entries.
        clock, transport, collector, client = _client(
            ResilienceConfig(
                deadline=30.0, attempt_timeout=20.0,
                hedge_after=25.0, max_hedges=1,
            )
        )
        try:
            for i in range(5):
                client.send(clock.now(), f"p{i}")
            assert client._scheduler.pending() >= 5
            for request in list(transport.sent):
                transport.complete(request)
            client.drain(timeout=5.0)
            assert client._scheduler.pending() == 0
        finally:
            client.close()

    def test_unresolved_calls_keep_their_timers(self):
        clock, transport, collector, client = _client(
            ResilienceConfig(deadline=30.0)
        )
        try:
            client.send(clock.now(), "p")
            assert client._scheduler.pending() == 1  # the deadline
        finally:
            client.close()


class TestRetryBudgetGate:
    def _health(self, reserve):
        from repro.health import HealthConfig, HealthManager

        return HealthManager(HealthConfig(
            enabled=True, ejection=False, breaker=False,
            retry_budget_ratio=0.1, retry_budget_reserve=reserve,
        ))

    def test_exhausted_budget_fails_instead_of_retrying(self):
        health = self._health(reserve=0.0)
        clock, transport, collector, client = _client(
            ResilienceConfig(max_retries=3, backoff_base=0.001,
                             backoff_cap=0.002),
            health=health,
        )
        try:
            client.send(clock.now(), "p")
            transport.complete(transport.sent[0], error="boom")
            client.drain(timeout=5.0)  # no deadline: denial resolves it
        finally:
            client.close()
        counts = collector.outcome_counts()
        assert counts["failed"] == 1
        assert counts.get("retries", 0) == 0
        assert health.counts()["retries_denied"] == 1

    def test_funded_budget_allows_the_retry(self):
        health = self._health(reserve=5.0)
        clock, transport, collector, client = _client(
            ResilienceConfig(max_retries=3, backoff_base=0.001,
                             backoff_cap=0.002),
            health=health,
        )
        try:
            client.send(clock.now(), "p")
            transport.complete(transport.sent[0], error="boom")
            transport.wait_for_sends(2)
            transport.complete(transport.sent[1])
            client.drain(timeout=5.0)
        finally:
            client.close()
        counts = collector.outcome_counts()
        assert counts["succeeded"] == 1
        assert counts["retries"] == 1
        assert health.counts()["retries_budgeted"] == 1
