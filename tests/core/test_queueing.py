"""Tests for the instrumented request queue."""

import threading
import time

import pytest

from repro.core import QueueClosed, Request, RequestQueue, VirtualClock, WallClock
from repro.core.queueing import (
    FifoBuffer,
    PriorityBuffer,
    QueueSnapshot,
)


def make_request(priority=0):
    request = Request(payload=None, generated_at=0.0, priority=priority)
    request.sent_at = 0.0
    return request


class TestRequestQueue:
    def test_fifo_order(self):
        queue = RequestQueue(VirtualClock())
        first, second = make_request(), make_request()
        queue.put(first)
        queue.put(second)
        assert queue.get() is first
        assert queue.get() is second

    def test_put_stamps_enqueued_at(self):
        clock = VirtualClock(42.0)
        queue = RequestQueue(clock)
        request = make_request()
        queue.put(request)
        assert request.enqueued_at == 42.0

    def test_len_and_peak_depth(self):
        queue = RequestQueue(VirtualClock())
        for _ in range(3):
            queue.put(make_request())
        assert len(queue) == 3
        assert queue.peak_depth == 3
        queue.get()
        assert len(queue) == 2
        assert queue.peak_depth == 3  # peak is sticky

    def test_total_enqueued(self):
        queue = RequestQueue(VirtualClock())
        for _ in range(5):
            queue.put(make_request())
        assert queue.total_enqueued == 5

    def test_get_blocks_until_put(self):
        queue = RequestQueue(WallClock())
        result = []

        def consumer():
            result.append(queue.get())

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.05)
        assert not result
        queue.put(make_request())
        thread.join(1.0)
        assert len(result) == 1

    def test_get_timeout(self):
        queue = RequestQueue(WallClock())
        with pytest.raises(TimeoutError):
            queue.get(timeout=0.05)

    def test_closed_queue_rejects_put(self):
        queue = RequestQueue(VirtualClock())
        queue.close()
        with pytest.raises(QueueClosed):
            queue.put(make_request())

    def test_close_drains_then_raises(self):
        queue = RequestQueue(VirtualClock())
        queue.put(make_request())
        queue.close()
        queue.get()  # existing item still retrievable
        with pytest.raises(QueueClosed):
            queue.get()

    def test_close_wakes_blocked_getters(self):
        queue = RequestQueue(WallClock())
        errors = []

        def consumer():
            try:
                queue.get()
            except QueueClosed:
                errors.append("closed")

        threads = [threading.Thread(target=consumer) for _ in range(3)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        queue.close()
        for t in threads:
            t.join(1.0)
        assert errors == ["closed"] * 3

    def test_sojourn_seconds_tracks_head_age(self):
        clock = VirtualClock(10.0)
        queue = RequestQueue(clock)
        assert queue.snapshot().head_sojourn == 0.0  # empty
        queue.put(make_request())
        clock.advance(0.25)
        queue.put(make_request())  # younger request: head age unchanged
        assert queue.snapshot().head_sojourn == pytest.approx(0.25)
        queue.get()
        assert queue.snapshot().head_sojourn == pytest.approx(0.0)

    def test_snapshot_is_consistent_view(self):
        clock = VirtualClock(5.0)
        queue = RequestQueue(clock, capacity=2)
        queue.put(make_request())
        clock.advance(0.1)
        queue.put(make_request())
        assert queue.put(make_request()) is False  # shed at capacity
        snap = queue.snapshot()
        assert isinstance(snap, QueueSnapshot)
        assert snap.depth == 2
        assert snap.peak_depth == 2
        assert snap.total_enqueued == 2
        assert snap.total_shed == 1
        assert snap.head_sojourn == pytest.approx(0.1)

    def test_shed_request_is_marked(self):
        queue = RequestQueue(VirtualClock(), capacity=1)
        queue.put(make_request())
        rejected = make_request()
        assert queue.put(rejected) is False
        assert rejected.shed
        assert queue.total_shed == 1

    def test_snapshot_of_sim_server_has_same_shape(self):
        """Live queue and simulated server expose the same snapshot."""
        import random

        from repro.sim.engine import Engine
        from repro.sim.network_model import network_model_for
        from repro.sim.server_model import SimulatedServer
        from repro.sim.service_models import ServiceTimeModel
        from repro.stats import Deterministic

        engine = Engine()
        server = SimulatedServer(
            engine,
            ServiceTimeModel(Deterministic(0.05)),
            network_model_for("integrated"),
            n_threads=1,
            rng=random.Random(0),
            on_response=lambda request: None,
        )
        for i in range(3):
            server.submit(generated_at=i * 0.001)
        engine.run(until=0.01)  # one in service, two queued
        snap = server.queue_snapshot()
        assert isinstance(snap, QueueSnapshot)
        assert snap.depth == 2
        assert snap.total_enqueued == 3
        assert snap.head_sojourn > 0.0

    def test_custom_buffer_is_used(self):
        buffer = FifoBuffer()
        queue = RequestQueue(VirtualClock(), buffer=buffer)
        queue.put(make_request())
        assert len(buffer) == 1

    def test_mixed_class_head_is_oldest_across_all_classes(self):
        # CoDel's signal is the oldest *waiting* request, regardless of
        # which class the discipline would actually serve next: a
        # starved low-priority head must still drive the sojourn.
        buffer = PriorityBuffer(mode="strict")
        old_low = make_request(priority=0)
        old_low.enqueued_at = 1.0
        young_high = make_request(priority=5)
        young_high.enqueued_at = 2.0
        buffer.push(old_low)
        buffer.push(young_high)
        assert buffer.head_enqueued_at() == 1.0
        # Strict service order disagrees with head age on purpose.
        assert buffer.pop() is young_high
        assert buffer.head_enqueued_at() == 1.0
        buffer.pop()
        assert buffer.head_enqueued_at() is None

    def test_priority_queue_snapshot_mixed_class_head_sojourn(self):
        clock = VirtualClock(10.0)
        queue = RequestQueue(clock, buffer=PriorityBuffer(mode="strict"))
        queue.put(make_request(priority=0))  # enqueued at 10.0
        clock.advance(0.3)
        queue.put(make_request(priority=9))  # enqueued at 10.3
        clock.advance(0.1)
        snap = queue.snapshot()
        assert snap.depth == 2
        # The low-priority request is older: 10.4 - 10.0 = 0.4, not the
        # 0.1 the high class' head would report.
        assert snap.head_sojourn == pytest.approx(0.4)
        assert queue.get().priority == 9  # service still strict
        assert queue.snapshot().head_sojourn == pytest.approx(0.4)

    def test_sim_server_snapshot_mixed_class_head_sojourn(self):
        """The simulated server's snapshot obeys the same oldest-across-
        classes rule when wired to a PriorityBuffer."""
        import random

        from repro.sim.engine import Engine
        from repro.sim.network_model import network_model_for
        from repro.sim.server_model import SimulatedServer
        from repro.sim.service_models import ServiceTimeModel
        from repro.stats import Deterministic

        engine = Engine()
        server = SimulatedServer(
            engine,
            ServiceTimeModel(Deterministic(0.05)),
            network_model_for("integrated"),
            n_threads=1,
            rng=random.Random(0),
            on_response=lambda request: None,
            buffer=PriorityBuffer(mode="strict"),
        )

        def submit(at, priority):
            request = Request(payload=None, generated_at=at, priority=priority)
            request.sent_at = at
            server.submit_request(request)

        submit(0.000, 0)  # taken by the single worker immediately
        submit(0.002, 0)  # waits: class 0, the oldest
        submit(0.004, 7)  # waits: class 7, younger but higher priority
        engine.run(until=0.01)
        snap = server.queue_snapshot()
        assert snap.depth == 2
        assert snap.head_sojourn == pytest.approx(0.01 - 0.002)

    def test_concurrent_producers_consumers(self):
        queue = RequestQueue(WallClock())
        n_per_producer = 200
        consumed = []
        consumed_lock = threading.Lock()

        def producer():
            for _ in range(n_per_producer):
                queue.put(make_request())

        def consumer():
            while True:
                try:
                    item = queue.get(timeout=1.0)
                except (QueueClosed, TimeoutError):
                    return
                with consumed_lock:
                    consumed.append(item)

        producers = [threading.Thread(target=producer) for _ in range(4)]
        consumers = [threading.Thread(target=consumer) for _ in range(4)]
        for t in producers + consumers:
            t.start()
        for t in producers:
            t.join(5.0)
        queue.close()
        for t in consumers:
            t.join(5.0)
        assert len(consumed) == 4 * n_per_producer
        assert len({id(r) for r in consumed}) == len(consumed)
