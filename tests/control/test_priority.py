"""Request classification and the priority queue disciplines."""

from repro.control import ClassAssigner, PriorityConfig, RequestClassSpec
from repro.core import Request, VirtualClock
from repro.core.queueing import PriorityBuffer, RequestQueue


def make_request(priority=0):
    request = Request(payload=None, generated_at=0.0)
    request.sent_at = 0.0
    request.priority = priority
    return request


def two_class_config(mode="strict"):
    return PriorityConfig(
        classes=(
            RequestClassSpec("interactive", priority=1, weight=3.0,
                             fraction=0.8),
            RequestClassSpec("batch", priority=0, weight=1.0, fraction=0.2),
        ),
        mode=mode,
    )


class TestClassAssigner:
    def test_stamps_class_and_priority(self):
        assigner = ClassAssigner(two_class_config(), seed=1)
        request = make_request()
        assigner.classify(request)
        assert request.request_class in ("interactive", "batch")
        assert request.priority in (0, 1)

    def test_split_matches_fractions(self):
        assigner = ClassAssigner(two_class_config(), seed=7)
        n = 5000
        interactive = 0
        for _ in range(n):
            request = make_request()
            assigner.classify(request)
            if request.request_class == "interactive":
                interactive += 1
        assert abs(interactive / n - 0.8) < 0.03

    def test_same_seed_same_sequence(self):
        seq = []
        for _ in range(2):
            assigner = ClassAssigner(two_class_config(), seed=42)
            labels = []
            for _ in range(100):
                request = make_request()
                assigner.classify(request)
                labels.append(request.request_class)
            seq.append(labels)
        assert seq[0] == seq[1]


class TestStrictDiscipline:
    def test_high_priority_always_first(self):
        buffer = PriorityBuffer(mode="strict")
        low = [make_request(priority=0) for _ in range(3)]
        high = [make_request(priority=1) for _ in range(3)]
        for request in [low[0], high[0], low[1], high[1], low[2], high[2]]:
            buffer.push(request)
        popped = [buffer.pop() for _ in range(6)]
        assert popped[:3] == high
        assert popped[3:] == low

    def test_fifo_within_a_class(self):
        buffer = PriorityBuffer(mode="strict")
        requests = [make_request(priority=1) for _ in range(4)]
        for request in requests:
            buffer.push(request)
        assert [buffer.pop() for _ in range(4)] == requests


class TestWeightedDiscipline:
    def test_service_shares_follow_weights(self):
        buffer = PriorityBuffer(mode="weighted", weights={1: 3.0, 0: 1.0})
        # Keep both classes backlogged; count the dequeue mix.
        for _ in range(400):
            buffer.push(make_request(priority=1))
            buffer.push(make_request(priority=0))
        popped = [buffer.pop() for _ in range(400)]
        high_share = sum(1 for r in popped if r.priority == 1) / len(popped)
        assert abs(high_share - 0.75) < 0.05

    def test_drains_whatever_remains(self):
        buffer = PriorityBuffer(mode="weighted", weights={1: 3.0, 0: 1.0})
        only_low = [make_request(priority=0) for _ in range(5)]
        for request in only_low:
            buffer.push(request)
        assert [buffer.pop() for _ in range(5)] == only_low


class TestRequestQueueWithPriorityBuffer:
    def test_strict_queue_reorders_across_classes(self):
        queue = RequestQueue(
            VirtualClock(), buffer=PriorityBuffer(mode="strict")
        )
        low = make_request(priority=0)
        high = make_request(priority=1)
        queue.put(low)
        queue.put(high)
        assert queue.get() is high
        assert queue.get() is low
