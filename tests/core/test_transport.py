"""Tests for the three harness transports."""

import threading
import time

import pytest

from repro.core import StatsCollector, WallClock
from repro.core.transport import (
    DelayLine,
    IntegratedTransport,
    LoopbackTransport,
    NetworkedTransport,
    make_transport,
)


class EchoApp:
    def process(self, payload):
        return payload


class TestFactory:
    def test_builds_each_configuration(self):
        clock = WallClock()
        assert isinstance(make_transport("integrated", clock), IntegratedTransport)
        assert isinstance(make_transport("loopback", clock), LoopbackTransport)
        assert isinstance(make_transport("networked", clock), NetworkedTransport)

    def test_unknown_configuration_rejected(self):
        with pytest.raises(ValueError) as raised:
            make_transport("carrier-pigeon", WallClock())
        assert str(raised.value) == (
            "unknown harness configuration 'carrier-pigeon'; expected "
            "'integrated', 'loopback', or 'networked'"
        )


def _roundtrip(transport, n=20):
    collector = StatsCollector()
    transport.start(EchoApp(), n_threads=2, collector=collector)
    try:
        clock_now = transport._clock.now
        for i in range(n):
            transport.send(clock_now(), f"payload-{i}")
        transport.drain(timeout=30.0)
    finally:
        transport.stop()
    return collector.snapshot()


@pytest.mark.parametrize("config", ["integrated", "loopback", "networked"])
class TestRoundtrip:
    def test_all_requests_complete(self, config):
        transport = make_transport(config, WallClock())
        stats = _roundtrip(transport, n=25)
        assert stats.count == 25

    def test_timestamp_chain_valid(self, config):
        # finish() inside the transport validates ordering; records
        # existing at all proves chains were complete and monotone.
        transport = make_transport(config, WallClock())
        stats = _roundtrip(transport, n=10)
        for record in stats.records:
            assert record.sojourn_time >= record.service_time >= 0.0
            assert record.queue_time >= 0.0


class TestIntegrated:
    def test_no_network_time(self):
        transport = IntegratedTransport(WallClock())
        stats = _roundtrip(transport, n=10)
        # Direct hand-off: transport time is just function-call overhead.
        for record in stats.records:
            assert record.network_time < 5e-3

    def test_send_before_start_rejected(self):
        transport = IntegratedTransport(WallClock())
        with pytest.raises(RuntimeError):
            transport.send(0.0, "x")

    def test_stats_counters(self):
        transport = IntegratedTransport(WallClock())
        _roundtrip(transport, n=7)
        assert transport.stats.sent == 7
        assert transport.stats.completed == 7
        assert transport.stats.errored == 0


class TestNetworked:
    def test_wire_delay_adds_latency(self):
        clock = WallClock()
        fast = _roundtrip(IntegratedTransport(clock), n=15)
        slow = _roundtrip(
            NetworkedTransport(clock, one_way_delay=5e-3), n=15
        )
        assert slow.summary("sojourn").p50 > fast.summary("sojourn").p50 + 5e-3

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            DelayLine(WallClock(), -1.0, lambda item: None)


class TestDelayLine:
    def test_delivers_after_delay(self):
        import threading
        import time

        clock = WallClock()
        delivered = []
        done = threading.Event()

        def deliver(item):
            delivered.append((item, clock.now()))
            done.set()

        line = DelayLine(clock, 0.02, deliver)
        start = clock.now()
        line.push("x")
        assert done.wait(2.0)
        line.stop()
        item, at = delivered[0]
        assert item == "x"
        assert at - start >= 0.015

    def test_preserves_fifo_order(self):
        import threading

        clock = WallClock()
        delivered = []
        done = threading.Event()

        def deliver(item):
            delivered.append(item)
            if len(delivered) == 5:
                done.set()

        line = DelayLine(clock, 0.005, deliver)
        for i in range(5):
            line.push(i)
        assert done.wait(2.0)
        line.stop()
        assert delivered == [0, 1, 2, 3, 4]

    def test_stop_is_idempotent_and_clean(self):
        line = DelayLine(WallClock(), 0.001, lambda item: None)
        line.stop()

    def test_stop_with_items_in_flight(self):
        # The link goes down while messages are in flight: stop() must
        # return promptly (thread exits within its join timeout) and
        # nothing may be delivered afterwards.
        import time

        delivered = []
        line = DelayLine(WallClock(), 0.2, delivered.append)
        for i in range(3):
            line.push(i)
        line.stop()
        assert not line.alive
        assert delivered == []
        time.sleep(0.3)  # past every original release instant
        assert delivered == []

    def test_push_after_stop_is_dropped(self):
        delivered = []
        line = DelayLine(WallClock(), 0.0, delivered.append)
        line.stop()
        line.push("ghost")
        assert delivered == []


class _GatedApp:
    """Answers once ``release`` is set."""

    def __init__(self):
        self.release = threading.Event()

    def process(self, payload):
        self.release.wait(10.0)
        return payload


class TestDrain:
    """An answer wakes ``drain`` only while it waits; it returns either
    way the last completion falls."""

    def _started(self, app):
        transport = IntegratedTransport(WallClock())
        transport.start(app, n_threads=1, collector=StatsCollector())
        return transport

    def test_last_completion_before_drain_waits(self):
        transport = self._started(EchoApp())
        try:
            for i in range(5):
                transport.send(transport._clock.now(), i)
            deadline = time.monotonic() + 5.0
            while transport.stats.completed < 5:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            transport.drain(timeout=1.0)
            assert transport._drainers == 0
        finally:
            transport.stop()

    def test_last_completion_after_drain_waits(self):
        app = _GatedApp()
        transport = self._started(app)
        try:
            for i in range(5):
                transport.send(transport._clock.now(), i)
            drainer = threading.Thread(
                target=transport.drain, args=(10.0,), daemon=True
            )
            drainer.start()
            deadline = time.monotonic() + 5.0
            while transport._drainers != 1:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            app.release.set()
            drainer.join(10.0)
            assert not drainer.is_alive()
            assert transport.stats.completed == 5
            assert transport._drainers == 0
        finally:
            app.release.set()
            transport.stop()

    def test_a_drain_that_times_out_stops_waiting(self):
        app = _GatedApp()
        transport = self._started(app)
        try:
            transport.send(transport._clock.now(), 0)
            with pytest.raises(TimeoutError):
                transport.drain(timeout=0.02)
            assert transport._drainers == 0
        finally:
            app.release.set()
            transport.stop()
