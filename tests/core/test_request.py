"""Tests for request records and the timestamp chain."""

import pickle

import pytest

from repro.core import Request, RequestRecord


def make_request(**overrides):
    request = Request(payload="x", generated_at=1.0)
    request.sent_at = overrides.get("sent_at", 1.001)
    request.enqueued_at = overrides.get("enqueued_at", 1.002)
    request.service_start_at = overrides.get("service_start_at", 1.010)
    request.service_end_at = overrides.get("service_end_at", 1.030)
    request.response_received_at = overrides.get("response_received_at", 1.031)
    return request


class TestTimestampChain:
    def test_finish_produces_record(self):
        record = make_request().finish()
        assert record.service_time == pytest.approx(0.020)
        assert record.queue_time == pytest.approx(0.008)
        assert record.sojourn_time == pytest.approx(0.031)

    def test_send_delay(self):
        record = make_request().finish()
        assert record.send_delay == pytest.approx(0.001)

    def test_network_time(self):
        record = make_request().finish()
        assert record.network_time == pytest.approx(0.001 + 0.001)

    def test_missing_stamp_rejected(self):
        request = make_request()
        request.enqueued_at = None
        with pytest.raises(ValueError, match="enqueued_at"):
            request.finish()

    def test_out_of_order_stamps_rejected(self):
        request = make_request(service_start_at=0.5)
        with pytest.raises(ValueError):
            request.finish()

    def test_request_ids_unique(self):
        a = Request(payload=None, generated_at=0.0)
        b = Request(payload=None, generated_at=0.0)
        assert a.request_id != b.request_id

    def test_sojourn_measured_from_generated_not_sent(self):
        # Coordinated-omission avoidance: a late send must not shrink
        # the measured sojourn time.
        late_send = make_request(sent_at=1.0019)
        on_time = make_request(sent_at=1.001)
        assert (
            late_send.finish().sojourn_time == on_time.finish().sojourn_time
        )


class TestPartialFinish:
    def test_partial_tolerates_missing_stamps(self):
        # A shed attempt never reaches a worker: the chain stops at
        # enqueued. finish(partial=True) must still produce a record.
        request = Request(payload="x", generated_at=1.0)
        request.sent_at = 1.001
        request.enqueued_at = 1.002
        request.response_received_at = 1.003
        request.shed = True
        record = request.finish(partial=True)
        assert record.service_start_at is None
        assert record.shed is True
        assert not record.complete

    def test_partial_still_rejects_out_of_order_stamps(self):
        request = make_request(service_start_at=0.5)
        with pytest.raises(ValueError):
            request.finish(partial=True)

    def test_strict_finish_unchanged(self):
        request = make_request()
        request.enqueued_at = None
        with pytest.raises(ValueError, match="enqueued_at"):
            request.finish()

    def test_complete_chain_is_complete(self):
        record = make_request().finish()
        assert record.complete

    def test_identity_fields_carried(self):
        request = Request(
            payload="x", generated_at=1.0, logical_id=7, attempt=2
        )
        request.sent_at = 1.001
        record = request.finish(partial=True)
        assert record.logical_id == 7
        assert record.attempt == 2


RECORD_FIELDS = (
    "request_id",
    "generated_at",
    "sent_at",
    "enqueued_at",
    "service_start_at",
    "service_end_at",
    "response_received_at",
    "server_id",
    "logical_id",
    "attempt",
    "shed",
    "request_class",
    "batch_size",
    "cache_hit",
)


class TestRecordIsATuple:
    def test_fields_and_their_order(self):
        assert RequestRecord._fields == RECORD_FIELDS

    def test_defaults(self):
        record = RequestRecord(1, 0.0, None, None, None, None, None)
        assert record[7:] == (0, None, 0, False, None, 1, False)

    def test_no_dict_and_no_assignment(self):
        record = make_request().finish()
        assert not hasattr(record, "__dict__")
        for name in RECORD_FIELDS + ("complete", "sojourn_time", "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)

    def test_equal_chains_compare_and_hash_equal(self):
        a, b = make_request(), make_request()
        b.request_id = a.request_id
        assert a.finish() == b.finish()
        assert hash(a.finish()) == hash(b.finish())
        b.service_end_at += 0.001
        assert a.finish() != b.finish()

    def test_finish_fills_fields_by_name(self):
        # finish() builds the record positionally: distinct values in
        # every field, so two swapped floats cannot compare equal.
        request = Request(
            payload="x", generated_at=1.0, logical_id=7, attempt=2, shed=True,
            server_id=3, request_class="gold", batch_size=4, cache_hit=True,
        )
        request.sent_at = 1.001
        request.enqueued_at = 1.002
        request.service_start_at = 1.010
        request.service_end_at = 1.030
        request.response_received_at = 1.031
        assert request.finish() == RequestRecord(
            request_id=request.request_id,
            generated_at=1.0,
            sent_at=1.001,
            enqueued_at=1.002,
            service_start_at=1.010,
            service_end_at=1.030,
            response_received_at=1.031,
            server_id=3,
            logical_id=7,
            attempt=2,
            shed=True,
            request_class="gold",
            batch_size=4,
            cache_hit=True,
        )

    def test_unrouted_request_records_server_zero(self):
        request = make_request()
        assert request.server_id is None
        assert request.finish().server_id == 0


class TestRequestIsSlotted:
    def test_no_dict_and_no_unknown_attribute(self):
        request = Request(payload="x", generated_at=1.0)
        assert not hasattr(request, "__dict__")
        with pytest.raises(AttributeError):
            request.sent_att = 1.0

    def test_defaults_and_keywords(self):
        request = Request("x", 1.0)
        assert [getattr(request, name) for name in Request.__slots__[3:]] == [
            None, None, None, None, None, None, None,  # stamps, response, error
            None, 0, None, False, False,  # logical_id .. discard
            None, 0, None, 1, False,  # server_id .. cache_hit
        ]
        pinned = Request(payload="x", generated_at=1.0, request_id=41, priority=2)
        assert (pinned.request_id, pinned.priority) == (41, 2)
        # An explicit id does not draw from the counter.
        first = Request(payload=None, generated_at=0.0)
        Request(payload=None, generated_at=0.0, request_id=5)
        after = Request(payload=None, generated_at=0.0)
        assert after.request_id == first.request_id + 1

    def test_pickle_round_trip(self):
        request = make_request()
        request.response, request.error = {"rows": [1, 2]}, "boom"
        request.logical_id, request.attempt, request.deadline = 7, 1, 2.5
        request.server_id, request.priority, request.request_class = 3, 2, "gold"
        request.batch_size, request.cache_hit, request.discard = 4, True, True
        copy = pickle.loads(pickle.dumps(request, pickle.HIGHEST_PROTOCOL))
        assert type(copy) is Request
        for name in Request.__slots__:
            assert getattr(copy, name) == getattr(request, name), name
        record = request.finish()
        thawed = pickle.loads(pickle.dumps(record, pickle.HIGHEST_PROTOCOL))
        assert type(thawed) is RequestRecord and thawed == record


class TestFinishErrorTexts:
    @pytest.mark.parametrize("partial", [False, True])
    def test_out_of_order(self, partial):
        request = make_request(service_end_at=1.005)
        with pytest.raises(ValueError) as raised:
            request.finish(partial=partial)
        assert str(raised.value) == (
            f"request {request.request_id}: service_end_at=1.005 precedes "
            "service_start_at=1.01"
        )

    def test_not_stamped(self):
        request = make_request()
        request.sent_at = None
        with pytest.raises(ValueError) as raised:
            request.finish()
        assert str(raised.value) == f"request {request.request_id}: sent_at not stamped"
        # Tolerated when partial: the stamped part is still monotone ...
        assert request.finish(partial=True).sent_at is None
        # ... and a hole does not hide a stamp that precedes the last
        # one before it.
        request.enqueued_at = 0.5
        with pytest.raises(ValueError) as raised:
            request.finish(partial=True)
        assert str(raised.value) == (
            f"request {request.request_id}: enqueued_at=0.5 precedes generated_at=1.0"
        )

    def test_the_first_fault_along_the_chain_is_named(self):
        request = make_request(enqueued_at=0.5)
        request.service_end_at = None
        with pytest.raises(ValueError, match="enqueued_at=0.5 precedes sent_at=1.001"):
            request.finish()

    def test_a_nanosecond_of_disorder_is_tolerated(self):
        record = make_request(enqueued_at=1.001 - 5e-10).finish()
        assert record.enqueued_at < record.sent_at
