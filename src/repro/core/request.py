"""Request/response records and their timestamp chain.

TailBench distinguishes *service time* (application processing only)
from *sojourn time* (end-to-end: queueing + service + network), see
Sec. V. Each :class:`Request` carries the full timestamp chain so all
of these can be derived after the fact:

    generated -> sent -> enqueued -> service_start -> service_end
              -> response_received

``generated`` is the ideal open-loop arrival instant produced by the
traffic shaper; measuring latency from this instant (rather than from
the actual send time) is what avoids the coordinated-omission pitfall
[Tene 2013]: a late send does not hide the queueing delay the request
actually suffered.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, NamedTuple, Optional

__all__ = ["Request", "RequestRecord"]

_request_ids = itertools.count()
_new_tuple = tuple.__new__


class Request:
    """One in-flight request plus its accumulating timestamps (seconds).

    A request is one *attempt* of a logical request: retries and hedges
    share a ``logical_id`` and carry increasing ``attempt`` numbers, so
    the client can match responses back to the logical request they
    answer. ``deadline`` is the absolute instant after which a response
    no longer counts as a success; ``shed`` marks an admission-control
    rejection; ``discard`` marks a fault-injected duplicate whose
    response must be ignored.

    Slotted by hand (``dataclass(slots=True)`` needs Python 3.10): the
    one mutable object a request is while in flight carries no
    ``__dict__``, and a misspelt stamp raises instead of being kept.
    """

    __slots__ = (
        "payload", "generated_at", "request_id", "sent_at", "enqueued_at",
        "service_start_at", "service_end_at", "response_received_at",
        "response", "error", "logical_id", "attempt", "deadline", "shed",
        "discard",
        #: Index of the server instance this attempt was routed to (set
        #: by the balancer in multi-server topologies; 0 in the classic
        #: single-server harness shape).
        "server_id",
        #: Scheduling priority (higher = more urgent). 0 for
        #: unclassified traffic; set by the control plane's request
        #: classifier when priority scheduling is enabled.
        "priority",
        #: Name of the request class the classifier assigned (None for
        #: unclassified traffic); carried onto the record so per-class
        #: latency can be reported.
        "request_class",
        #: Number of requests co-scheduled in this request's service
        #: batch (1 when batching is off or the batch degenerated to a
        #: single member). Set by the batched worker loop at service
        #: start.
        "batch_size",
        #: True when the caching tier answered this request without
        #: running the application (the service window then covers only
        #: the configured hit cost). Set by the server worker (live) or
        #: the simulated server (sim) when a cache lookup hits.
        "cache_hit",
    )

    def __init__(
        self,
        # What ``Transport.send`` sets, first: it passes them by
        # position (keywords would make every attempt build a dict).
        payload: Any,
        generated_at: float,
        logical_id: Optional[int] = None,
        attempt: int = 0,
        deadline: Optional[float] = None,
        sent_at: Optional[float] = None,
        server_id: Optional[int] = None,
        discard: bool = False,
        request_id: Optional[int] = None,
        enqueued_at: Optional[float] = None,
        service_start_at: Optional[float] = None,
        service_end_at: Optional[float] = None,
        response_received_at: Optional[float] = None,
        response: Any = None,
        error: Optional[str] = None,
        shed: bool = False,
        priority: int = 0,
        request_class: Optional[str] = None,
        batch_size: int = 1,
        cache_hit: bool = False,
    ) -> None:
        self.payload = payload
        self.generated_at = generated_at
        self.request_id = next(_request_ids) if request_id is None else request_id
        self.sent_at = sent_at
        self.enqueued_at = enqueued_at
        self.service_start_at = service_start_at
        self.service_end_at = service_end_at
        self.response_received_at = response_received_at
        self.response = response
        self.error = error
        self.logical_id = logical_id
        self.attempt = attempt
        self.deadline = deadline
        self.shed = shed
        self.discard = discard
        self.server_id = server_id
        self.priority = priority
        self.request_class = request_class
        self.batch_size = batch_size
        self.cache_hit = cache_hit

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"Request({fields})"

    def trace_ids(self, server_id: int) -> Dict[str, Optional[int]]:
        """This attempt's identity as the keyword arguments trace
        events and cache calls take."""
        return {
            "logical_id": self.logical_id,
            "request_id": self.request_id,
            "attempt": self.attempt,
            "server_id": server_id,
        }

    def finish(self, partial: bool = False) -> "RequestRecord":
        """Freeze into an immutable record; validates the chain.

        By default every stamp must be present and monotone — a
        measured completion with a hole in its chain is a harness bug.
        With ``partial=True``, missing stamps are tolerated (only
        monotonicity among the stamped ones is enforced): shed and
        discarded attempts never reach service, yet their truncated
        chains still need to be representable in traces.
        """
        generated, sent, enqueued, started, ended, received = stamps = (
            self.generated_at, self.sent_at, self.enqueued_at,
            self.service_start_at, self.service_end_at,
            self.response_received_at,
        )
        try:
            # The common case in one expression: every stamp present
            # (a None raises TypeError here) and none earlier than the
            # one before it by more than the loop below tolerates.
            out_of_order = (
                sent < generated - 1e-9 or enqueued < sent - 1e-9
                or started < enqueued - 1e-9 or ended < started - 1e-9
                or received < ended - 1e-9
            )
        except TypeError:
            out_of_order = True
        if out_of_order:
            self._check_chain(stamps, partial)
        server_id = self.server_id
        # Every field in order, so the record is built as the tuple it
        # is, without the named constructor's call.
        return _new_tuple(RequestRecord, (
            self.request_id, *stamps,
            0 if server_id is None else server_id,
            self.logical_id, self.attempt, self.shed,
            self.request_class, self.batch_size, self.cache_hit,
        ))

    def _check_chain(self, stamps: tuple, partial: bool) -> None:
        """The slow check behind :meth:`finish`: raise, naming the
        stamp, for a hole (unless ``partial``) or for a stamp earlier
        than the last one present."""
        # The record lists the chain in order (fields 1-6): the five
        # stamps after ``generated_at`` take their names from it.
        prev_name, prev_val = "generated_at", stamps[0]
        for name, val in zip(RequestRecord._fields[2:7], stamps[1:]):
            if val is None:
                if partial:
                    continue
                raise ValueError(f"request {self.request_id}: {name} not stamped")
            if val < prev_val - 1e-9:
                raise ValueError(
                    f"request {self.request_id}: {name}={val} precedes "
                    f"{prev_name}={prev_val}"
                )
            prev_name, prev_val = name, val


class RequestRecord(NamedTuple):
    """Immutable timing record of one completed (or rejected) request.

    Records built by ``finish()`` (the strict path) always carry the
    full chain; those built by ``finish(partial=True)`` may have
    ``None`` holes — e.g. a shed attempt never reaches service — and
    answer :attr:`complete` False. The derived-time properties assume
    a complete chain; callers holding partial records (the tracing
    layer) must check :attr:`complete` first.
    """

    request_id: int
    generated_at: float
    sent_at: Optional[float]
    enqueued_at: Optional[float]
    service_start_at: Optional[float]
    service_end_at: Optional[float]
    response_received_at: Optional[float]
    server_id: int = 0
    logical_id: Optional[int] = None
    attempt: int = 0
    shed: bool = False
    request_class: Optional[str] = None
    batch_size: int = 1
    #: Whether the caching tier short-circuited service for this request.
    cache_hit: bool = False

    @property
    def complete(self) -> bool:
        """True when every stamp of the chain is present."""
        return None not in (
            self.sent_at,
            self.enqueued_at,
            self.service_start_at,
            self.service_end_at,
            self.response_received_at,
        )

    @property
    def service_time(self) -> float:
        """Pure application processing time."""
        return self.service_end_at - self.service_start_at

    @property
    def service_share(self) -> float:
        """Per-request cost attribution of a batched service window.

        The whole batch shares one service window; dividing by the
        batch occupancy charges each member its amortized cost, so
        aggregate server busy-time reconstructed from records is not
        inflated ``batch_size``-fold. Equal to :attr:`service_time`
        for unbatched requests.
        """
        return self.service_time / self.batch_size

    @property
    def queue_time(self) -> float:
        """Time spent waiting in the server's request queue."""
        return self.service_start_at - self.enqueued_at

    @property
    def sojourn_time(self) -> float:
        """End-to-end latency from ideal (open-loop) generation instant."""
        return self.response_received_at - self.generated_at

    @property
    def send_delay(self) -> float:
        """Client-side lag between ideal arrival instant and actual send.

        Persistent growth here means the load generator itself cannot
        keep up — a measurement-validity red flag the harness checks.
        """
        return self.sent_at - self.generated_at

    @property
    def network_time(self) -> float:
        """Transport time, both directions (send->enqueue + service_end->recv)."""
        return (self.enqueued_at - self.sent_at) + (
            self.response_received_at - self.service_end_at
        )
