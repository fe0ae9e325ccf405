"""Client-side resilience: deadlines, retries, hedging.

Production clients of latency-critical services do not wait forever:
they bound each request with a deadline, retry transient failures with
exponential backoff and full jitter [AWS Architecture Blog 2015], and
optionally *hedge* — send a duplicate once the request has outlived a
high percentile of normal latency [Dean & Barroso, "The Tail at
Scale", CACM 2013]. :class:`ResilientClient` adds all three while
preserving the open-loop guarantee: retries and hedges are scheduled
as *new arrivals* on the run's timer scheduler — one timer thread live,
the event engine in the simulator, the same state machine under both —
and never block the traffic shaper, so injected faults cannot
re-introduce coordinated omission through the recovery path.

Latency accounting under failures follows the failure-aware rules the
statistics collector implements (see ``collector.py``): success
percentiles are measured over logical requests that met their
deadline, from the ideal generation instant; per-attempt percentiles
are measured over every attempt that produced a response.
"""

from __future__ import annotations

import itertools
import random
import threading
from dataclasses import dataclass
from typing import Dict, Optional

from .clock import Clock
from .scheduler import Scheduler, lock_for

__all__ = [
    "ResilienceConfig",
    "ResilientClient",
    "backoff_delay",
    "effective_attempt_timeout",
]


@dataclass(frozen=True)
class ResilienceConfig:
    """Client-side recovery policy for one run.

    Attributes
    ----------
    deadline:
        Per-request deadline in seconds, measured from the ideal
        (open-loop) generation instant. A logical request unresolved at
        its deadline is counted as ``timed_out``; a response arriving
        later is counted as ``late`` and excluded from success
        statistics. ``None`` disables deadlines (and with them, any
        recovery from dropped messages).
    attempt_timeout:
        How long to wait for one attempt before retrying. Defaults to
        ``deadline / (max_retries + 1)`` when retries and a deadline
        are both configured.
    max_retries:
        Retry budget per logical request (0 = never retry). Retries
        also trigger on failure responses (application errors, shed
        replies).
    backoff_base / backoff_cap:
        Exponential backoff with full jitter: the k-th retry waits
        ``uniform(0, min(cap, base * 2**k))`` seconds.
    hedge_after:
        If set, send one duplicate (hedge) attempt when no response has
        arrived this many seconds after the first send — typically an
        estimate of healthy p95 sojourn. First response wins.
    max_hedges:
        Hedge budget per logical request.
    """

    deadline: Optional[float] = None
    attempt_timeout: Optional[float] = None
    max_retries: int = 0
    backoff_base: float = 0.002
    backoff_cap: float = 0.1
    hedge_after: Optional[float] = None
    max_hedges: int = 1

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if self.attempt_timeout is not None and self.attempt_timeout <= 0:
            raise ValueError("attempt_timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base <= 0 or self.backoff_cap <= 0:
            raise ValueError("backoff parameters must be positive")
        if self.hedge_after is not None and self.hedge_after <= 0:
            raise ValueError("hedge_after must be positive")
        if self.max_hedges < 0:
            raise ValueError("max_hedges must be >= 0")

    @property
    def enabled(self) -> bool:
        """True when any resilience mechanism is active."""
        return (
            self.deadline is not None
            or self.max_retries > 0
            or self.hedge_after is not None
        )


def backoff_delay(
    config: ResilienceConfig, rng: random.Random, retry_index: int
) -> float:
    """Full-jitter exponential backoff for the ``retry_index``-th retry."""
    cap = min(config.backoff_cap, config.backoff_base * (2.0 ** retry_index))
    return rng.uniform(0.0, cap)


def effective_attempt_timeout(
    config: ResilienceConfig,
    now: Optional[float] = None,
    deadline: Optional[float] = None,
) -> Optional[float]:
    """The per-attempt timeout, defaulted from the deadline if unset.

    When ``now`` and the request's absolute ``deadline`` are both
    given, the timeout is additionally clamped to the remaining
    deadline budget. Backoff sleeps between attempts consume wall time
    that the fixed per-attempt window knows nothing about, so without
    the clamp a late attempt keeps its full window even when the
    deadline lands inside it — its timer then fires after the request
    has already resolved as timed out, pure dead time (and in the
    simulator, virtual time extending past the last deadline).
    """
    if config.attempt_timeout is not None:
        base = config.attempt_timeout
    elif config.deadline is not None and config.max_retries > 0:
        base = config.deadline / (config.max_retries + 1)
    else:
        return None
    if now is not None and deadline is not None:
        base = min(base, max(deadline - now, 0.0))
    return base


class _Call:
    """State of one logical request across its attempts."""

    __slots__ = (
        "logical_id",
        "payload",
        "generated_at",
        "deadline",
        "attempt_seq",
        "cur_attempt",
        "retries",
        "retry_pending",
        "hedges",
        "resolved",
        "last_server",
        "timers",
        "server_id",
    )

    def __init__(
        self, logical_id: int, payload, generated_at: float,
        deadline: Optional[float], server_id: Optional[int],
    ) -> None:
        self.logical_id = logical_id
        self.payload = payload
        self.generated_at = generated_at
        self.deadline = deadline
        #: The one replica that can answer (a fan-out leg's shard), sent
        #: with every attempt; None leaves routing to the balancer.
        self.server_id = server_id
        self.attempt_seq = 0
        self.cur_attempt = 0
        self.retries = 0
        self.retry_pending = False
        self.hedges = 0
        self.resolved = False
        #: Server the most recent primary attempt was routed to; a
        #: hedge asks the balancer to pick a *different* replica.
        self.last_server: Optional[int] = None
        #: Outstanding timer handles; cancelled on resolution so dead
        #: calls stop costing scheduler work under either clock.
        self.timers: list = []


#: :meth:`ResilientClient._next_retry`'s "fail the call now".
_FAIL = object()


class ResilientClient:
    """The logical-request state machine: deadline, retry, hedge.

    One implementation, two schedulers. Every recovery timer goes
    through the ``at / after / cancel`` scheduler passed as
    ``scheduler`` — the run's :class:`~repro.core.scheduler.Scheduler`
    timer thread under the wall clock, the simulator's
    :class:`repro.sim.Engine` under the virtual one; a client built
    without one makes (and :meth:`close` stops) a timer thread of its
    own — armed through one ``lane()`` of it per kind of timer, and
    every attempt goes out through ``transport.send``.

    Whoever wires the client makes :meth:`on_attempt_complete` the
    transport's ``sink``, and the client then owns outcome accounting:
    successful attempts that beat the deadline feed the latency
    statistics; timeouts, shed replies, errors, and late responses are
    tallied separately, so percentiles stay sound under injected
    faults. Use :meth:`send` in place of ``transport.send`` and
    :meth:`drain` in place of ``transport.drain``.

    A call resolves exactly once, through ``sink(logical_id, outcome,
    request)`` — ``request`` is the winning attempt of a ``succeeded``
    call, else None. The default, :meth:`record`, is the top of the
    client stack writing to the collector; a layer stacked on this one
    (the fan-out gatherer, whose legs are this client's calls) takes
    the sink over and records what *it* resolves instead. Attempt-level
    tallies stay here either way.

    Exactly once without a lock: the thread that pops the call from
    the open calls resolves it, and a resolved call holds no armed
    timer (:meth:`_disarm`). Only the retry decision, which a response
    and an attempt timeout may race for, takes the lock the scheduler
    hands out (:func:`~repro.core.scheduler.lock_for`; none under the
    engine).
    """

    def __init__(
        self,
        transport,
        clock: Clock,
        config: ResilienceConfig,
        collector,
        seed: int = 0,
        tracer=None,
        health=None,
        scheduler=None,
    ) -> None:
        self._transport = transport
        self._scheduler = (
            scheduler if scheduler is not None else Scheduler(clock)
        )
        # One lane per kind of timer (DESIGN.md §4 "Who advances
        # time"): each kind is armed in time order, so only its next
        # timer sits on the heap; a backoff earlier than its lane's
        # tail goes to the heap instead.
        self._deadlines, self._hedges, self._timeouts, self._backoffs = (
            self._scheduler.lane() for _ in range(4)
        )
        self._clock = clock
        self._config = config
        self._collector = collector
        #: Where a resolved call is reported (see the class docstring);
        #: ``RunParts.wire`` points it at the layer stacked above.
        self.sink = self.record
        self._tracer = tracer
        #: Optional repro.health.HealthManager: feeds the retry budget
        #: and reports attempt timeouts (the one failure signal the
        #: completion path never sees).
        self._health = health
        self._rng = random.Random(seed ^ 0x8E511)
        #: The per-attempt window before the deadline clamps it.
        self._attempt_timeout = effective_attempt_timeout(config)
        self._lock = lock_for(self._scheduler)
        self._resolved_cv = (
            None if self._lock is None else threading.Condition(self._lock)
        )
        #: The open calls: a call leaves when it resolves.
        self._calls: Dict[int, _Call] = {}
        self._ids = itertools.count()

    # -- client-facing API ---------------------------------------------
    def send(
        self, generated_at: float, payload, *,
        logical_id: Optional[int] = None, server_id: Optional[int] = None,
    ) -> None:
        """Submit one logical request (traffic-shaper entry point).

        A layer above that splits its own requests into calls of this
        client (fan-out) names each call (``logical_id``) and the one
        replica that can answer it (``server_id``); every attempt of
        the call — retries and hedges included — carries that pin.
        """
        config = self._config
        if logical_id is None:
            logical_id = next(self._ids)
            self._collector.note("offered")
        deadline = (
            generated_at + config.deadline
            if config.deadline is not None
            else None
        )
        call = _Call(logical_id, payload, generated_at, deadline, server_id)
        self._calls[logical_id] = call
        if self._health is not None:
            self._health.on_first_attempt()
        self._send_attempt(call, kind="first")
        timers = call.timers
        if deadline is not None:
            timers.append(self._deadlines.at(deadline, self._on_deadline, call))
        if config.hedge_after is not None and config.max_hedges > 0:
            timers.append(self._hedges.after(
                config.hedge_after, self._maybe_hedge, call
            ))
        if call.resolved:
            # Answered while these were armed (see _resolve).
            self._disarm(call)

    def drain(self, timeout: float = 300.0) -> None:
        """Block until every logical request has resolved.

        Under the simulator's engine nothing resolves while this
        waits, so it only checks.
        """
        cv = self._resolved_cv
        if cv is None:
            done = not self._calls
        else:
            with cv:
                done = cv.wait_for(lambda: not self._calls, timeout)
        if not done:
            raise TimeoutError(
                f"{len(self._calls)} logical requests still unresolved"
            )

    def fail_unresolved(self) -> None:
        """Resolve every still-open call as ``failed``.

        For a scheduler that has run dry (the simulator's drained
        heap): without a deadline, an unrecovered drop leaves no timer
        that would ever resolve the call.
        """
        for call in list(self._calls.values()):
            self._resolve(call, "failed")

    def close(self) -> None:
        """Stop the timer thread of a client built without a scheduler.

        A client given the run's scheduler is not closed: whoever made
        the scheduler stops it.
        """
        self._scheduler.stop()

    # -- attempt lifecycle ---------------------------------------------
    def _send_attempt(self, call: _Call, kind: str) -> None:
        # A call's first attempt is numbered before any timer of it is
        # armed, and its retries and hedges all fire on the one timer
        # thread: no two threads number its attempts at once.
        if call.resolved:
            return
        call.attempt_seq += 1
        attempt_no = call.attempt_seq
        if kind != "hedge":
            call.cur_attempt = attempt_no
        collector = self._collector
        collector.note("attempts")
        if kind == "retry":
            collector.note("retries")
        elif kind == "hedge":
            collector.note("hedges")
        if self._tracer is not None and kind != "first":
            self._tracer.emit(
                kind, self._clock.now(), logical_id=call.logical_id,
                attempt=attempt_no,
            )
        # A hedge duplicates work still in flight; sending it to the
        # replica already holding the slow attempt would be pointless,
        # so steer the balancer away from it.
        server_id = self._transport.send(
            call.generated_at,
            call.payload,
            logical_id=call.logical_id,
            attempt=attempt_no,
            deadline=call.deadline,
            avoid_server=call.last_server if kind == "hedge" else None,
            server_id=call.server_id,
        )
        if kind == "hedge":
            return
        if server_id is not None:
            # None: dropped before any router saw it, so the call's
            # last-known server stands.
            call.last_server = server_id
        timeout = self._attempt_timeout
        if timeout is not None:
            # Clamped to the remaining deadline budget: backoff sleeps
            # erode it, and a timer running past the deadline would fire
            # on a call the deadline has already decided.
            if call.deadline is not None:
                left = call.deadline - self._clock.now()
                if left < timeout:
                    timeout = 0.0 if left < 0.0 else left
            if timeout > 0.0:
                call.timers.append(self._timeouts.after(
                    timeout, self._on_attempt_timeout, call, attempt_no
                ))
                if call.resolved:
                    self._disarm(call)

    def on_attempt_complete(self, request) -> None:
        """The transport's sink: one answered attempt of some call."""
        now = request.response_received_at
        if request.sent_at is not None:
            latency = now - request.sent_at
            self._collector.record_attempt(0.0 if latency < 0.0 else latency)
        call = self._calls.get(request.logical_id)
        if call is None:
            self._collector.note("late")
            if self._tracer is not None:
                self._tracer.emit(
                    "late", now, logical_id=request.logical_id,
                    request_id=request.request_id, attempt=request.attempt,
                    server_id=request.server_id,
                )
        elif request.shed or request.error is not None:
            self._collector.note("shed" if request.shed else "errors")
            self._retry_or_fail(call, request.attempt, "failed")
        elif call.deadline is not None and now > call.deadline:
            # Response and deadline raced; the deadline wins so goodput
            # counts only deadline-met completions.
            self._resolve(call, "timed_out")
        else:
            self._resolve(call, "succeeded", request)

    def _on_attempt_timeout(self, call: _Call, attempt_no: int) -> None:
        if call.resolved or attempt_no != call.cur_attempt:
            return
        server_id = call.last_server
        if self._health is not None and server_id is not None:
            # The transport's health feed never sees a timed-out
            # attempt; report the failure against the routed replica.
            self._health.record_attempt(
                server_id, None, False, self._clock.now()
            )
        self._retry_or_fail(call, attempt_no, "timed_out")

    def _retry_or_fail(
        self, call: _Call, attempt_no: int, exhausted_outcome: str
    ) -> None:
        # A failed answer (a transport thread) and an attempt timeout
        # (the timer thread) may decide for the same call at once.
        lock = self._lock
        if lock is None:
            delay = self._next_retry(call, attempt_no)
        else:
            with lock:
                delay = self._next_retry(call, attempt_no)
        if delay is _FAIL:
            self._resolve(call, exhausted_outcome)
        elif delay is not None:
            call.timers.append(
                self._backoffs.after(delay, self._send_retry, call)
            )
            if call.resolved:
                self._disarm(call)

    def _next_retry(self, call: _Call, attempt_no: int):
        """The backoff before ``call``'s next retry; None when no retry
        is due (the deadline will decide), :data:`_FAIL` when the call
        fails now."""
        config = self._config
        if call.resolved or attempt_no < call.cur_attempt:
            return None
        if call.retry_pending:
            return None
        if call.retries >= config.max_retries:
            return _FAIL if call.deadline is None else None
        call.retries += 1
        delay = backoff_delay(config, self._rng, call.retries - 1)
        if (
            call.deadline is not None
            and self._clock.now() + delay >= call.deadline
        ):
            # The retry could not respond before the deadline; let the
            # deadline event resolve the call instead.
            return None
        if self._health is not None and not (
            self._health.try_spend_retry(self._clock.now())
        ):
            # Retry budget exhausted: give the slot back so a later
            # failure may retry once tokens refill, and fail now when
            # no deadline will resolve the call.
            call.retries -= 1
            return _FAIL if call.deadline is None else None
        call.retry_pending = True
        return delay

    def _send_retry(self, call: _Call) -> None:
        if call.resolved:
            return
        call.retry_pending = False
        self._send_attempt(call, kind="retry")

    def _maybe_hedge(self, call: _Call) -> None:
        if call.resolved or call.hedges >= self._config.max_hedges:
            return
        call.hedges += 1
        self._send_attempt(call, kind="hedge")

    def _on_deadline(self, call: _Call) -> None:
        self._resolve(call, "timed_out")

    # -- resolution ----------------------------------------------------
    def _disarm(self, call: _Call) -> None:
        """Cancel every timer ``call`` holds.

        So the scheduler stops paying for a dead call (and a simulated
        run ends at its last response, not its last timer). Whoever
        arms a timer appends it to ``call.timers`` first and then
        disarms the call if it has resolved; :meth:`_resolve` marks it
        resolved first and then disarms it. So whichever of the two
        comes second cancels the timer, and a resolved call holds no
        armed timer.
        """
        cancel = self._scheduler.cancel
        for timer in call.timers:
            cancel(timer)
        del call.timers[:]

    def record(self, logical_id: int, outcome: str, request) -> None:
        """The default sink: tally the outcome, record a success."""
        self._collector.note(outcome)
        if request is not None:
            self._collector.add(request.finish())

    def _resolve(self, call: _Call, outcome: str, request=None) -> None:
        # Popping is one atomic step: of two threads resolving the same
        # call, exactly one gets it.
        if self._calls.pop(call.logical_id, None) is None:
            return
        call.resolved = True
        self._disarm(call)
        cv = self._resolved_cv
        if cv is not None and not self._calls:
            with cv:
                cv.notify_all()
        self.sink(call.logical_id, outcome, request)
