"""Span recorder for the traced repetition of the hotpath benchmark.

Everything here wraps the program *from outside, at run time*: the
benchmark patches public methods of the layers it drives
(``Transport.send``, ``RequestQueue.put``/``get``, the app object's
``process``, ``StatsCollector.add``/``snapshot``,
``WallClock.sleep_until``; for the simulator ``EventQueue.push``/
``pop``, every pushed callback, ``Event.__lt__``,
``ServiceTimeModel.sample``, the balancer's ``pick`` and the
``FaultInjector`` decision calls), records one span per call, and puts
the originals back when the traced repetition ends. Nothing under
``src/`` knows this file exists, and no end-to-end number is ever taken
while a patch is installed.

A span is ``(id, name, phase, start_ns, end_ns, parent_id, request_id)``.
Spans stay in memory (one tuple appended per call — atomic under the
GIL, so no lock on the hot path) and are written out as JSON lines
when the run ends. A layer's *self time* is its span minus the part
its direct children cover (:func:`self_times`).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Span", "SpanLog", "self_times", "live_patches", "sim_patches"]

#: ``(id, name, phase, start_ns, end_ns, parent_id, request_id)``;
#: ``parent_id``/``request_id`` are -1 when there is none.
Span = Tuple[int, str, str, int, int, int, int]

_now = time.perf_counter_ns


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Self time (ns) of every span: duration minus direct children.

    Children are the spans naming this one as ``parent_id``. A child
    runs on its parent's thread, inside its parent's interval, so the
    subtraction never double-counts.
    """
    spans = list(spans)
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[5] in own:
            own[s[5]] -= s[4] - s[3]
    return own


class SpanLog:
    """In-memory span store plus the patch/unpatch bookkeeping."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Boundary counts that are not worth a span each (``Event.__lt__``
        #: runs ~20x per simulated request).
        self.counts: Dict[str, int] = defaultdict(int)
        #: Label stamped on every span; the runner sets it per phase.
        self.phase = ""
        #: phase -> the Transport ``run_harness`` built for it, kept so
        #: its counters and queue can be read once the phase is over.
        self.transports: Dict[str, object] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object, bool]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(
        self,
        name: str,
        fn: Callable,
        rid_from_args: Optional[Callable] = None,
        rid_from_result: Optional[Callable] = None,
        rid_slot: Optional[str] = None,
        remember: Optional[str] = None,
    ) -> Callable:
        """Wrap ``fn`` so every call records one span called ``name``.

        The request id comes from the arguments, the result, or a
        thread-local slot an earlier wrapper filled (``rid_slot``);
        ``remember`` stores this call's id into such a slot, which is
        how ``process`` (which only sees a payload) learns the id of
        the request its worker just dequeued.
        """
        spans, ids, local = self.spans, self._ids, self._local

        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            rid = -1
            result = None
            start = _now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _now()
                stack.pop()
                if rid_from_args is not None:
                    rid = rid_from_args(args)
                elif rid_from_result is not None and result is not None:
                    rid = rid_from_result(result)
                elif rid_slot is not None:
                    rid = getattr(local, rid_slot, -1)
                if remember is not None:
                    setattr(local, remember, rid)
                spans.append((sid, name, self.phase, start, end, parent, rid))

        return wrapper

    # -- patching ------------------------------------------------------
    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Install ``replacement`` as ``owner.attr``; remembered for undo."""
        had = attr in vars(owner)
        self._patched.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, replacement)

    def unpatch_all(self) -> None:
        while self._patched:
            owner, attr, original, had = self._patched.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- reading -------------------------------------------------------
    def select(self, name: str, phase: Optional[str] = None) -> List[Span]:
        return [
            s for s in self.spans
            if s[1] == name and (phase is None or s[2] == phase)
        ]

    def durations(self, name: str, phase: Optional[str] = None) -> List[int]:
        return [s[4] - s[3] for s in self.select(name, phase)]

    def self_totals(self, phase: str) -> Dict[str, int]:
        """Summed self time (ns) per span name over one phase."""
        in_phase = [s for s in self.spans if s[2] == phase]
        own = self_times(in_phase)
        totals: Dict[str, int] = defaultdict(int)
        for span in in_phase:
            totals[span[1]] += own[span[0]]
        return totals

    def resolve_send_ids(self) -> None:
        """Give ``transport.send`` spans their request id after the fact.

        ``send`` builds the request internally, so the wrapper cannot
        see the id unless the enqueue happens on the same thread
        (integrated). Ids are handed out in send order by one shaper
        thread, so when every send completed the k-th send of a phase
        is the k-th smallest id the collector saw in that phase.
        """
        by_phase: Dict[str, List[int]] = defaultdict(list)
        seen: Dict[str, List[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span[1] == "transport.send":
                by_phase[span[2]].append(index)
            elif span[1] == "collector.add":
                seen[span[2]].append(span[6])
        for phase, indexes in by_phase.items():
            ids = sorted(seen[phase])
            if len(ids) != len(indexes):
                continue
            indexes.sort(key=lambda i: self.spans[i][3])
            for index, rid in zip(indexes, ids):
                s = self.spans[index]
                self.spans[index] = s[:6] + (rid,)

    def write_jsonl(self, path) -> None:
        """Write every span as one JSON object per line."""
        keys = ("id", "name", "phase", "start_ns", "end_ns", "parent", "request")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))))
                fh.write("\n")


def _request_id_of_second(args) -> int:
    return args[1].request_id


@contextmanager
def live_patches(log: SpanLog, app):
    """Patch the live request path for the traced repetition.

    Class-level patches cover every instance ``run_harness`` builds
    internally; ``process`` is patched on the app *object* (the app may
    be any class). Also spans ``Transport.start``/``stop`` — set-up and
    tear-down cost the run pays around each phase.
    """
    from repro.core import RequestQueue, StatsCollector, WallClock
    from repro.core.transport import Transport

    real_start = Transport.start

    def start(transport, *args, **kwargs):
        log.transports[log.phase] = transport
        return real_start(transport, *args, **kwargs)

    try:
        log.patch(Transport, "start", log.timed("transport.start", start))
        log.patch(Transport, "stop", log.timed("transport.stop", Transport.stop))
        log.patch(Transport, "send", log.timed(
            "transport.send", Transport.send, rid_slot="put_id",
        ))
        log.patch(RequestQueue, "put", log.timed(
            "queueing.put", RequestQueue.put,
            rid_from_args=_request_id_of_second, remember="put_id",
        ))
        log.patch(RequestQueue, "get", log.timed(
            "queueing.get", RequestQueue.get,
            rid_from_result=lambda request: request.request_id,
            remember="serving_id",
        ))
        log.patch(app, "process", log.timed(
            "server.process", app.process, rid_slot="serving_id",
        ))
        log.patch(StatsCollector, "add", log.timed(
            "collector.add", StatsCollector.add,
            rid_from_args=_request_id_of_second,
        ))
        log.patch(StatsCollector, "snapshot", log.timed(
            "collector.snapshot", StatsCollector.snapshot,
        ))
        log.patch(WallClock, "sleep_until", log.timed(
            "clock.sleep_until", WallClock.sleep_until,
        ))
        yield log
    finally:
        log.unpatch_all()
        log.resolve_send_ids()


#: Which simulator object a pushed callback belongs to decides the
#: span's name: the server model, the simulated client state machine,
#: or anything else (arrival closures, samplers).
_CALLBACK_OWNERS = {
    "SimulatedServer": "sim.server_cb",
    "_SimClient": "sim.client_cb",
}

_FAULT_DECISIONS = (
    "transport_action",
    "worker_pause",
    "worker_crash",
    "app_error",
    "queue_stall_remaining",
)


@contextmanager
def sim_patches(log: SpanLog, balancer_name: str):
    """Patch the simulator's engine and the layers it calls.

    ``EventQueue.push`` is replaced by a version that pushes a
    trampoline in place of the callback, so each executed event becomes
    a span named after the class that owns the callback and the heap
    operations nest as its children. ``Event.__lt__`` is only counted.
    """
    from repro.core import make_balancer
    from repro.faults import FaultInjector
    from repro.sim import Engine, Event, EventQueue, ServiceTimeModel

    counts = log.counts
    real_push = EventQueue.push
    real_lt = Event.__lt__

    def call(fn, *args):
        fn(*args)

    trampolines = {
        name: log.timed(name, call)
        for name in (*_CALLBACK_OWNERS.values(), "sim.other_cb")
    }

    def push(queue, when, fn, *args):
        owner = type(getattr(fn, "__self__", None)).__name__
        name = _CALLBACK_OWNERS.get(owner, "sim.other_cb")
        return real_push(queue, when, trampolines[name], fn, *args)

    def counting_lt(a, b):
        counts["sim.event_lt"] += 1
        return real_lt(a, b)

    balancer = type(make_balancer(balancer_name))
    try:
        log.patch(EventQueue, "push", log.timed("sim.heap_push", push))
        log.patch(EventQueue, "pop", log.timed("sim.heap_pop", EventQueue.pop))
        log.patch(Event, "__lt__", counting_lt)
        log.patch(Engine, "run", log.timed("sim.engine_run", Engine.run))
        log.patch(ServiceTimeModel, "sample", log.timed(
            "sim.service_sample", ServiceTimeModel.sample,
        ))
        log.patch(balancer, "pick", log.timed("balancer.pick", balancer.pick))
        for decision in _FAULT_DECISIONS:
            log.patch(FaultInjector, decision, log.timed(
                "faults.call", getattr(FaultInjector, decision),
            ))
        yield log
    finally:
        log.unpatch_all()
