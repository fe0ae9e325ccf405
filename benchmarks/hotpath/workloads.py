"""The five hotpath workloads and how one repetition of each is measured.

Only public entry points of the program are driven: ``run_harness``,
``simulate_app``, ``create_app``, ``HarnessConfig``, ``SimConfig`` (plus
``ResilienceConfig``/``FaultPlan``/``ObservabilityConfig`` to fill
them). The program generates its arrival schedule and payload stream
from the seed in its config, so everything below derives those seeds
from ``--seed`` and never hands the program anything else.

Why these five (``Workload.why`` is the short form BENCHMARK.json
carries; README.md has the long one):

* ``live-null`` / ``live-loopback`` — an app that does nothing, so the
  request path is the whole signal; the two differ only in transport,
  which separates "transport got faster" from "queue/worker/collector
  got faster".
* ``live-xapian`` — a real ~1 ms app: the bypass workload on which a
  request-path optimisation predicts *no change*.
* ``sim-plain`` / ``sim-resilient`` — the event engine used two ways:
  three plain events per request vs. seven, mostly deadline and hedge
  timers that fire after their request has resolved.
"""

from __future__ import annotations

import gc
import json
import pathlib
import random
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import FaultPlan, HarnessConfig, ResilienceConfig, create_app, run_harness
from repro.apps.base import Application, Client
from repro.core import ArrivalSchedule, ObservabilityConfig, PoissonArrivals
from repro.sim import SimConfig, simulate_app
from repro.stats import HdrHistogram, percentile

import trace as spans

HERE = pathlib.Path(__file__).resolve().parent

#: ``--seconds`` at which the request counts below apply unscaled; it is
#: also BENCHMARK.json's ``run_seconds`` and the only setting for which
#: ``expected.json`` pins simulated statistics.
CANONICAL_SECONDS = 30
DEFAULT_SEED = 2016
#: The traced repetition runs a quarter of the requests: a span per
#: call is ~200 B, and per-call medians need far fewer samples than p95.
TRACE_SCALE = 0.25
#: A paced phase that ends with its last response further behind its
#: last arrival than this share of its length (plus one scheduler
#: stall) was saturated: its latencies measure backlog, not cost.
SATURATED_SHARE = 0.03
ONE_STALL_S = 0.025


@dataclass(frozen=True)
class Phase:
    """One call of the program at one load: ``light``/``heavy``/``flood``."""

    name: str
    qps: float
    warmup: int
    measure: int

    def sized(self, scale: float) -> Tuple[int, int]:
        """(warmup, measure) request counts at ``scale``.

        Floors keep a ``--quick`` run meaningful: p95 of fewer than a
        hundred samples is one request.
        """
        warmup = max(int(round(self.warmup * scale)), 10) if self.warmup else 0
        return warmup, max(int(round(self.measure * scale)), 100)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "live" | "sim"
    why: str
    phases: Tuple[Phase, ...]
    #: Same-seed repetitions, interleaved across phases: light, heavy,
    #: flood, light, heavy, flood, ... so a slow spell of the host hits
    #: one repetition of each phase, not every repetition of one. Many
    #: short ones: a phase has to fit inside a quiet window of a second
    #: or two to be measured at all.
    reps: int = 12
    #: False keeps the workload out of BENCHMARK.json: it is run, printed
    #: and compared like the others, but no bound is enforced on it.
    gated: bool = True
    #: live: transport configuration and app ("null" or a registry name).
    configuration: str = "integrated"
    app: str = "null"
    #: sim: SimConfig fields beyond rate/counts/seed.
    sim: Tuple[Tuple[str, object], ...] = ()

    def phase(self, name: str) -> Phase:
        return next(p for p in self.phases if p.name == name)


_NULL_PHASES = (
    # 500 qps, not more: ``WallClock.sleep_until`` spins on the GIL once
    # the next arrival is under 1 ms away. At 1 000 qps that is 63 % of
    # the gaps, the sojourn distribution is a slope (p25 20, p50 24, p75
    # 37 us) and its median moved by 20 % between identical repetitions;
    # at 500 qps the median sits on a flat body (18 / 21 / 25 us) and
    # ten repetitions agreed to 3 %.
    Phase("light", 500.0, 50, 500),
    Phase("heavy", 8000.0, 1000, 8000),
    Phase("flood", 1e6, 0, 30000),
)

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "live-null", "live",
        "app does nothing over the integrated transport: per-request "
        "harness cost (traffic, queueing, server, collector) is the whole signal",
        _NULL_PHASES,
    ),
    Workload(
        "live-loopback", "live",
        "same null app over one loopback TCP connection: framing, sockets and "
        "receiver threads dominate, so a transport change shows here only",
        _NULL_PHASES,
        configuration="loopback",
        reps=6,
        # Unchanged code, back to back, same seed: light p50 56 <-> 110 us
        # and flood 25k <-> 42k req/s, in spells of 20-80 s during which
        # the CPU calibration loop does not move. No bound the contract
        # allows (<= 25 %) holds on that, so it is reported, not gated.
        gated=False,
    ),
    Workload(
        "live-xapian", "live",
        "real ~1 ms search app, integrated: the bypass workload where a "
        "request-path optimisation predicts no change, and the distortion guard",
        (
            Phase("light", 150.0, 15, 150),
            Phase("heavy", 300.0, 30, 600),
            Phase("flood", 1e6, 0, 400),
        ),
        app="xapian",
        reps=8,
        # Each repetition needs 3.5 s, longer than most quiet windows of
        # the host: between ten runs heavy_p95_us moved by 18-38 % of its
        # median (heavy_p50_us 9-18 %). Reported, not gated, like loopback.
        gated=False,
    ),
    Workload(
        "sim-plain", "sim",
        "single simulated server, ~3 heap events per request and no "
        "cancellations: engine push/pop, server model and collector do all the work",
        (
            Phase("light", 1000.0, 300, 2700),
            Phase("heavy", 4000.0, 3000, 30000),
        ),
        reps=20,
    ),
    Workload(
        "sim-resilient", "sim",
        "8 replicas, power-of-two routing, deadlines, retries, hedges and faults: ~7 "
        "events per request, mostly timers; client state machine and balancer dominate",
        (
            Phase("light", 5000.0, 150, 1350),
            Phase("heavy", 20000.0, 1200, 12000),
        ),
        reps=20,
        sim=(
            ("n_servers", 8),
            ("balancer", "power_of_two"),
            ("resilience", ResilienceConfig(
                deadline=0.05, max_retries=2, hedge_after=0.002,
            )),
            ("faults", FaultPlan(
                drop_rate=0.01, error_rate=0.01,
                worker_pause_rate=0.005, worker_pause=0.002,
            )),
        ),
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


class NullClient(Client):
    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def next_request(self) -> int:
        return self._rng.getrandbits(32)


class NullApp(Application):
    """Answers every request with its own payload, at no cost."""

    name = "null"
    domain = "harness self-measurement"

    def setup(self) -> None:
        pass

    def process(self, payload: int) -> int:
        return payload

    def make_client(self, seed: int = 0) -> NullClient:
        return NullClient(seed)


def make_app(workload: Workload) -> Application:
    return NullApp() if workload.app == "null" else create_app(workload.app)


def phase_seed(seed: int, workload: Workload, phase: Phase) -> int:
    """Each phase gets its own arrival/payload stream from ``--seed``."""
    return seed * 8 + workload.phases.index(phase)


def live_config(
    workload: Workload, phase: Phase, seed: int, scale: float, **extra
) -> HarnessConfig:
    warmup, measure = phase.sized(scale)
    return HarnessConfig(
        configuration=workload.configuration,
        qps=phase.qps,
        # Flood: every arrival is already due when the shaper starts, so
        # the source is never idle and completions/s is the ceiling.
        deterministic_arrivals=phase.name == "flood",
        n_threads=1,
        n_clients=1,
        warmup_requests=warmup,
        measure_requests=measure,
        seed=phase_seed(seed, workload, phase),
        **extra,
    )


def sim_config(workload: Workload, phase: Phase, seed: int, scale: float) -> SimConfig:
    warmup, measure = phase.sized(scale)
    return SimConfig(
        qps=phase.qps,
        warmup_requests=warmup,
        measure_requests=measure,
        seed=phase_seed(seed, workload, phase),
        **dict(workload.sim),
    )


# -- noise sources we can observe ---------------------------------------

class GcWatch:
    """Collector pauses via ``gc.callbacks`` (costs nothing between them)."""

    def __init__(self) -> None:
        self.pauses: List[Tuple[int, int]] = []
        self._started = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter_ns()
        else:
            self.pauses.append((self._started, time.perf_counter_ns()))

    def within(self, start_ns: int, end_ns: int) -> Tuple[float, float]:
        """(total_ms, max_ms) of pauses that began inside the window."""
        spent = [e - s for s, e in self.pauses if start_ns <= s <= end_ns]
        return sum(spent) / 1e6, max(spent, default=0) / 1e6


# -- one phase ------------------------------------------------------------

def _us(seconds: float) -> float:
    return seconds * 1e6


def _pcts(values: List[float], *pcts: float) -> List[float]:
    values.sort()
    return [_us(percentile(values, p, sorted_values=True)) for p in pcts]


def measure_live_phase(
    app, config: HarnessConfig, gc_watch: GcWatch, checks: List[str], label: str,
    layers: bool = False,
) -> dict:
    """Run one live phase untouched and reduce its records to numbers.

    ``layers`` adds, after the run, the per-layer costs the benchmark
    prices by calling the layer itself (:func:`price_layers`).
    """
    gc.collect()
    started = time.perf_counter_ns()
    result = run_harness(app, config)
    ended = time.perf_counter_ns()
    stats = result.stats
    records = stats.records
    t0 = time.perf_counter()
    summary = stats.summary("sojourn").percentiles
    summary_ms = (time.perf_counter() - t0) * 1e3
    offered = config.total_requests
    out = {
        "offered": offered,
        "succeeded": result.outcomes.get("succeeded", 0),
        "measured": stats.count,
        "dropped_warmup": stats.dropped_warmup,
        "errored": result.outcomes.get("errors", 0),
        "shed": result.outcomes.get("shed", 0),
        "achieved_qps": result.achieved_qps,
        "wall_s": result.wall_time,
        "p50_us": _us(summary[50.0]),
        "p95_us": _us(summary[95.0]),
        "p99_us": _us(summary[99.0]),
        "p999_us": _us(summary[99.9]),
        "summary_ms": summary_ms,
    }
    out["gc_total_ms"], out["gc_max_ms"] = gc_watch.within(started, ended)
    if stats.count + stats.dropped_warmup != offered:
        checks.append(
            f"{label}: offered {offered} != measured {stats.count} + "
            f"warm-up {stats.dropped_warmup}"
        )
    if result.server_errors:
        checks.append(f"{label}: {len(result.server_errors)} server errors")
    if config.deterministic_arrivals:
        return out
    # Always-on timestamp chain: where each request's time went.
    out["send_lag_p50_us"], out["send_lag_p95_us"] = _pcts(
        [r.send_delay for r in records], 50, 95
    )
    (out["request_path_p50_us"],) = _pcts(
        [r.enqueued_at - r.sent_at for r in records], 50
    )
    (out["response_path_p50_us"],) = _pcts(
        [r.response_received_at - r.service_end_at for r in records], 50
    )
    out["wait_p50_us"], out["wait_p95_us"] = _pcts(
        [r.queue_time for r in records], 50, 95
    )
    service = [r.service_time for r in records]
    out["service_mean_us"] = _us(statistics.fmean(service))
    out["service_p50_us"], out["service_p95_us"] = _pcts(service, 50, 95)
    # Did completions keep pace with arrivals over the measured window?
    # Judged against the schedule as drawn, not the nominal rate (1 000
    # Poisson arrivals span their nominal time only to within ~3 %), by
    # how far the last response trails the last arrival: a backlog grows
    # with the phase, one scheduler stall at its end does not.
    first = min(r.generated_at for r in records)
    arrivals = max(r.generated_at for r in records) - first
    trailing = max(r.response_received_at for r in records) - first - arrivals
    if trailing > SATURATED_SHARE * arrivals + ONE_STALL_S:
        checks.append(
            f"{label}: the last response trails the last arrival by "
            f"{trailing * 1e3:.1f} ms of a {arrivals * 1e3:.0f} ms phase: saturated"
        )
    if layers:
        price_layers(app, config, out, stats.samples("sojourn"))
    return out


def price_layers(app, config: HarnessConfig, phase: dict, sojourns) -> None:
    """Price, by calling them from here, layers a phase used internally.

    The harness draws its payloads and schedule itself; drawing the
    same ones again with the same public calls prices them without a
    patch. The payloads then feed a bare ``app.process`` loop, stamped
    per call exactly as the worker stamps service time, which is the
    denominator of ``server.service_inflation``. Last, the phase's own
    sojourns are recorded into a fresh HDR histogram, the per-sample
    cost the collector pays on every completion.
    """
    n = config.total_requests
    client = app.make_client(seed=config.seed)
    t0 = time.perf_counter()
    payloads = [client.next_request() for _ in range(n)]
    phase["payload_gen_us_per_req"] = _us(time.perf_counter() - t0) / n
    t0 = time.perf_counter()
    ArrivalSchedule.generate(PoissonArrivals(config.qps), n, seed=config.seed)
    phase["schedule_gen_us_per_req"] = _us(time.perf_counter() - t0) / n
    now = time.perf_counter
    bare = []
    for payload in payloads[config.warmup_requests:]:
        t0 = now()
        app.process(payload)
        bare.append(now() - t0)
    phase["service_inflation"] = phase["service_mean_us"] / _us(
        statistics.fmean(bare)
    )
    hist = HdrHistogram()
    t0 = time.perf_counter()
    for value in sojourns:
        hist.record(value)
    phase["hdr_record_ns"] = (time.perf_counter() - t0) * 1e9 / len(sojourns)


def measure_sim_phase(
    config: SimConfig, gc_watch: GcWatch, checks: List[str], label: str
) -> dict:
    gc.collect()
    started = time.perf_counter_ns()
    result = simulate_app("masstree", config)
    ended = time.perf_counter_ns()
    wall = (ended - started) / 1e9
    sojourn = result.sojourn
    offered = config.total_requests
    outcomes = dict(result.outcomes)
    out = {
        "offered": offered,
        "succeeded": outcomes.get("succeeded", 0),
        "measured": result.stats.count,
        "wall_s": wall,
        "rps": offered / wall,
        "p50_us": _us(sojourn.p50),
        "p95_us": _us(sojourn.p95),
        "p99_us": _us(sojourn.p99),
        "p999_us": _us(sojourn.percentiles[99.9]),
        "outcomes": outcomes,
        # What must not move when the simulator gets faster: seconds,
        # unrounded, exactly as the program returned them.
        "fingerprint": {
            "p50": sojourn.p50,
            "p95": sojourn.p95,
            "p99": sojourn.p99,
            "outcomes": outcomes,
            "routed_counts": list(result.routed_counts),
        },
    }
    out["gc_total_ms"], out["gc_max_ms"] = gc_watch.within(started, ended)
    if out["succeeded"] != offered:
        checks.append(f"{label}: {offered - out['succeeded']} of {offered} failed")
    return out


# -- aggregation ----------------------------------------------------------

def metric(
    name: str, values: Sequence[float], unit: str, n: int, pick=min,
    kind: str = "per_layer",
) -> dict:
    """One reported line: the best repetition (lowest; ``pick=max`` for
    throughput), its unit, its sample count, and how far the repetitions
    disagreed (``(max - min) / median``).

    Why the best and not the median: noise on a shared host is
    one-sided. A co-tenant on the sibling hardware thread slows
    everything to ~0.6x for 10-60 s at a time, with quiet windows of a
    few seconds in between, and nothing ever makes a repetition faster.
    Repetitions share one seed, hence one arrival schedule and payload
    stream, so they differ by host noise alone and the lowest carries no
    sampling bias. Between ten runs of one commit the best repetition moved
    2-4x less than the median one (README, "Noise").
    """
    values = [float(v) for v in values]
    mid = statistics.median(values)
    ranked = sorted(values, reverse=pick is max)
    best = ranked[0]
    return {
        "name": name, "value": best, "unit": unit, "n": n,
        "spread": (max(values) - min(values)) / mid if mid else 0.0,
        # How far the runner-up is from the best: a best that nothing
        # confirms is a lucky draw, and --compare calls it unresolved.
        "gap": abs(ranked[1] - best) / abs(best) if len(ranked) > 1 and best else 0.0,
        "reps": values, "kind": kind,
    }


def _col(reps: List[dict], phase: str, key: str) -> List[float]:
    return [rep[phase][key] for rep in reps]


def report(
    workload: Workload, reps: List[dict], checks: List[str], peak_rss_mb: float,
    throughput: dict, layers: List[dict], **extra
) -> dict:
    """The document a workload's child hands back: the end-to-end metrics
    every workload defines, whatever per-layer ones it measured, and what
    the driver's ``correct``/``attempted``/``failed`` are made from."""
    phases = reps[0]
    offered = sum(p["offered"] for rep in reps for p in rep.values())
    failed = sum(p["offered"] - p["succeeded"] for rep in reps for p in rep.values())

    def latency(name: str, phase: str, key: str, kind: str) -> dict:
        return metric(name, _col(reps, phase, key), "us", phases[phase]["measured"],
                      kind=kind)

    metrics = [
        # The whole path when nothing queues: a 20 us thread wake-up,
        # which a busy neighbour on the host doubles while heavy_p50_us
        # moves by 20 %. Recorded with the per-layer metrics, without a
        # bound: no bound the contract allows (<= 25 %) held on it.
        latency("light_p50_us", "light", "p50_us", "per_layer"),
        latency("heavy_p50_us", "heavy", "p50_us", "end_to_end"),
        latency("heavy_p95_us", "heavy", "p95_us", "end_to_end"),
        throughput,
        metric("peak_rss_mb", [peak_rss_mb], "MiB", 1, kind="end_to_end"),
        metric("failed_share", [1.0 if checks else failed / offered], "share",
               offered, kind="info"),
        # Printed, never gated: one 20 ms stall decides them (README).
        latency("heavy_p99_us", "heavy", "p99_us", "info"),
        latency("heavy_p999_us", "heavy", "p999_us", "info"),
    ]
    return {
        "workload": workload.name,
        "repetitions": workload.reps,
        "attempted": offered,
        "failed": failed,
        "phase_requests": {name: phase["offered"] for name, phase in phases.items()},
        "metrics": metrics + layers,
        "checks": checks,
        "correct": not checks,
        **extra,
    }


def _mean_ns(durations: List[int]) -> float:
    return statistics.fmean(durations) if durations else 0.0


def _p50_us(durations: List[int]) -> float:
    return statistics.median(durations) / 1e3 if durations else 0.0


# -- live workloads ---------------------------------------------------------

def run_live_rep(
    workload: Workload, app, seed: int, scale: float, gc_watch: GcWatch,
    checks: List[str], tag: str, phases: Optional[Sequence[str]] = None,
    layers: bool = False, log: Optional[spans.SpanLog] = None,
) -> Dict[str, dict]:
    rep = {}
    for phase in workload.phases:
        if phases is not None and phase.name not in phases:
            continue
        config = live_config(workload, phase, seed, scale)
        if log is not None:
            log.phase = phase.name
        rep[phase.name] = measure_live_phase(
            app, config, gc_watch, checks, f"{tag}/{phase.name}",
            layers=layers and phase.name == "heavy",
        )
    return rep


def run_live(workload: Workload, seed: int, scale: float, trace: bool, out_dir) -> dict:
    gc_watch = GcWatch()
    gc.callbacks.append(gc_watch)
    checks: List[str] = []
    t0 = time.perf_counter()
    app = make_app(workload)
    app.setup()
    app_setup_s = time.perf_counter() - t0
    reps = [
        run_live_rep(
            workload, app, seed, scale, gc_watch, checks, f"rep{i}", layers=trace
        )
        for i in range(workload.reps)
    ]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = (
        _live_layers(
            workload, app, seed, scale, reps, app_setup_s, gc_watch, checks, out_dir
        )
        if trace else []
    )
    gc.callbacks.remove(gc_watch)
    return report(
        workload, reps, checks, peak_rss_mb,
        metric("throughput_rps", _col(reps, "flood", "achieved_qps"), "1/s",
               reps[0]["flood"]["measured"], pick=max, kind="end_to_end"),
        layers,
        # The generator itself ran later than a typical request took:
        # the heavy-phase latencies then say more about it than the path.
        generator_late=min(_col(reps, "heavy", "send_lag_p95_us"))
        > min(_col(reps, "heavy", "p50_us")),
    )


def _live_layers(
    workload, app, seed, scale, reps, app_setup_s, gc_watch, checks, out_dir
) -> List[dict]:
    n = reps[0]["heavy"]["measured"]

    def chain(name: str, key: str, unit: str = "us") -> dict:
        return metric(name, _col(reps, "heavy", key), unit, n)

    layers = [
        chain("traffic.send_lag_p50_us", "send_lag_p50_us"),
        chain("traffic.send_lag_p95_us", "send_lag_p95_us"),
        chain("transport.request_path_p50_us", "request_path_p50_us"),
        chain("transport.response_path_p50_us", "response_path_p50_us"),
        chain("queueing.wait_p50_us", "wait_p50_us"),
        chain("queueing.wait_p95_us", "wait_p95_us"),
        chain("server.service_p50_us", "service_p50_us"),
        chain("server.service_p95_us", "service_p95_us"),
        chain("server.service_inflation", "service_inflation", "ratio"),
        chain("collector.sojourn_p99_us", "p99_us"),
        chain("collector.measured", "measured", "count"),
        chain("collector.dropped_warmup", "dropped_warmup", "count"),
        chain("apps.payload_gen_us_per_req", "payload_gen_us_per_req", "us/req"),
        chain("traffic.schedule_gen_us_per_req", "schedule_gen_us_per_req", "us/req"),
        chain("stats.summary_ms", "summary_ms", "ms"),
        chain("stats.hdr_record_ns", "hdr_record_ns", "ns/call"),
        chain("runtime.gc_pause_total_ms", "gc_total_ms", "ms"),
        chain("runtime.gc_pause_max_ms", "gc_max_ms", "ms"),
        metric("apps.setup_s", [app_setup_s], "s", 1),
    ]

    # The traced repetition: same seed, patched from outside, a quarter
    # of the requests, and never mixed into any number above.
    log = spans.SpanLog()
    with spans.live_patches(log, app):
        traced = run_live_rep(
            workload, app, seed, scale * TRACE_SCALE, gc_watch, checks, "traced",
            phases=("heavy", "flood"), log=log,
        )
    heavy = traced["heavy"]
    transports = [log.transports[phase].stats for phase in ("heavy", "flood")]
    flood_queue = log.transports["flood"].instances[0].queue
    sleeping = log.durations("clock.sleep_until", "heavy")
    own = spans.self_times(s for s in log.spans if s[2] == "heavy")
    send_self = [own[s[0]] for s in log.select("transport.send", "heavy")]
    starts = log.durations("transport.start", "heavy")
    stops = log.durations("transport.stop", "heavy")
    snapshots = log.durations("collector.snapshot", "heavy")

    def span_p50(name: str, span: str) -> dict:
        durations = log.durations(span, "heavy")
        return metric(name, [_p50_us(durations)], "us/call", len(durations))

    def counted(name: str, attr: str) -> dict:
        return metric(name, [sum(getattr(t, attr) for t in transports)], "count", 1)

    untraced_p50 = min(_col(reps, "heavy", "p50_us"))
    layers += [
        counted("transport.sent", "sent"),
        counted("transport.completed", "completed"),
        counted("transport.errored", "errored"),
        counted("transport.shed", "shed"),
        # The flood sender outruns the worker, so the queue's depth
        # there is what holds memory (-> peak_rss_mb).
        metric("queueing.peak_depth", [flood_queue.peak_depth], "count", 1),
        metric("clock.sleep_until_share", [sum(sleeping) / 1e9 / heavy["wall_s"]],
               "share", len(sleeping)),
        metric("transport.send_self_us", [_p50_us(send_self)], "us/call",
               len(send_self)),
        span_p50("queueing.put_us", "queueing.put"),
        span_p50("queueing.get_wait_us", "queueing.get"),
        span_p50("server.process_call_us", "server.process"),
        span_p50("collector.add_us", "collector.add"),
        metric("collector.snapshot_ms", [_mean_ns(snapshots) / 1e6], "ms",
               len(snapshots)),
        metric("transport.start_ms", [_mean_ns(starts) / 1e6], "ms", len(starts)),
        metric("transport.stop_ms", [_mean_ns(stops) / 1e6], "ms", len(stops)),
        metric("trace.overhead_p50_pct",
               [(heavy["p50_us"] / untraced_p50 - 1.0) * 100.0], "%",
               heavy["measured"]),
    ]
    if workload.name == "live-null":
        # ROADMAP item 4's budget, as a recorded number: the program's
        # own tracer (repro.obs) on, the benchmark's spans off.
        obs_config = live_config(
            workload, workload.phase("heavy"), seed, scale,
            observability=ObservabilityConfig(tracing=True),
        )
        obs_result = run_harness(app, obs_config)
        obs_p50 = _us(obs_result.sojourn.p50)
        layers += [
            metric("obs.tracing_overhead_p50_pct",
                   [(obs_p50 / untraced_p50 - 1.0) * 100.0], "%",
                   obs_result.stats.count),
            metric("obs.events_per_request",
                   [len(obs_result.obs.events) / obs_config.total_requests],
                   "events/req", obs_config.total_requests),
            metric("obs.dropped_events", [obs_result.obs.dropped], "count", 1),
        ]
    log.write_jsonl(out_dir / f"trace-{workload.name}.jsonl")
    return layers


# -- simulator workloads ----------------------------------------------------

def run_sim_rep(
    workload: Workload, seed: int, scale: float, gc_watch: GcWatch,
    checks: List[str], tag: str, phases: Optional[Sequence[str]] = None,
) -> Dict[str, dict]:
    return {
        phase.name: measure_sim_phase(
            sim_config(workload, phase, seed, scale), gc_watch, checks,
            f"{tag}/{phase.name}",
        )
        for phase in workload.phases
        if phases is None or phase.name in phases
    }


def load_expected() -> dict:
    path = HERE / "expected.json"
    return json.loads(path.read_text()) if path.exists() else {}


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= 1e-12 * max(abs(a), abs(b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


def run_sim(workload: Workload, seed: int, scale: float, trace: bool, out_dir) -> dict:
    gc_watch = GcWatch()
    gc.callbacks.append(gc_watch)
    checks: List[str] = []
    reps = [
        run_sim_rep(workload, seed, scale, gc_watch, checks, f"rep{i}")
        for i in range(workload.reps)
    ]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # "A faster simulator simulates the same thing": same seed, same
    # statistics, to the last bit — between repetitions here, and for
    # the default seed against values pinned when the benchmark was cut.
    fingerprints = {p: reps[0][p]["fingerprint"] for p in reps[0]}
    for i, rep in enumerate(reps[1:], start=1):
        for phase in rep:
            if rep[phase]["fingerprint"] != fingerprints[phase]:
                checks.append(f"rep{i}/{phase}: simulated statistics differ from rep0")
    expected = load_expected()
    pinned = expected.get("workloads", {}).get(workload.name)
    if pinned and expected["seed"] == seed and scale == 1.0:
        if not _close(pinned, fingerprints):
            checks.append("simulated statistics differ from expected.json")
    layers = (
        _sim_layers(workload, seed, scale, reps, gc_watch, checks, out_dir)
        if trace else []
    )
    gc.callbacks.remove(gc_watch)
    return report(
        workload, reps, checks, peak_rss_mb,
        metric("throughput_rps", _col(reps, "heavy", "rps"), "1/s",
               reps[0]["heavy"]["offered"], pick=max, kind="end_to_end"),
        layers,
        fingerprints=fingerprints,
    )


def _sim_layers(workload, seed, scale, reps, gc_watch, checks, out_dir) -> List[dict]:
    heavy = reps[0]["heavy"]
    outcomes = heavy["outcomes"]
    log = spans.SpanLog()
    log.phase = "heavy"
    with spans.sim_patches(log, dict(workload.sim).get("balancer", "round_robin")):
        traced = run_sim_rep(
            workload, seed, scale * TRACE_SCALE, gc_watch, checks, "traced",
            phases=("heavy",),
        )["heavy"]
    requests = traced["offered"]
    callbacks = ("sim.server_cb", "sim.client_cb", "sim.other_cb")
    executed = sum(len(log.select(name)) for name in callbacks)
    pushes = log.durations("sim.heap_push")
    pops = log.durations("sim.heap_pop")
    samples = log.durations("sim.service_sample")
    picks = log.durations("balancer.pick")
    decisions = log.durations("faults.call")

    own = log.self_totals("heavy")

    def per_request_us(name: str) -> float:
        return own[name] / 1e3 / requests

    untraced_rps = max(_col(reps, "heavy", "rps"))
    layers = [
        metric("sim.events_per_request", [executed / requests], "events/req",
               requests),
        metric("sim.event_lt_calls_per_request",
               [log.counts["sim.event_lt"] / requests], "calls/req", requests),
        metric("sim.cancelled_events_share", [1.0 - executed / len(pushes)],
               "share", len(pushes)),
        metric("resilience.attempts_per_request",
               [outcomes.get("attempts", 0) / outcomes["offered"]], "attempts/req",
               outcomes["offered"]),
        metric("resilience.retries", [outcomes.get("retries", 0)], "count", 1),
        metric("resilience.hedges", [outcomes.get("hedges", 0)], "count", 1),
        metric("resilience.late", [outcomes.get("late", 0)], "count", 1),
        metric("faults.decisions_per_request", [len(decisions) / requests],
               "calls/req", requests),
        metric("sim.heap_push_ns", [_mean_ns(pushes)], "ns/call", len(pushes)),
        metric("sim.heap_pop_ns", [_mean_ns(pops)], "ns/call", len(pops)),
        metric("sim.engine_self_us_per_req", [per_request_us("sim.engine_run")],
               "us/req", requests),
        metric("sim.server_cb_us_per_req", [per_request_us("sim.server_cb")],
               "us/req", requests),
        metric("sim.client_cb_us_per_req", [per_request_us("sim.client_cb")],
               "us/req", requests),
        metric("sim.service_sample_ns", [_mean_ns(samples)], "ns/call", len(samples)),
        metric("balancer.pick_ns", [_mean_ns(picks)], "ns/call", len(picks)),
        metric("faults.call_ns", [_mean_ns(decisions)], "ns/call", len(decisions)),
        metric("runtime.gc_pause_total_ms", _col(reps, "heavy", "gc_total_ms"),
               "ms", workload.reps),
        metric("runtime.gc_pause_max_ms", _col(reps, "heavy", "gc_max_ms"), "ms",
               workload.reps),
        # The simulator has no host-time latency; its tracing overhead
        # is the extra host time per simulated request.
        metric("trace.overhead_p50_pct", [(untraced_rps / traced["rps"] - 1.0) * 100.0],
               "%", requests),
    ]
    log.write_jsonl(out_dir / f"trace-{workload.name}.jsonl")
    return layers


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir) -> dict:
    workload = BY_NAME[name]
    scale = seconds / CANONICAL_SECONDS
    run = run_live if workload.kind == "live" else run_sim
    return run(workload, seed, scale, trace, out_dir)


# -- set-up probe -----------------------------------------------------------

class FirstCallProbe:
    """Stands in for the app in a set-up probe.

    Notes when the first request reaches ``process`` — the moment set-up
    is over — serves it for real, then answers the rest for free so the
    probe does not spend a second serving requests nobody measures.
    """

    def __init__(self, app) -> None:
        self._app = app
        self.first_call_at: Optional[float] = None

    def make_client(self, seed: int = 0):
        return self._app.make_client(seed=seed)

    def process(self, payload):
        if self.first_call_at is None:
            self.first_call_at = time.monotonic()
            return self._app.process(payload)
        return None


def setup_probe(name: str, seed: int, seconds: float) -> float:
    """Do the workload's set-up once; return ``time.monotonic()`` at the
    instant the first request could be served.

    Live: ``create_app`` + ``setup()``, then ``run_harness`` on the
    heavy phase's request count with every arrival due immediately —
    payload and schedule generation and ``Transport.start`` all happen
    before the first request reaches the app. Sim: the imports, the
    profile and the config, until ``simulate_app`` could be called.
    """
    workload = BY_NAME[name]
    scale = seconds / CANONICAL_SECONDS
    heavy = workload.phase("heavy")
    if workload.kind == "sim":
        sim_config(workload, heavy, seed, scale)
        return time.monotonic()
    app = make_app(workload)
    app.setup()
    probe = FirstCallProbe(app)
    config = live_config(workload, heavy, seed, scale).replace(qps=1e6)
    run_harness(probe, config)
    return probe.first_call_at
