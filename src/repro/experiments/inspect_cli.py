"""``tailbench trace <app>`` / ``tailbench tail <app>`` — inspect one run.

Two reports over one traced run. ``trace`` prints the summary
dashboard: event counts, the queueing-vs-service latency decomposition
per sojourn-percentile band, per-replica decompositions when
``--servers > 1``, and the final metrics snapshot; it optionally
exports the raw artifacts. ``tail`` arms the streaming SLO engine and
prints the tail-attribution report: per-request critical paths are
rebuilt from the trace, the slowest ``100 - pct`` percent are compared
against the body, and the excess tail time is ranked by
component x replica, alongside the windowed SLO summary (burn-rate
alerts, per-window quantiles, slowest-request exemplars)::

    tailbench trace masstree --duration 2 --jsonl trace.jsonl
    tailbench trace xapian --qps 2000 --servers 4 --balancer jsq
    tailbench tail xapian --qps 2000 --servers 4 --pct 99.9
    tailbench tail silo --live --duration 1

By default the run executes in virtual time against the app's
calibrated profile (fast and deterministic); ``--live`` drives the
real harness instead, for any registered application. A previously
exported trace renders without re-running anything (``tail`` prints no
SLO summary then — the burn-rate engine is streaming, not
replayable)::

    tailbench trace --from-jsonl trace.jsonl
    tailbench tail --from-jsonl trace.jsonl
"""

from __future__ import annotations

import argparse

from ..apps import create_app
from ..core.config import HarnessConfig, ObservabilityConfig, SloConfig
from ..core.harness import run_harness
from ..obs.attribution import tail_report
from ..obs.dashboard import render_dashboard
from ..obs.exporters import load_trace_jsonl
from ..sim.calibration import EXTENSION_PROFILES, PAPER_PROFILES
from ..sim.latency_sim import SimConfig, simulate_app

__all__ = ["trace_main", "tail_main", "run_traced"]


def _parser(
    command: str, description: str, from_jsonl_help: str
) -> argparse.ArgumentParser:
    """The flags both commands share; each adds its own after these."""
    parser = argparse.ArgumentParser(
        prog=f"tailbench {command}", description=description
    )
    parser.add_argument(
        "app", nargs="?", default=None,
        help="application name (e.g. masstree); omit with --from-jsonl",
    )
    parser.add_argument(
        "--duration", type=float, default=2.0,
        help="run length in seconds (measured requests = qps * duration)",
    )
    parser.add_argument("--qps", type=float, default=1000.0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--servers", type=int, default=1)
    parser.add_argument("--balancer", default="round_robin")
    parser.add_argument(
        "--config", default="integrated",
        choices=("integrated", "loopback", "networked"),
        help="harness configuration (network model in sim mode)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--live", action="store_true",
        help="drive the real application through the live harness "
        "instead of the virtual-time simulator",
    )
    parser.add_argument(
        "--from-jsonl", metavar="PATH", default=None, help=from_jsonl_help
    )
    return parser


def _parse(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if args.app is None and args.from_jsonl is None:
        parser.error("app is required unless --from-jsonl is given")
    return args


def run_traced(
    args: argparse.Namespace, observability: ObservabilityConfig, warmup: int
):
    """Execute the traced run; returns the result (``.obs`` populated)."""
    measure = max(int(args.qps * args.duration), 1)
    common = dict(
        qps=args.qps,
        n_threads=args.threads,
        configuration=args.config,
        warmup_requests=min(warmup, measure // 5),
        measure_requests=measure,
        seed=args.seed,
        n_servers=args.servers,
        balancer=args.balancer,
        observability=observability,
    )
    if args.live:
        app = create_app(args.app)
        app.setup()
        return run_harness(app, HarnessConfig(**common))
    known = {**PAPER_PROFILES, **EXTENSION_PROFILES}
    if args.app not in known:
        raise SystemExit(
            f"no calibrated profile for {args.app!r} "
            f"(have: {sorted(known)}); use --live to drive "
            "the real application instead"
        )
    return simulate_app(args.app, SimConfig(**common))


def trace_main(argv=None) -> int:
    parser = _parser(
        "trace",
        "Run one traced workload and print its dashboard.",
        "render the dashboard from a previously exported JSONL "
        "trace instead of running a workload",
    )
    parser.add_argument(
        "--warmup", type=int, default=500,
        help="warmup requests to discard (capped at 20%% of measured)",
    )
    parser.add_argument(
        "--capacity", type=int, default=262_144,
        help="trace ring-buffer capacity in events",
    )
    parser.add_argument(
        "--jsonl", metavar="PATH", default=None,
        help="write the trace events as JSON Lines to PATH",
    )
    parser.add_argument(
        "--series", metavar="PATH", default=None,
        help="write the sampled metric time series as JSON Lines",
    )
    parser.add_argument(
        "--prom", metavar="PATH", default=None,
        help="write a Prometheus text-format metrics snapshot",
    )
    args = _parse(parser, argv)
    if args.from_jsonl is not None:
        events = load_trace_jsonl(args.from_jsonl)
        print(render_dashboard(events, title=args.from_jsonl))
        return 0

    obs = run_traced(
        args,
        ObservabilityConfig(tracing=True, trace_capacity=args.capacity),
        args.warmup,
    ).obs
    mode = "live" if args.live else "sim"
    print(obs.dashboard(title=f"{args.app} [{mode}] qps={args.qps:g} "
                        f"servers={args.servers}"))
    if args.jsonl:
        lines = obs.export_trace_jsonl(args.jsonl)
        print(f"\nwrote {lines} trace events to {args.jsonl}")
    if args.series:
        lines = obs.export_series_jsonl(args.series)
        print(f"wrote {lines} series points to {args.series}")
    if args.prom:
        obs.export_prometheus(args.prom)
        print(f"wrote metrics snapshot to {args.prom}")
    return 0


def tail_main(argv=None) -> int:
    parser = _parser(
        "tail",
        "Attribute a workload's latency tail to its causes.",
        "attribute a previously exported JSONL trace instead of "
        "running a workload",
    )
    parser.add_argument(
        "--pct", type=float, default=99.0,
        help="tail percentile to attribute (requests at or beyond it)",
    )
    parser.add_argument(
        "--top", type=int, default=8,
        help="ranked causes to print",
    )
    parser.add_argument(
        "--target", type=float, default=0.1,
        help="SLO latency target in seconds",
    )
    parser.add_argument(
        "--objective", type=float, default=0.99,
        help="fraction of requests that must meet the target",
    )
    parser.add_argument(
        "--window", type=float, default=0.25,
        help="SLO accounting window in seconds",
    )
    parser.add_argument(
        "--exemplars", type=int, default=3,
        help="slowest-request exemplars retained per window",
    )
    args = _parse(parser, argv)
    if args.from_jsonl is not None:
        events = load_trace_jsonl(args.from_jsonl)
        print(tail_report(events, pct=args.pct, top=args.top).render())
        return 0

    slo = SloConfig(
        enabled=True,
        target=args.target,
        objective=args.objective,
        window=args.window,
        exemplars_per_window=args.exemplars,
    )
    # No warmup: SLO windows anchor at t=0; keep them honest.
    obs = run_traced(
        args, ObservabilityConfig(tracing=True, slo=slo), warmup=0
    ).obs
    print(obs.tail_report(pct=args.pct, top=args.top).render())
    if obs.live is not None:
        print()
        print(obs.live.describe())
    return 0
