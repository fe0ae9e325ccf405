"""Command-line entry point: ``tailbench <experiment>``.

Regenerates any of the paper's tables/figures from the terminal::

    tailbench table1
    tailbench fig5 --fast
    tailbench all

``tailbench trace <app>`` and ``tailbench tail <app>`` inspect one
workload instead; both live in :mod:`.inspect_cli`, which (with the
:mod:`repro.obs` it reads traces through) loads only when one of them
runs.

An extension figure (``fig-*``) exits with status 1 when one of its
simulator-judged claims fails; what it reports about live arms never
sets the status.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Tuple

from .fig2 import render_fig2, run_fig2
from .fig3 import render_fig3, run_fig3
from .fig4 import render_fig4, run_fig4
from .fig5 import render_fig5, run_fig5
from .fig6 import render_fig6, run_fig6
from .fig7 import render_fig7, run_fig7
from .extensions import (
    render_ext_colocation,
    render_ext_energy,
    run_ext_colocation,
    run_ext_energy,
)
from .fig8 import render_fig8, run_fig8
from .fig_batching import run_fig_batching
from .fig_cache import run_fig_cache
from .fig_control import run_fig_control
from .fig_fanout import run_fig_fanout
from .fig_live import run_fig_live
from .fig_resilience import run_fig_resilience
from .fig_topology import run_fig_topology
from .figure import Report
from .table1 import render_table1, run_table1

__all__ = ["main", "EXPERIMENTS", "EXTENSIONS"]

#: name -> (runner(measure_kwargs) -> data, renderer(data) -> str)
EXPERIMENTS: Dict[str, Tuple[Callable, Callable]] = {
    "table1": (run_table1, render_table1),
    "fig2": (run_fig2, render_fig2),
    "fig3": (run_fig3, render_fig3),
    "fig4": (run_fig4, render_fig4),
    "fig5": (run_fig5, render_fig5),
    "fig6": (run_fig6, render_fig6),
    "fig7": (run_fig7, render_fig7),
    "fig8": (run_fig8, render_fig8),
}

#: Extension studies (not paper artifacts; excluded from "all").
EXTENSIONS: Dict[str, Tuple[Callable, Callable]] = {
    "ext-colocation": (run_ext_colocation, render_ext_colocation),
    "ext-energy": (run_ext_energy, render_ext_energy),
    # Multi-server topology: round-robin vs JSQ at 4 replicas, run both
    # live and simulated (runs the live harness — minutes, not seconds).
    "fig-topology": (run_fig_topology, Report.render),
    # Control plane: static vs SLO-controlled server under a 0.5x->1.5x
    # load step, live and simulated (runs the live harness — seconds).
    "fig-control": (run_fig_control, Report.render),
    # Dynamic batching: max_batch_size sweep at fixed overload, the
    # throughput-vs-p99 frontier, live and simulated (seconds).
    "fig-batching": (run_fig_batching, Report.render),
    # Failure-aware serving: retry-storm chaos scenario, undefended
    # metastable collapse vs health-layer recovery, live and simulated
    # (live arms run ~30s each at full scale).
    "fig-resilience": (run_fig_resilience, Report.render),
    # Sharded vector search: scatter-gather fan-out at K in {1,2,4,8},
    # measured e2e p99 vs the order-statistic prediction, live and
    # simulated (live arms build IVF indexes — a minute or two).
    "fig-fanout": (run_fig_fanout, Report.render),
    # Caching tier: Zipf closed-form hit rates at C in {1%,5%,20%} of
    # keyspace, the cold-cache restart spike, and off-run bit-identity,
    # live and simulated (live arm serves vsearch — tens of seconds).
    "fig-cache": (run_fig_cache, Report.render),
    # Live SLO engine: slow-replica burn caught by multi-window
    # burn-rate alerting and explained by tail attribution, live and
    # simulated (live arm runs ~16s at full scale).
    "fig-live": (run_fig_live, Report.render),
}

#: One-workload inspection commands: ``<name>_main`` in :mod:`.inspect_cli`.
_INSPECT = ("trace", "tail")

_FAST_KWARGS = {
    "table1": {"measure_requests": 4000, "n_instructions": 100_000},
    "fig2": {"n_samples": 4000},
    "fig3": {"measure_requests": 3000},
    "fig4": {"measure_requests": 3000},
    "fig5": {"measure_requests": 3000},
    "fig6": {"measure_requests": 3000},
    "fig7": {"measure_requests": 3000},
    "fig8": {"measure_requests": 5000},
    "ext-colocation": {"measure_requests": 2500},
    "ext-energy": {"measure_requests": 3000},
    "fig-topology": {"measure_requests": 1200},
    "fig-control": {"step_seconds": 0.75},
    "fig-batching": {"measure_requests": 1200},
    "fig-fanout": {"measure_requests": 1500, "modes": ("sim",)},
    "fig-cache": {"measure_requests": 5000, "modes": ("sim",)},
    "fig-resilience": {"time_scale": 0.2, "modes": ("sim",)},
    "fig-live": {"time_scale": 0.25, "modes": ("sim",)},
}


def run_experiment(name: str, fast: bool = False, seed: int = 0) -> str:
    """Run one experiment and return its rendered output."""
    return _run(name, fast, seed)[0]


def _run(name: str, fast: bool, seed: int) -> Tuple[str, bool]:
    """(rendered output, did every judged claim hold?) of one experiment."""
    registry = {**EXPERIMENTS, **EXTENSIONS}
    try:
        runner, renderer = registry[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; known: {sorted(registry)}"
        ) from None
    kwargs = dict(_FAST_KWARGS[name]) if fast else {}
    kwargs["seed"] = seed
    data = runner(**kwargs)
    return renderer(data), not isinstance(data, Report) or data.ok


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _INSPECT:
        # ``tailbench trace|tail <app> ...`` have their own option
        # surface; delegate before the experiment parser rejects them.
        from . import inspect_cli

        return getattr(inspect_cli, f"{argv[0]}_main")(argv[1:])
    parser = argparse.ArgumentParser(
        prog="tailbench",
        description="Regenerate TailBench (IISWC 2016) tables and figures"
        " (or inspect one workload: tailbench trace <app> --help, "
        "tailbench tail <app> --help).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + sorted(EXTENSIONS) + ["all"],
        help="which table/figure to regenerate ('all' covers the "
        "paper artifacts; ext-* studies run individually)",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="smaller sample sizes (quick look, noisier tails)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--save", metavar="DIR", default=None,
        help="also write each experiment's output to DIR/<name>.txt",
    )
    args = parser.parse_args(argv)

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    status = 0
    for name in names:
        output, ok = _run(name, args.fast, args.seed)
        status = status if ok else 1
        print(output)
        print()
        if args.save:
            import pathlib

            directory = pathlib.Path(args.save)
            directory.mkdir(parents=True, exist_ok=True)
            (directory / f"{name}.txt").write_text(output + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
