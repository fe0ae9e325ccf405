"""Batching extension: the throughput-vs-p99 frontier of dynamic batching.

Sweeps ``max_batch_size`` at a fixed offered load past one worker's
unbatched capacity, in both execution modes:

- **live** — the real worker loop batching a sleep application whose
  batched service window costs one full member plus a marginal fraction
  of each additional member (the amortization profile of a vectorized
  ``handle_batch``).
- **sim** — the discrete-event simulator with the identical service
  distribution and ``sim_marginal_cost``, forming the same
  size-or-deadline batches via the shared :class:`~repro.batching.BatchPolicy`.

The expected shape is a *frontier*: size 1 (batching off) saturates —
queues grow without bound and p99 explodes — while growing batch sizes
amortize per-request cost, restore headroom, and collapse the tail, at
the price of up to ``max_batch_delay`` of added latency per request at
low occupancy. Past the knee, bigger batches buy little: the server is
already unsaturated and the delay bound dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..batching import BatchingConfig
from ..stats import LogNormal
from .reporting import ascii_table
from .sleep_app import SleepApp

__all__ = [
    "BatchingCell",
    "BatchingFrontier",
    "run_fig_batching",
    "render_fig_batching",
]

#: Marginal cost of each batch member past the first, as a fraction of
#: its full service draw — the amortization a vectorized ``handle_batch``
#: buys (matmul batching, grouped lookups).
_MARGINAL = 0.35
#: Offered load as a multiple of one worker's *unbatched* capacity.
_OVERLOAD = 1.3
#: The workload of both modes: 1 ms-mean draws, slept (live) or charged
#: (sim) with the amortized batch window above.
_APP = SleepApp(LogNormal(mean=1e-3, sigma=0.5), batch_marginal=_MARGINAL)


@dataclass(frozen=True)
class BatchingCell:
    """One (mode, max_batch_size) point of the frontier."""

    mode: str  # "live" | "sim"
    max_batch_size: int  # 1 = batching disabled
    throughput_qps: float
    p99: float
    mean_occupancy: float
    utilization: float


@dataclass(frozen=True)
class BatchingFrontier:
    """The throughput-vs-p99 frontier, live and simulated."""

    offered_qps: float
    max_batch_delay: float
    batch_sizes: Tuple[int, ...]
    #: (mode, max_batch_size) -> cell.
    cells: Dict[Tuple[str, int], BatchingCell]

    def verdict(self) -> Tuple[bool, str]:
        """(reproduced?, sentence). Judged on the deterministic
        simulator; the live arms corroborate but carry scheduler
        noise."""
        off = self.cells[("sim", 1)]
        best = max(
            (self.cells[("sim", size)] for size in self.batch_sizes[1:]),
            key=lambda cell: cell.throughput_qps,
        )
        ok = (
            best.throughput_qps > 1.15 * off.throughput_qps
            and best.p99 < off.p99
        )
        if ok:
            sentence = (
                f"batching moves the frontier: size {best.max_batch_size} "
                f"serves {best.throughput_qps:.0f}/s at "
                f"p99 {best.p99 * 1e3:.1f}ms vs the unbatched "
                f"{off.throughput_qps:.0f}/s at {off.p99 * 1e3:.1f}ms "
                f"(mean occupancy {best.mean_occupancy:.1f})"
            )
        else:
            sentence = (
                "WARNING: batching did not dominate the unbatched arm "
                "on both throughput and p99"
            )
        return ok, sentence


def run_fig_batching(
    measure_requests: int = 3000,
    seed: int = 0,
    batch_sizes: Tuple[int, ...] = (1, 2, 4, 8),
    max_batch_delay: float = 0.002,
) -> BatchingFrontier:
    """Sweep ``max_batch_size`` live and simulated at fixed overload.

    Size 1 is the baseline: batching stays *disabled* (not a 1-batch),
    so the sweep includes the exact pre-batching code path.
    """
    offered = _OVERLOAD / _APP.service.mean
    warmup = max(100, measure_requests // 10)

    cells: Dict[Tuple[str, int], BatchingCell] = {}
    for size in batch_sizes:
        batching = (
            BatchingConfig(
                enabled=True,
                max_batch_size=size,
                max_batch_delay=max_batch_delay,
                sim_marginal_cost=_MARGINAL,
            )
            if size > 1
            else BatchingConfig()
        )
        fields = dict(
            configuration="integrated",
            qps=offered,
            n_threads=1,
            warmup_requests=warmup,
            measure_requests=measure_requests,
            seed=seed,
            batching=batching,
        )
        live = _APP.run("live", **fields)
        cells[("live", size)] = BatchingCell(
            mode="live",
            max_batch_size=size,
            throughput_qps=live.achieved_qps,
            p99=live.sojourn.p99,
            mean_occupancy=live.stats.mean_batch_size,
            utilization=0.0,  # the live harness does not measure this
        )
        sim = _APP.run("sim", **fields)
        cells[("sim", size)] = BatchingCell(
            mode="sim",
            max_batch_size=size,
            throughput_qps=sim.stats.count / sim.virtual_time,
            p99=sim.sojourn.p99,
            mean_occupancy=sim.stats.mean_batch_size,
            utilization=sim.utilization,
        )
    return BatchingFrontier(
        offered_qps=offered,
        max_batch_delay=max_batch_delay,
        batch_sizes=tuple(batch_sizes),
        cells=cells,
    )


def render_fig_batching(result: BatchingFrontier) -> str:
    headers = [
        "mode", "max_batch", "throughput", "p99", "occupancy", "util",
    ]
    rows = []
    for mode in ("live", "sim"):
        for size in result.batch_sizes:
            cell = result.cells[(mode, size)]
            rows.append([
                mode,
                "off" if size == 1 else str(size),
                f"{cell.throughput_qps:.0f}/s",
                f"{cell.p99 * 1e3:.2f}ms",
                f"{cell.mean_occupancy:.2f}",
                "-" if mode == "live" else f"{cell.utilization:.2f}",
            ])
    table = ascii_table(
        headers,
        rows,
        title=(
            f"Dynamic batching frontier at {result.offered_qps:.0f} qps "
            f"offered (delay bound "
            f"{result.max_batch_delay * 1e3:.0f}ms)"
        ),
    )
    _, sentence = result.verdict()
    return f"{table}\n{sentence}"
