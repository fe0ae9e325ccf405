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

from typing import Tuple

from ..batching import BatchingConfig
from ..sim import SimResult
from ..stats import LogNormal
from .figure import Arm, Report, claim, ms, run_figure
from .sleep_app import SleepApp

__all__ = ["run_fig_batching"]

#: Marginal cost of each batch member past the first, as a fraction of
#: its full service draw — the amortization a vectorized ``handle_batch``
#: buys (matmul batching, grouped lookups).
_MARGINAL = 0.35
#: Offered load as a multiple of one worker's *unbatched* capacity.
_OVERLOAD = 1.3
#: The workload of both modes: 1 ms-mean draws, slept (live) or charged
#: (sim) with the amortized batch window above.
_APP = SleepApp(LogNormal(mean=1e-3, sigma=0.5), batch_marginal=_MARGINAL)


def _measure(result) -> dict:
    # The live harness reports wall-clock throughput and no
    # utilization; the simulator reports both over virtual time.
    sim = isinstance(result, SimResult)
    return dict(
        throughput_qps=(
            result.stats.count / result.virtual_time
            if sim
            else result.achieved_qps
        ),
        p99=result.sojourn.p99,
        mean_occupancy=result.stats.mean_batch_size,
        utilization=result.utilization if sim else None,
    )


def _claims(rows):
    """Judged on the deterministic simulator; the live arms corroborate
    but carry scheduler noise."""
    off, *sizes = rows["sim"].values()
    best = max(sizes, key=lambda row: row.throughput_qps)
    return [claim(
        best.throughput_qps > 1.15 * off.throughput_qps and best.p99 < off.p99,
        f"batching moves the frontier: size {best.arm} serves "
        f"{best.throughput_qps:.0f}/s at p99 {best.p99 * 1e3:.1f}ms vs the "
        f"unbatched {off.throughput_qps:.0f}/s at {off.p99 * 1e3:.1f}ms "
        f"(mean occupancy {best.mean_occupancy:.1f})",
        "batching did not dominate the unbatched arm on both throughput "
        "and p99",
    )]


def run_fig_batching(
    measure_requests: int = 3000,
    seed: int = 0,
    batch_sizes: Tuple[int, ...] = (1, 2, 4, 8),
    max_batch_delay: float = 0.002,
) -> Report:
    """Sweep ``max_batch_size`` live and simulated at fixed overload.

    Size 1 is the baseline: batching stays *disabled* (not a 1-batch),
    so the sweep includes the exact pre-batching code path.
    """
    offered = _OVERLOAD / _APP.service.mean
    return run_figure(
        title=(
            f"Dynamic batching frontier at {offered:.0f} qps offered "
            f"(delay bound {max_batch_delay * 1e3:.0f}ms)"
        ),
        columns=(
            ("max_batch", "{arm}"),
            ("throughput", "{throughput_qps:.0f}/s"),
            ("p99", ms("p99")),
            ("occupancy", "{mean_occupancy:.2f}"),
            ("util", lambda r: (
                "-" if r.utilization is None else f"{r.utilization:.2f}"
            )),
        ),
        run=_APP.run,
        base=dict(
            qps=offered,
            warmup_requests=max(100, measure_requests // 10),
            measure_requests=measure_requests,
            seed=seed,
        ),
        arms=[
            Arm("off") if size == 1 else Arm(str(size), dict(
                batching=BatchingConfig(
                    enabled=True,
                    max_batch_size=size,
                    max_batch_delay=max_batch_delay,
                    sim_marginal_cost=_MARGINAL,
                ),
            ))
            for size in batch_sizes
        ],
        measure=_measure,
        claims=_claims,
    )
