"""Fan-out extension: measured tail-at-scale vs the order-statistic law.

Runs the sharded vector-search workload (:mod:`repro.apps.vsearch`)
through a scatter-gather topology at K ∈ {1, 2, 4, 8} shards, in
*both* execution modes:

- **live** — the real harness drives ``VsearchApp(...).sharded(K)``,
  each shard an IVF index over its disjoint corpus partition; one
  logical query fans out to all K shards and completes when the last
  (critical) shard responds;
- **sim** — the discrete-event simulator with the calibrated vsearch
  leaf profile and ``SimConfig(fanout=FanoutConfig(shards=K))``.

The corpus grows with K (``n_vectors = K * shard_size``) so per-shard
work stays constant — the scale-out regime of "The Tail at Scale":
per-shard p99 is roughly flat while the end-to-end p99 climbs with K,
because the gather waits for ``max(L_1..L_K)``.

The reproduced claim: the measured end-to-end p99 matches the
order-statistic prediction ``fanout_quantile(leaves, K, 0.99)`` —
i.e. the leaf's ``0.99**(1/K)`` quantile — within a few percent for
K ∈ {2, 4, 8}, in both modes. The simulator additionally verifies the
degenerate case: a K=1 "sharded" run is bit-identical to the plain
unsharded run under the same seed (fingerprinted samples, outcomes,
and routing).

**Flatness is mode-specific.** The simulator models the real fleet —
K *independent* servers — so its per-shard leaf sojourn stays flat as
K grows. The live arm colocates all K shard replicas in one
interpreter (typically one core in CI), so the K CPU-bound siblings of
a gather serialize and leaf *sojourn* necessarily grows with K; what
stays flat live is the per-shard *service* p99 (constant shard-local
work) and the balance across shards (no straggler). Both flavours are
checked by :meth:`FanoutComparison.per_shard_flat`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..analysis.fanout import fanout_quantile
from ..core import FanoutConfig, HarnessConfig, run_harness
from ..sim import SimConfig, simulate_load
from ..sim.calibration import paper_profile
from ..stats import quantile
from .reporting import ascii_table

__all__ = [
    "FanoutPoint",
    "FanoutComparison",
    "run_fig_fanout",
    "render_fig_fanout",
    "DEFAULT_FANOUTS",
]

DEFAULT_FANOUTS: Tuple[int, ...] = (1, 2, 4, 8)

#: Per-shard corpus size for the live arm; total corpus = K * this, so
#: every shard indexes the same number of vectors at every K. Sized
#: (with ``_NPROBE``) for a few-hundred-microsecond probe, large
#: enough that scheduler-stall noise is second-order in the tail.
_SHARD_VECTORS = 8192
_NPROBE = 12

#: Per-sub-request harness overhead allowance (transport dispatch,
#: collector bookkeeping, thread wakeups) folded into the live load
#: calibration; the probe math alone under-counts the GIL time one
#: sub-request really costs.
_SUBREQUEST_OVERHEAD = 120e-6


@dataclass(frozen=True)
class FanoutPoint:
    """One (mode, K) cell: measured vs predicted end-to-end tail."""

    fanout: int
    qps: float
    #: Measured end-to-end p99 (gather completion, critical shard).
    measured_p99: float
    #: ``fanout_quantile(leaf_samples, K, 0.99)`` from the same run.
    predicted_p99: float
    #: p99 of the pooled per-shard leaf latencies.
    leaf_p99: float
    #: Per-shard leaf p99s (length K).
    shard_p99s: Tuple[float, ...]
    #: Logical gathers measured.
    completed: int
    #: Probe-measured p99 of one shard's bare ``process`` time (live
    #: arm only — the work-constant witness); None in sim.
    service_p99: Optional[float] = None

    @property
    def prediction_error(self) -> float:
        """Relative error of the order-statistic prediction."""
        return abs(self.measured_p99 - self.predicted_p99) / self.predicted_p99


@dataclass(frozen=True)
class FanoutComparison:
    """Measured-vs-predicted tail across fan-out widths, both modes."""

    fanouts: Tuple[int, ...]
    load: float
    #: mode -> one FanoutPoint per fan-out width.
    points: Dict[str, Tuple[FanoutPoint, ...]]
    #: Simulator-only degenerate-case check: is the K=1 sharded run
    #: bit-identical to the plain unsharded run? None if sim didn't run.
    k1_identical: Optional[bool] = None

    def prediction_agreement(self, tolerance: float = 0.10) -> bool:
        """Is measured e2e p99 within ``tolerance`` of the prediction
        at every K > 1, in every mode that ran?"""
        return all(
            point.prediction_error <= tolerance
            for series in self.points.values()
            for point in series
            if point.fanout > 1
        )

    def per_shard_flat(self, tolerance: float = 0.5) -> bool:
        """Is per-shard work flat across K, in every mode that ran?

        The climb in e2e p99 must come from the max over shards, not
        from the shards themselves getting slower. In **sim** the K
        servers are independent, so the pooled leaf *sojourn* p99 must
        stay within ``tolerance`` (relative) of its smallest-K value.
        In **live** the K shard replicas share one interpreter, so
        sibling sub-requests serialize and leaf sojourn grows with K
        by construction; there the work-constant witness is the
        probe-measured *service* p99 (``FanoutPoint.service_p99``),
        which must stay flat instead.
        """
        for series in self.points.values():
            values = [
                p.service_p99 if p.service_p99 is not None else p.leaf_p99
                for p in series
            ]
            base = values[0]
            if any(abs(v - base) > tolerance * base for v in values[1:]):
                return False
        return True

    def shards_balanced(self, tolerance: float = 1.0) -> bool:
        """No straggler shard in the simulated fleet: within every sim
        run, the slowest shard's leaf p99 is within ``tolerance``
        (relative) of the fastest's. k-means partitions are only
        statistically balanced, so the default tolerance is generous.

        Sim-only on purpose: on colocated live shards the dispatch
        position within a gather adds a systematic per-shard offset
        (the last shard waits for K-1 serialized siblings), which is
        shared-hardware skew, not partition imbalance — the live
        spread is still reported in the table.
        """
        return all(
            max(p.shard_p99s) <= (1.0 + tolerance) * min(p.shard_p99s)
            for mode, series in self.points.items()
            if mode == "sim"
            for p in series
        )

    def tail_inflation(self, mode: str) -> float:
        """e2e p99 at the widest fan-out over the K=1 p99."""
        series = self.points[mode]
        return series[-1].measured_p99 / series[0].measured_p99


def _point_from_result(
    result, fanout: int, qps: float,
    service_p99: Optional[float] = None,
) -> FanoutPoint:
    stats = result.fanout
    leaves = sorted(stats.leaf_samples())  # one sort feeds both quantiles
    return FanoutPoint(
        fanout=fanout,
        qps=qps,
        measured_p99=quantile(result.stats.samples(), 0.99),
        predicted_p99=fanout_quantile(leaves, fanout, 0.99, sorted_values=True),
        leaf_p99=quantile(leaves, 0.99, sorted_values=True),
        shard_p99s=tuple(stats.shard_p99(s) for s in range(fanout)),
        completed=stats.completed,
        service_p99=service_p99,
    )


def _probe_service(app, n: int = 128) -> Tuple[float, float]:
    """Wall-clock (mean, p99) of one shard's bare ``process`` over the
    Zipf query mix — the calibration and work-constant probe."""
    client = app.make_client(seed=0)
    shard = app.replica(0)
    payloads = [client.next_request() for _ in range(n)]
    for payload in payloads[:8]:  # cache/branch warm-up
        shard.process(payload)
    times = []
    for payload in payloads:
        # Best-of-3 strips scheduler-stall noise: the probe wants the
        # intrinsic per-query work, the harness measures latency.
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            shard.process(payload)
            best = min(best, time.perf_counter() - start)
        times.append(best)
    return sum(times) / len(times), quantile(times, 0.99)


def run_fig_fanout(
    measure_requests: int = 2500,
    seed: int = 0,
    fanouts: Tuple[int, ...] = DEFAULT_FANOUTS,
    load: float = 0.5,
    modes: Tuple[str, ...] = ("live", "sim"),
) -> FanoutComparison:
    """Sweep fan-out width through the live harness and the simulator.

    ``load`` is the per-shard utilization target; moderate by design,
    so service-time randomness dominates queueing and the iid
    order-statistic prediction holds tightly (see
    :mod:`repro.analysis.fanout` on the correlation caveat).
    """
    from ..apps.vsearch import VsearchApp

    warmup = max(100, measure_requests // 10)
    points: Dict[str, Tuple[FanoutPoint, ...]] = {}
    k1_identical: Optional[bool] = None

    if "live" in modes:
        live_points = []
        for k in fanouts:
            app = VsearchApp(
                n_vectors=k * _SHARD_VECTORS, n_lists=32, nprobe=_NPROBE,
                seed=seed,
            ).sharded(k)
            app.setup()
            # Calibrate offered load to this machine. Every shard sees
            # the full arrival stream, and the K shard replicas share
            # one interpreter (the probe math holds the GIL), so the
            # serialized cost per logical query is ~K x (mean service +
            # harness overhead). Hold the *total sub-request rate* at
            # ``load`` of that serialized capacity, so shard-local
            # conditions are identical at every K and only the fan-out
            # width varies.
            mean_service, service_p99 = _probe_service(app)
            qps = load / (k * (mean_service + _SUBREQUEST_OVERHEAD))
            result = run_harness(
                app,
                HarnessConfig(
                    configuration="integrated",
                    qps=qps,
                    n_threads=1,
                    n_servers=k,
                    warmup_requests=warmup,
                    measure_requests=measure_requests,
                    seed=seed,
                    fanout=FanoutConfig(enabled=True, shards=k),
                ),
            )
            live_points.append(
                _point_from_result(result, k, qps, service_p99=service_p99)
            )
        points["live"] = tuple(live_points)

    if "sim" in modes:
        profile = paper_profile("vsearch")
        qps = load / profile.service.mean
        sim_points = []
        for k in fanouts:
            result = simulate_load(
                profile,
                SimConfig(
                    qps=qps,
                    n_threads=1,
                    configuration="integrated",
                    n_servers=k,
                    warmup_requests=warmup,
                    measure_requests=measure_requests,
                    seed=seed,
                    fanout=FanoutConfig(enabled=True, shards=k),
                ),
            )
            sim_points.append(_point_from_result(result, k, qps))
            if k == 1:
                plain = simulate_load(
                    profile,
                    SimConfig(
                        qps=qps,
                        n_threads=1,
                        configuration="integrated",
                        n_servers=1,
                        warmup_requests=warmup,
                        measure_requests=measure_requests,
                        seed=seed,
                    ),
                )
                k1_identical = result.fingerprint() == plain.fingerprint()
        points["sim"] = tuple(sim_points)

    return FanoutComparison(
        fanouts=tuple(fanouts),
        load=load,
        points=points,
        k1_identical=k1_identical,
    )


def render_fig_fanout(result: FanoutComparison) -> str:
    headers = [
        "mode", "K", "qps", "e2e p99", "predicted", "err",
        "leaf p99", "svc p99", "shard p99 spread",
    ]
    rows = []
    for mode, series in result.points.items():
        for point in series:
            # A shard with no measured leaves reports p99 = nan; render
            # the spread as "-" rather than propagating nan arithmetic.
            finite = [p for p in point.shard_p99s if p == p]
            spread = (
                f"{min(finite) * 1e3:.2f}-{max(finite) * 1e3:.2f}ms"
                if finite
                else "-"
            )
            rows.append([
                mode,
                str(point.fanout),
                f"{point.qps:.0f}",
                f"{point.measured_p99 * 1e3:.2f}ms",
                f"{point.predicted_p99 * 1e3:.2f}ms",
                f"{point.prediction_error:.1%}",
                f"{point.leaf_p99 * 1e3:.2f}ms",
                (
                    "-" if point.service_p99 is None
                    else f"{point.service_p99 * 1e3:.2f}ms"
                ),
                spread,
            ])
    table = ascii_table(
        headers,
        rows,
        title=(
            "Fan-out: sharded vector search, measured e2e p99 vs "
            f"fanout_quantile prediction ({result.load:.0%} per-shard load)"
        ),
    )
    lines = [table]
    lines.append(
        "order-statistic prediction within 10% of measured e2e p99 at "
        "every K>1"
        if result.prediction_agreement()
        else "WARNING: prediction off by >10% at some K>1"
    )
    lines.append(
        "per-shard work flat across K (sim: leaf sojourn; live: "
        "service p99)"
        if result.per_shard_flat()
        else "WARNING: per-shard work drifts with K"
    )
    lines.append(
        "sim shards balanced within every run (no straggler shard)"
        if result.shards_balanced()
        else "WARNING: straggler shard detected (sim leaf p99 imbalance)"
    )
    if result.k1_identical is not None:
        lines.append(
            "sim: K=1 sharded run bit-identical to the unsharded run"
            if result.k1_identical
            else "WARNING: sim K=1 sharded run diverges from unsharded"
        )
    for mode in result.points:
        lines.append(
            f"{mode}: e2e p99 inflates {result.tail_inflation(mode):.2f}x "
            f"from K=1 to K={result.fanouts[-1]}"
        )
    return "\n".join(lines)
