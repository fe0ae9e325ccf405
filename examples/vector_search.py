"""Sharded vector search: recall knobs and measured tail-at-scale.

The vsearch extension models the latency-critical workload behind
semantic search and RAG: an IVF index whose service time scales with
``nprobe`` x probed-list length. Three things in one script:

1. the recall/latency knob — sweep nprobe against brute-force ground
   truth;
2. the determinism contract — a sharded corpus merges to *exactly*
   the global top-k;
3. tail-at-scale, measured — scatter-gather a logical query across K
   simulated shards and compare the end-to-end p99 against the
   order-statistic prediction ``fanout_quantile(leaves, K, 0.99)``.

Run:  python examples/vector_search.py
"""

from repro.apps.vsearch import VsearchApp
from repro.core import FanoutConfig
from repro.sim import SimConfig, simulate_app
from repro.stats import format_latency, quantile


def main() -> None:
    app = VsearchApp(n_vectors=4096, n_lists=32, n_queries=128, seed=0)
    app.setup()

    print("recall/latency knob (IVF, 32 posting lists):")
    for nprobe in (1, 4, 16, 32):
        recall = app.recall_at_k(nprobe=nprobe, sample=64)
        probed = app.index.probed_size(app.corpus.queries[0], nprobe)
        print(f"  nprobe={nprobe:>2}: recall@10={recall:.3f}  "
              f"candidates scored={probed}")

    sharded = VsearchApp(
        n_vectors=4096, n_lists=8, nprobe=8, n_queries=128, seed=0
    ).sharded(4)
    sharded.setup()
    exact = sum(
        sharded.process(qid) == app.exact_topk(qid) for qid in range(128)
    )
    print(f"\nsharded merge vs global brute force: {exact}/128 queries "
          "exact (per-row distances, ties by id)\n")

    print("tail-at-scale, measured in the simulator (50% shard load):")
    print(f"{'K':>4} {'e2e p99':>12} {'predicted':>12} {'leaf p99':>12}")
    for k in (1, 2, 4, 8):
        result = simulate_app(
            "vsearch",
            SimConfig(
                qps=1600.0,
                configuration="integrated",
                n_servers=k,
                warmup_requests=2000,
                measure_requests=20_000,
                seed=0,
                fanout=FanoutConfig(enabled=True, shards=k),
            ),
        )
        e2e = quantile(result.stats.samples(), 0.99)
        predicted = result.fanout.predicted_quantile(0.99)
        leaf = quantile(result.fanout.leaf_samples(), 0.99)
        print(f"{k:>4} {format_latency(e2e):>12} "
              f"{format_latency(predicted):>12} {format_latency(leaf):>12}")
    # What became of the widest run's gathers, as describe() reports it.
    print(next(line for line in result.describe().splitlines()
               if line.startswith("fanout:")))

    print(
        "\nPer-shard leaf p99 stays flat while the end-to-end p99 climbs "
        "with K:\nthe gather waits for max(L_1..L_K). The closed-form "
        "prediction tracks the\nmeasurement to a few percent — "
        "`tailbench fig-fanout` runs the same\ncomparison against the "
        "real sharded application."
    )


if __name__ == "__main__":
    main()
