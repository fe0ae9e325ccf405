"""Table I: application characterization (latency + MPKI rows).

Regenerates both halves of Table I and checks the reproduction's shape
criteria: latencies within 3x of the paper's cells and the headline
MPKI orderings preserved.
"""

from repro.experiments.table1 import (
    APP_ORDER,
    PAPER_TABLE1,
    render_table1,
    run_table1,
)

MEASURE_REQUESTS = 8000
N_INSTRUCTIONS = 200_000


def test_table1(benchmark, save_result):
    rows = benchmark.pedantic(
        run_table1,
        kwargs={
            "measure_requests": MEASURE_REQUESTS,
            "n_instructions": N_INSTRUCTIONS,
        },
        rounds=1,
        iterations=1,
    )
    text = render_table1(rows)
    print("\n" + text)
    save_result("table1", text)

    by_name = {row.name: row for row in rows}
    assert [row.name for row in rows] == list(APP_ORDER)

    # Latency rows: within 3x of every paper cell, monotone in load.
    for row in rows:
        paper = PAPER_TABLE1[row.name]
        for j, load in enumerate((0.2, 0.5, 0.7)):
            ours, theirs = row.p95_by_load[load], paper[5 + j]
            assert theirs / 3 < ours < theirs * 3, (row.name, load)
        assert row.p95_by_load[0.2] < row.p95_by_load[0.5] < row.p95_by_load[0.7]

    # MPKI rows: the paper's strongest cross-app contrasts.
    assert by_name["shore"].l1i_mpki > 10 * by_name["masstree"].l1i_mpki
    assert by_name["img-dnn"].l1d_mpki > 2 * by_name["moses"].l1d_mpki
    assert by_name["silo"].l1d_mpki < by_name["masstree"].l1d_mpki
    assert by_name["moses"].l3_mpki > by_name["xapian"].l3_mpki + 10
    assert by_name["img-dnn"].branch_mpki < 1.0

    benchmark.extra_info["apps"] = len(rows)
