"""Benchmark + regeneration of Table 5 (apps over partitionings).

All 7 graphs, the paper's 5 partitioners, 64 parts. lambda = 0.25 keeps
the Distributed NE runs tractable in local mode with quality within a
few percent of the paper's lambda = 0.1 (Figure 6's plateau).
"""
import os

from repro.tables.fmt import render
from repro.tables.table5 import LAM, table5_rows

_LAM = float(os.environ.get("REPRO_BENCH_LAM", LAM))


def test_bench_table5(benchmark, spark, bench_parts, emit):
    q_rows, a_rows = benchmark.pedantic(
        lambda: table5_rows(
            spark, n_parts=bench_parts, seed=0, lam=_LAM, pr_iters=10
        ),
        rounds=1,
        iterations=1,
    )
    emit(
        "table5",
        render(q_rows, title=f"Table 5a — quality (RF/EB/VB), |P|={bench_parts}")
        + "\n"
        + render(a_rows, title="Table 5b — app performance (ET/COM/WB, model units)"),
    )
