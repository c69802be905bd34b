"""Regenerate the paper's tables: ``python -m repro.tables N [N ...]``.

Each table runs its ``tableN_rows`` at the module's paper configuration
(its defaults: ``N_PARTS``, the module's lambda, seed 0). The rendered
text is written to ``results/tableN.txt`` and printed. Spark starts only
when a requested table needs it (Table 1 is pure math).
"""
import argparse
from pathlib import Path

from repro.session import build_session
from repro.tables import table1, table2, table4, table5, table6
from repro.tables.fmt import render

RESULTS = Path(__file__).resolve().parents[3] / "results"

ROWS = {
    1: lambda spark: table1.table1_rows(),
    2: table2.table2_rows,
    4: table4.table4_rows,
    5: table5.table5_rows,
    6: table6.table6_rows,
}

TITLES = {
    1: f"Table 1 — theoretical UB of RF, |P|={table1.N_PARTS}",
    2: "Table 2 — datasets (paper vs _lite substitutes)",
    4: f"Table 4 — RF + time, |P|={table4.N_PARTS}, lambda={table4.LAM}",
    5: (
        f"Table 5a — quality (RF/EB/VB), |P|={table5.N_PARTS}",
        "Table 5b — app performance (ET/COM/WB, model units)",
    ),
    6: f"Table 6 — road networks RF, |P|={table6.N_PARTS}",
}


def render_table(n: int, rows) -> str:
    """Table ``n``'s text, as committed in ``results/``; ``rows`` is what
    ``tableN_rows`` returned."""
    if n == 5:
        (q_title, a_title), (q_rows, a_rows) = TITLES[5], rows
        return render(q_rows, title=q_title) + "\n" + render(a_rows, title=a_title)
    return render(rows, title=TITLES[n])


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(prog="python -m repro.tables", description=__doc__)
    ap.add_argument("tables", nargs="+", type=int, choices=sorted(ROWS))
    nums = ap.parse_args(argv).tables
    spark = build_session("tables") if set(nums) != {1} else None
    try:
        for n in nums:
            text = render_table(n, ROWS[n](spark))
            (RESULTS / f"table{n}.txt").write_text(text, encoding="utf-8")
            print(text, end="")
    finally:
        if spark is not None:
            spark.stop()


if __name__ == "__main__":
    main()
