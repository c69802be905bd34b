#!/usr/bin/env python
"""Regenerate Table 5 (partitioning effect on SSSP/WCC/PageRank)."""
import argparse

from repro.session import build_session
from repro.tables.fmt import render
from repro.tables.table5 import LAM, table5_rows


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--parts", type=int, default=64)
    ap.add_argument("--graphs", nargs="*", default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--lam", type=float, default=LAM)
    ap.add_argument("--pr-iters", type=int, default=10)
    args = ap.parse_args()
    spark = build_session("table5")
    q_rows, a_rows = table5_rows(
        spark,
        n_parts=args.parts,
        graphs=args.graphs,
        seed=args.seed,
        lam=args.lam,
        pr_iters=args.pr_iters,
    )
    print(render(q_rows, title=f"Table 5a — partition quality, |P|={args.parts}"))
    print(render(a_rows, title="Table 5b — application performance (model units)"))
    spark.stop()


if __name__ == "__main__":
    main()
