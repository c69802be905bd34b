"""Table 5 (§7.6): effect of partitioning on distributed graph apps.

For each graph and partitioner: partition quality (RF / EB / VB) and,
for SSSP, WCC and PageRank, the modelled elapsed time (ET), the total
communication volume (COM) and the workload balance (WB) from the GAS
cost model in ``repro.apps.engine``.

Traces are computed once per graph (they are partitioning-independent)
and priced against every partitioner's assignment. Absolute ET/COM are
model units (the paper's are seconds/GB on 64 real machines); the
reproduction target is the ranking and the improvement ratios — in the
paper Distributed NE wins ET in all 21 (graph, app) cells and cuts COM
2-8x vs Random.
"""
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.apps import app_cost, pagerank_trace, sssp_trace, wcc_trace
from repro.core.metrics import partition_quality
from repro.graphgen.datasets import TABLE5_GRAPHS, load_dataset
from repro.partitioners import partition

N_PARTS = 64
# Multi-expansion factor for Distributed NE: Fig. 6's plateau, within a few
# percent of the paper's 0.1 in quality at ~2x fewer Spark rounds.
LAM = 0.25
METHODS = ["random", "grid", "oblivious", "hybrid_ginger", "distributed_ne"]

# --- the paper's printed numbers ---------------------------------------
_G = TABLE5_GRAPHS  # flickr, pokec, livej, orkut, twitter, friendster, webuk
_NAN = float("nan")


def _per_graph(vals: list) -> dict:
    return dict(zip(_G, vals))


PAPER_QUALITY = {  # method -> graph -> (RF, EB, VB)
    "random": _per_graph([(7.3, 1.0, 1.0), (18.1, 1.0, 1.0), (11.8, 1.0, 1.0), (33.4, 1.0, 1.0), (17.8, 1.0, 1.0), (20.0, 1.0, 1.0), (21.6, 1.0, 1.0)]),
    "grid": _per_graph([(4.4, 1.0, 1.0), (9.1, 1.0, 1.0), (6.8, 1.0, 1.0), (12.7, 1.0, 1.0), (9.1, 1.0, 1.0), (8.3, 1.0, 1.0), (10.1, 1.0, 1.0)]),
    "oblivious": _per_graph([(6.3, 1.7, 1.1), (13.6, 1.6, 1.1), (9.0, 1.1, 1.0), (20.9, 1.3, 1.0), (13.8, 1.0, 1.0), (14.3, 1.0, 1.0), (4.0, 1.3, 1.0)]),
    "hybrid_ginger": _per_graph([(4.0, 1.2, 1.0), (10.2, 1.2, 1.1), (6.0, 1.1, 1.1), (14.3, 2.5, 1.1), (5.5, 1.3, 1.1), (9.6, 1.3, 1.0), (3.4, 1.0, 1.0)]),
    "distributed_ne": _per_graph([(1.8, 1.1, 3.5), (4.3, 1.1, 1.2), (2.5, 1.1, 1.3), (5.1, 1.1, 1.6), (2.9, 1.1, 1.6), (3.5, 1.1, 1.9), (1.5, 1.1, 1.6)]),
}

PAPER_APPS = {  # app -> method -> graph -> (ET sec, COM GB, WB)
    "sssp": {
        "random": _per_graph([(2.96, 1.78, 1.58), (2.91, 3.10, 1.46), (4.08, 6.02, 1.41), (4.45, 11.3, 1.25), (22.7, 87, 1.15), (50.3, 146, 1.20), (88.4, 254, 1.27)]),
        "grid": _per_graph([(2.98, 1.16, 1.36), (2.63, 1.70, 1.32), (3.36, 3.70, 1.16), (3.25, 5.2, 1.22), (14.0, 53, 1.22), (27.3, 73, 1.27), (60.6, 141, 1.21)]),
        "oblivious": _per_graph([(2.99, 1.57, 1.57), (2.77, 2.40, 1.68), (3.67, 4.68, 1.38), (3.61, 7.6, 1.32), (19.4, 73, 1.15), (38.7, 112, 1.22), (39.4, 83, 1.21)]),
        "hybrid_ginger": _per_graph([(2.98, 2.75, 1.56), (3.46, 3.01, 1.67), (3.18, 6.45, 1.43), (3.24, 9.0, 1.24), (11.6, 88, 1.25), (26.8, 145, 1.23), (_NAN, _NAN, _NAN)]),
        "distributed_ne": _per_graph([(2.94, 0.63, 1.28), (2.63, 1.03, 1.42), (3.15, 1.83, 1.46), (2.48, 3.1, 1.71), (7.8, 30, 1.34), (17.6, 44, 1.42), (28.5, 58, 1.43)]),
    },
    "wcc": {
        "random": _per_graph([(4.77, 3.87, 1.30), (6.58, 8.33, 1.30), (10.08, 14.7, 1.25), (17.50, 31.1, 1.16), (89.3, 156, 1.18), (286.0, 406, 1.12), (396.2, 733, 1.16)]),
        "grid": _per_graph([(3.90, 2.33, 1.18), (4.24, 4.26, 1.19), (6.65, 8.5, 1.16), (9.53, 12.3, 1.11), (56.9, 85, 1.15), (169.6, 173, 1.18), (231.6, 350, 1.22)]),
        "oblivious": _per_graph([(4.59, 3.36, 1.38), (5.44, 6.24, 1.40), (8.54, 10.9, 1.30), (13.70, 19.9, 1.13), (74.5, 122, 1.14), (217.6, 293, 1.12), (108.7, 144, 1.25)]),
        "hybrid_ginger": _per_graph([(3.97, 3.43, 1.37), (4.64, 5.60, 1.33), (6.44, 9.8, 1.27), (10.84, 15.7, 1.35), (41.1, 91, 1.20), (159.2, 239, 1.18), (119.0, 232, 1.06)]),
        "distributed_ne": _per_graph([(3.48, 0.74, 1.31), (3.55, 1.94, 1.30), (4.69, 2.7, 1.34), (7.09, 5.2, 1.24), (31.1, 31, 1.28), (115.3, 71, 1.26), (61.2, 55, 1.25)]),
    },
    "pagerank": {
        "random": _per_graph([(51.2, 35.0, 1.32), (72.8, 65.6, 1.29), (120.1, 130, 1.23), (182.0, 228, 1.11), (1568, 1607, 1.14), (2820, 2942, 1.11), (3370, 3853, 1.12)]),
        "grid": _per_graph([(36.2, 19.8, 1.14), (45.4, 32.6, 1.13), (79.1, 71, 1.13), (93.2, 91, 1.05), (863, 798, 1.11), (1407, 1239, 1.07), (1650, 1826, 1.09)]),
        "oblivious": _per_graph([(45.6, 28.9, 1.38), (63.0, 51.2, 1.39), (100.7, 96, 1.28), (129.2, 147, 1.10), (1223, 1252, 1.14), (2070, 2112, 1.12), (769, 776, 1.15)]),
        "hybrid_ginger": _per_graph([(31.1, 14.9, 1.23), (41.3, 24.4, 1.26), (61.8, 43, 1.33), (87.1, 74, 1.14), (446, 462, 1.19), (1253, 1151, 1.20), (682, 687, 1.06)]),
        "distributed_ne": _per_graph([(28.0, 4.6, 1.69), (34.4, 14.0, 1.33), (49.4, 20, 1.36), (65.4, 33, 1.44), (362, 216, 1.35), (806, 432, 1.22), (289, 137, 1.36)]),
    },
}
# -----------------------------------------------------------------------


def table5_rows(
    spark: SparkSession,
    *,
    n_parts: int = N_PARTS,
    graphs: list[str] | None = None,
    methods: list[str] | None = None,
    seed: int = 0,
    lam: float = LAM,
    pr_iters: int = 10,
) -> tuple[list[dict], list[dict]]:
    """Returns (quality_rows, app_rows)."""
    graphs = graphs or TABLE5_GRAPHS
    methods = methods or METHODS
    q_rows: list[dict] = []
    a_rows: list[dict] = []
    for g in graphs:
        edges = load_dataset(spark, g).cache()
        edges.count()
        _, tr_sssp = sssp_trace(spark, edges, source=_best_source(spark, edges))
        _, tr_wcc = wcc_trace(spark, edges)
        _, tr_pr = pagerank_trace(spark, edges, n_iters=pr_iters)
        traces = {"sssp": tr_sssp, "wcc": tr_wcc, "pagerank": tr_pr}
        for mname in methods:
            asg = partition(spark, mname, edges, n_parts, seed=seed, lam=lam).cache()
            asg.count()
            q = partition_quality(asg)
            pq = PAPER_QUALITY.get(mname, {}).get(g, (_NAN, _NAN, _NAN))
            q_rows.append(
                {
                    "graph": g, "method": mname,
                    "rf": round(q.rf, 2), "eb": round(q.eb, 2), "vb": round(q.vb, 2),
                    "paper_rf": pq[0], "paper_eb": pq[1], "paper_vb": pq[2],
                }
            )
            for app, tr in traces.items():
                c = app_cost(tr, asg, n_parts)
                pa = PAPER_APPS[app].get(mname, {}).get(g, (_NAN, _NAN, _NAN))
                a_rows.append(
                    {
                        "graph": g, "method": mname, "app": app,
                        "et": round(c.et, 4), "com_mb": round(c.com_gb * 1e3, 3),
                        "wb": round(c.wb, 2),
                        "paper_et_s": pa[0], "paper_com_gb": pa[1], "paper_wb": pa[2],
                    }
                )
            asg.unpersist(blocking=False)
        edges.unpersist(blocking=False)
    return q_rows, a_rows


def _best_source(spark, edges) -> int:
    """Paper uses Vertex 0; fall back to the smallest vertex id present."""
    has_zero = (
        edges.filter((F.col("src") == 0) | (F.col("dst") == 0)).limit(1).count() > 0
    )
    if has_zero:
        return 0
    return int(edges.agg(F.min("src")).first()[0])
