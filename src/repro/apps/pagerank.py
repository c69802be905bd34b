"""PageRank on the undirected graph (each edge used in both directions).

The paper runs 100 PageRank iterations (§7.6) — the heaviest,
all-active workload. Every superstep touches every edge and updates
every vertex, so the partitioning cost is analytic
(``Trace.uniform_steps``); the ranks themselves are computed for real
and oracle-checked against a numpy power iteration.
"""
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.apps.engine import Trace
from repro.core.incidence import degrees, incidence
from repro.session import shuffle_width


def pagerank_trace(
    spark: SparkSession,
    edges: DataFrame,
    *,
    n_iters: int = 10,
    damping: float = 0.85,
) -> tuple[DataFrame, Trace]:
    """Returns (ranks(v, rank), Trace). Ranks sum to ~1 (no dangling
    vertices exist in an edge-induced vertex set of an undirected graph)."""
    edges = edges.cache()
    deg = degrees(edges).cache()
    n = deg.count()
    inc = incidence(edges).cache()
    ranks = deg.select("v", (F.lit(1.0) / F.lit(float(n))).alias("rank"))
    for _ in range(n_iters):
        contrib = (
            inc.join(ranks.join(deg, "v"), "v")
            .select(
                F.col("other").alias("v"),
                (F.col("rank") / F.col("degree")).alias("c"),
            )
            .groupBy("v")
            .agg(F.sum("c").alias("s"))
        )
        ranks = (
            deg.select("v")
            .join(contrib, "v", "left")
            .fillna(0.0, subset=["s"])
            .select(
                "v",
                (
                    F.lit((1.0 - damping) / float(n))
                    + F.lit(damping) * F.col("s")
                ).alias("rank"),
            )
            .coalesce(shuffle_width(spark))
            .localCheckpoint(eager=True)
        )
    trace = Trace(
        edges=edges, active=None, updates=None, uniform_steps=n_iters, n_steps=n_iters
    )
    inc.unpersist(blocking=False)
    deg.unpersist(blocking=False)
    return ranks, trace
