"""Hybrid Ginger [13]: hybrid hash + Fennel-style greedy refinement.

PowerLyra's Ginger heuristic reassigns each low-degree vertex (with the
edges it "owns" under the hybrid-cut rule) to the partition where it has
the most neighbors, discounted by a balance penalty. Rounds are
semi-synchronous (all vertices decide on the same snapshot) — the
natural dataflow formulation.
"""
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from repro.core.incidence import degrees, incidence
from repro.partitioners.hashing import hybrid_hash


def hybrid_ginger(
    spark: SparkSession,
    edges: DataFrame,
    n_parts: int,
    *,
    seed: int = 0,
    theta: int | None = None,
    n_rounds: int = 2,
    nu: float = 1.0,
) -> DataFrame:
    """Refined hybrid hash; ``nu`` scales the balance penalty."""
    deg = degrees(edges).cache()
    if theta is None:
        theta = max(4, int(4 * deg.agg(F.avg("degree")).first()[0]))
    # Ownership under the hybrid-cut rule: dst if low-degree, else src.
    ddst = deg.withColumnRenamed("v", "dst").withColumnRenamed("degree", "ddst")
    owned = edges.join(ddst, "dst").select(
        "src",
        "dst",
        F.when(F.col("ddst") <= F.lit(theta), F.col("dst"))
        .otherwise(F.col("src"))
        .alias("owner"),
    )
    low_owners = deg.filter(F.col("degree") <= theta).select(
        F.col("v").alias("owner")
    )
    owned = owned.join(low_owners, "owner", "left_semi").cache()

    asg = hybrid_hash(spark, edges, n_parts, seed=seed, theta=theta)
    w_best = Window.partitionBy("v").orderBy(F.desc("score"), "part")
    for _ in range(n_rounds):
        asg = asg.cache()
        loads = asg.groupBy("part").agg(F.count(F.lit(1)).alias("load"))
        avg_load = max(1.0, asg.count() / n_parts)
        aff = incidence(asg).groupBy("v", "part").agg(F.count(F.lit(1)).alias("aff"))
        best = (
            aff.join(F.broadcast(loads), "part")
            .withColumn(
                "score",
                F.col("aff") - F.lit(nu) * F.col("load") / F.lit(avg_load),
            )
            .withColumn("rk", F.row_number().over(w_best))
            .filter(F.col("rk") == 1)
            .select(F.col("v").alias("owner"), F.col("part").alias("newpart"))
        )
        moves = owned.join(best, "owner").select("src", "dst", "newpart")
        asg = (
            asg.join(moves, ["src", "dst"], "left")
            .select(
                "src",
                "dst",
                F.coalesce("newpart", "part").cast("int").alias("part"),
            )
            .localCheckpoint(eager=True)
        )
    deg.unpersist(blocking=False)
    owned.unpersist(blocking=False)
    return asg
