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
from repro.partitioners.hashing import hash_part, hybrid_owner, hybrid_theta

N_ROUNDS = 2


def hybrid_ginger(
    spark: SparkSession, edges: DataFrame, n_parts: int, *, seed: int = 0
) -> DataFrame:
    """Hybrid hash refined for ``N_ROUNDS`` rounds; a vertex's score per
    part is its edges there minus the part's load over the mean load."""
    deg = degrees(edges).cache()
    theta = hybrid_theta(deg)
    owner = hybrid_owner(edges, deg, theta).cache()
    asg = owner.select("src", "dst", hash_part(n_parts, seed, "owner").alias("part"))
    # Only low-degree owners move, with the edges they own.
    low_owners = deg.filter(F.col("degree") <= theta).select(
        F.col("v").alias("owner")
    )
    owned = owner.join(low_owners, "owner", "left_semi").cache()
    w_best = Window.partitionBy("v").orderBy(F.desc("score"), "part")
    for _ in range(N_ROUNDS):
        asg = asg.cache()
        loads = asg.groupBy("part").agg(F.count(F.lit(1)).alias("load"))
        avg_load = max(1.0, asg.count() / n_parts)
        aff = incidence(asg).groupBy("v", "part").agg(F.count(F.lit(1)).alias("aff"))
        best = (
            aff.join(F.broadcast(loads), "part")
            .withColumn("score", F.col("aff") - F.col("load") / F.lit(avg_load))
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
    for df in (deg, owner, owned):
        df.unpersist(blocking=False)
    return asg
