"""Single-source shortest path (BFS levels on the unweighted graph).

The paper runs SSSP from Vertex 0 on unweighted graphs (§7.6) — on an
unweighted graph PowerGraph's SSSP is frontier-synchronous BFS. Each
superstep the frontier's incident edges are the active work and the
newly discovered vertices are the state updates that mirrors must sync.
"""
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.apps.engine import Trace
from repro.core.incidence import incidence
from repro.session import shuffle_width


def sssp_trace(
    spark: SparkSession,
    edges: DataFrame,
    *,
    source: int = 0,
    max_steps: int = 10_000,
) -> tuple[DataFrame, Trace]:
    """Returns (distances(v, dist), Trace). Unreached vertices are absent."""
    edges = edges.cache()
    inc = incidence(edges).cache()
    dist = spark.createDataFrame([(source, 0)], "v long, dist int")
    frontier = dist.select("v")
    active_parts: list[DataFrame] = []
    update_parts: list[DataFrame] = [
        dist.select(F.lit(0).alias("step"), "v")
    ]
    step = 0
    while step < max_steps:
        step += 1
        touched = (
            edges.join(frontier.withColumnRenamed("v", "src"), "src", "left_semi")
            .unionAll(
                edges.join(frontier.withColumnRenamed("v", "dst"), "dst", "left_semi")
                .select("src", "dst")
            )
            .select("src", "dst")
            .distinct()
        )
        active_parts.append(touched.select(F.lit(step).alias("step"), "src", "dst"))
        reached = (
            inc.join(frontier, "v")
            .select(F.col("other").alias("v"))
            .distinct()
            .join(dist.select("v"), "v", "left_anti")
            .localCheckpoint(eager=True)
        )
        n_new = reached.count()
        if n_new == 0:
            break
        update_parts.append(reached.select(F.lit(step).alias("step"), "v"))
        dist = (
            dist.unionAll(reached.select("v", F.lit(step).alias("dist")))
            .coalesce(shuffle_width(spark))
            .localCheckpoint(eager=True)
        )
        frontier = reached.select("v")

    active = _union_all(spark, active_parts, "step int, src long, dst long")
    updates = _union_all(spark, update_parts, "step int, v long")
    trace = Trace(
        edges=edges,
        active=active.localCheckpoint(eager=True),
        updates=updates.localCheckpoint(eager=True),
        n_steps=step,
    )
    inc.unpersist(blocking=False)
    return dist, trace


def _union_all(spark: SparkSession, parts: list[DataFrame], schema: str) -> DataFrame:
    if not parts:
        return spark.createDataFrame([], schema)
    out = parts[0]
    for p in parts[1:]:
        out = out.unionAll(p)
    return out.coalesce(shuffle_width(spark))
