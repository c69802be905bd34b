"""Frontier-synchronous min-label propagation: SSSP (BFS) and WCC (HashMin).

The paper runs SSSP from Vertex 0 on unweighted graphs and WCC (§7.6).
Both are one GAS program. Each superstep the vertices updated in the
previous step are the frontier; their incident edges are the active
work; every neighbour is offered ``label + delta`` and adopts the
smallest offer that beats its current label (an unlabelled vertex takes
any offer). ``delta = 1`` gives BFS levels, PowerGraph's SSSP on an
unweighted graph; ``delta = 0`` gives HashMin component labels.
"""
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.apps.engine import Trace
from repro.core.incidence import incidence, vertices
from repro.session import local_rows, shuffle_width


def propagate(
    spark: SparkSession,
    edges: DataFrame,
    labels: DataFrame,
    delta: int,
    max_steps: int,
) -> tuple[DataFrame, Trace]:
    """Propagate ``labels(v, label)`` over ``edges`` until no label improves.

    Step 0 updates every vertex of ``labels``; step s updates the
    neighbours of step s-1's updates whose label improved. Returns the
    final ``(v, label)`` and the Trace.
    """
    edges = edges.cache()
    inc = incidence(edges).cache()
    width = shuffle_width(spark)
    frontier = labels
    updates = labels.select(F.lit(0).alias("step"), "v")
    step = 0
    while step < max_steps:
        step += 1
        improved = (
            inc.join(frontier.withColumnRenamed("v", "other"), "other")
            .groupBy("v")
            .agg(F.min(F.col("label") + delta).alias("label"))
            .join(labels.withColumnRenamed("label", "cur"), "v", "left")
            .filter(F.col("cur").isNull() | (F.col("label") < F.col("cur")))
            .select("v", "label")
            .localCheckpoint(eager=True)
        )
        if improved.count() == 0:
            break
        updates = updates.unionAll(improved.select(F.lit(step).alias("step"), "v"))
        labels = (
            labels.join(improved.select("v"), "v", "left_anti")
            .unionAll(improved)
            .coalesce(width)
            .localCheckpoint(eager=True)
        )
        frontier = improved

    updates = updates.coalesce(width).localCheckpoint(eager=True)
    # Step s's active edges are those with an endpoint updated in step s-1.
    prev = updates.filter(F.col("step") < step).select(
        (F.col("step") + 1).alias("step"), "v"
    )
    active = (
        incidence(edges.withColumn("e", F.struct("src", "dst")))
        .join(prev, "v")
        .select("step", "e.src", "e.dst")
        .distinct()
        .localCheckpoint(eager=True)
    )
    inc.unpersist(blocking=False)
    return labels, Trace(edges=edges, active=active, updates=updates, n_steps=step)


def sssp_trace(
    spark: SparkSession,
    edges: DataFrame,
    *,
    source: int = 0,
    max_steps: int = 10_000,
) -> tuple[DataFrame, Trace]:
    """Returns (distances(v, dist), Trace). Unreached vertices are absent."""
    start = local_rows(spark, [(source, 0)], "v long, label int")
    dist, trace = propagate(spark, edges, start, 1, max_steps)
    return dist.withColumnRenamed("label", "dist"), trace


def wcc_trace(
    spark: SparkSession,
    edges: DataFrame,
    *,
    max_steps: int = 10_000,
) -> tuple[DataFrame, Trace]:
    """Returns (labels(v, label), Trace). label = min vertex id in component."""
    labels = vertices(edges).select("v", F.col("v").alias("label"))
    return propagate(spark, edges, labels.localCheckpoint(eager=True), 0, max_steps)
