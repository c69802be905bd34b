"""Weakly connected components by min-label propagation (HashMin).

Every vertex starts with its own id; each superstep it adopts the
minimum label among itself and its neighbors. Active work per superstep
is the edges incident to last round's changed vertices; updates are the
vertices whose label improved.
"""
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.apps.engine import Trace
from repro.apps.sssp import _union_all
from repro.core.incidence import incidence
from repro.session import shuffle_width


def wcc_trace(
    spark: SparkSession,
    edges: DataFrame,
    *,
    max_steps: int = 10_000,
) -> tuple[DataFrame, Trace]:
    """Returns (labels(v, label), Trace). label = min vertex id in component."""
    edges = edges.cache()
    inc = incidence(edges).cache()
    labels = inc.select("v").distinct().select("v", F.col("v").alias("label"))
    labels = labels.localCheckpoint(eager=True)
    changed = labels.select("v")
    active_parts: list[DataFrame] = []
    update_parts: list[DataFrame] = [
        labels.select(F.lit(0).alias("step"), "v")
    ]
    step = 0
    while step < max_steps:
        step += 1
        touched = (
            edges.join(changed.withColumnRenamed("v", "src"), "src", "left_semi")
            .unionAll(
                edges.join(changed.withColumnRenamed("v", "dst"), "dst", "left_semi")
                .select("src", "dst")
            )
            .select("src", "dst")
            .distinct()
        )
        active_parts.append(touched.select(F.lit(step).alias("step"), "src", "dst"))
        cand = (
            inc.join(changed.withColumnRenamed("v", "other"), "other", "left_semi")
            .join(
                labels.withColumnRenamed("v", "other").withColumnRenamed(
                    "label", "nl"
                ),
                "other",
            )
            .groupBy("v")
            .agg(F.min("nl").alias("cand"))
        )
        improved = (
            cand.join(labels, "v")
            .filter(F.col("cand") < F.col("label"))
            .select("v", F.col("cand").alias("label"))
            .localCheckpoint(eager=True)
        )
        n_new = improved.count()
        if n_new == 0:
            break
        update_parts.append(improved.select(F.lit(step).alias("step"), "v"))
        labels = (
            labels.join(improved.select("v"), "v", "left_anti")
            .unionAll(improved)
            .coalesce(shuffle_width(spark))
            .localCheckpoint(eager=True)
        )
        changed = improved.select("v")

    active = _union_all(spark, active_parts, "step int, src long, dst long")
    updates = _union_all(spark, update_parts, "step int, v long")
    trace = Trace(
        edges=edges,
        active=active.localCheckpoint(eager=True),
        updates=updates.localCheckpoint(eager=True),
        n_steps=step,
    )
    inc.unpersist(blocking=False)
    return labels, trace
