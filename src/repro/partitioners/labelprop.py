"""Label-propagation vertex partitioners: Spinner and an XtraPuLP stand-in.

Spinner [36] assigns random initial labels and iterates penalised label
propagation — the random start is what costs it quality (paper §2.2).
XtraPuLP [42] propagates labels outward from |P| seed vertices *without*
random initial assignment, then runs balance-constrained LP refinement;
``xtrapulp_like`` mirrors that two-phase structure. Both produce vertex
labels that are converted to an edge partition per Bourse et al. [9].
"""
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from repro.core.hashutil import mix_col
from repro.core.incidence import degrees, incidence, vertices
from repro.partitioners.convert import vertex_to_edge
from repro.session import shuffle_width


def _neighbor_label_counts(edges: DataFrame, labels: DataFrame) -> DataFrame:
    """(v, label, cnt): how many of v's neighbors carry each label."""
    return (
        incidence(edges)
        .join(labels.withColumnRenamed("v", "other"), "other")
        .groupBy("v", "label")
        .agg(F.count(F.lit(1)).alias("cnt"))
    )


def _lp_round(
    edges: DataFrame,
    labels: DataFrame,
    deg: DataFrame,
    n_parts: int,
    mu: float,
    avg_load: float,
) -> DataFrame:
    """One balance-penalised LP round; every vertex re-decides its label."""
    cnt = _neighbor_label_counts(edges, labels)
    loads = (
        labels.join(deg, "v")
        .groupBy("label")
        .agg(F.sum("degree").alias("load"))
    )
    w = Window.partitionBy("v").orderBy(F.desc("score"), "label")
    return (
        cnt.join(F.broadcast(loads), "label", "left")
        .fillna(0, subset=["load"])
        .withColumn(
            "score", F.col("cnt") - F.lit(mu) * F.col("load") / F.lit(avg_load)
        )
        .withColumn("rk", F.row_number().over(w))
        .filter(F.col("rk") == 1)
        .select("v", "label")
    )


def spinner_labels(
    spark: SparkSession,
    edges: DataFrame,
    n_parts: int,
    *,
    seed: int = 0,
    n_iters: int = 10,
    mu: float = 1.0,
) -> DataFrame:
    """Spinner vertex labels: random init + penalised LP iterations."""
    edges = edges.cache()
    deg = degrees(edges).cache()
    avg_load = max(1.0, 2.0 * edges.count() / n_parts)
    labels = vertices(edges).select(
        "v", F.pmod(F.xxhash64("v", F.lit(seed)), F.lit(n_parts)).cast("int").alias("label")
    )
    for _ in range(n_iters):
        labels = (
            _lp_round(edges, labels, deg, n_parts, mu, avg_load)
            .coalesce(shuffle_width(spark))
            .localCheckpoint(eager=True)
        )
    deg.unpersist(blocking=False)
    edges.unpersist(blocking=False)
    return labels


def spinner(
    spark: SparkSession,
    edges: DataFrame,
    n_parts: int,
    *,
    seed: int = 0,
    n_iters: int = 10,
    mu: float = 1.0,
) -> DataFrame:
    labels = spinner_labels(
        spark, edges, n_parts, seed=seed, n_iters=n_iters, mu=mu
    )
    return vertex_to_edge(edges, labels, n_parts, seed=seed)


def xtrapulp_labels(
    spark: SparkSession,
    edges: DataFrame,
    n_parts: int,
    *,
    seed: int = 0,
    max_bfs_iters: int = 30,
    refine_iters: int = 5,
    mu: float = 1.0,
) -> DataFrame:
    """XtraPuLP-style labels: seeded outward LP, then balance refinement."""
    edges = edges.cache()
    verts = vertices(edges).cache()
    deg = degrees(edges).cache()
    n_v = verts.count()
    avg_load = max(1.0, 2.0 * edges.count() / n_parts)
    seeds = (
        verts.withColumn("h", mix_col(F.col("v"), seed))
        .orderBy("h", "v")
        .limit(n_parts)
        .collect()
    )
    labels = spark.createDataFrame(
        [(r["v"], i % n_parts) for i, r in enumerate(seeds)], "v long, label int"
    )
    # Phase 1: spread labels outward; labelled vertices are frozen.
    w = Window.partitionBy("v").orderBy(F.desc("cnt"), "label")
    n_labelled = len(seeds)
    for _ in range(max_bfs_iters):
        if n_labelled >= n_v:
            break
        adopt = (
            _neighbor_label_counts(edges, labels)
            .join(labels.select("v"), "v", "left_anti")
            .withColumn("rk", F.row_number().over(w))
            .filter(F.col("rk") == 1)
            .select("v", "label")
        )
        labels = (
            labels.unionAll(adopt)
            .coalesce(shuffle_width(spark))
            .localCheckpoint(eager=True)
        )
        n_before, n_labelled = n_labelled, labels.count()
        if n_labelled == n_before:
            break  # disconnected remainder
    # Unreached (disconnected) vertices: deterministic hash labels.
    rest = verts.join(labels.select("v"), "v", "left_anti").select(
        "v", F.pmod(F.xxhash64("v", F.lit(seed)), F.lit(n_parts)).cast("int").alias("label")
    )
    labels = labels.unionAll(rest)
    # Phase 2: balance-penalised refinement.
    for _ in range(refine_iters):
        labels = (
            _lp_round(edges, labels, deg, n_parts, mu, avg_load)
            .coalesce(shuffle_width(spark))
            .localCheckpoint(eager=True)
        )
    deg.unpersist(blocking=False)
    verts.unpersist(blocking=False)
    edges.unpersist(blocking=False)
    return labels


def xtrapulp_like(
    spark: SparkSession,
    edges: DataFrame,
    n_parts: int,
    *,
    seed: int = 0,
    **kw,
) -> DataFrame:
    labels = xtrapulp_labels(spark, edges, n_parts, seed=seed, **kw)
    return vertex_to_edge(edges, labels, n_parts, seed=seed)
