"""Hash-based edge partitioners: Random (1D), Grid (2D), DBH, Hybrid.

All are pure Catalyst expressions (xxhash64) — the paper's "lightweight
hash calculation" family (§2.2) — plus the degree computation for DBH
and Hybrid (one aggregation + joins). The hybrid-cut owner rule
(``hybrid_theta``, ``hybrid_owner``) is shared with Hybrid Ginger.
"""
import math

from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.incidence import degrees


def hash_part(n_parts: int, seed: int, *cols) -> Column:
    """``xxhash64(*cols, seed) mod n_parts`` as an int."""
    return F.pmod(F.xxhash64(*cols, F.lit(seed)), F.lit(n_parts)).cast("int")


def random_hash(
    spark: SparkSession, edges: DataFrame, n_parts: int, *, seed: int = 0
) -> DataFrame:
    """1D random hash: every edge to a uniform pseudo-random partition."""
    return edges.select(
        "src", "dst", hash_part(n_parts, seed, "src", "dst").alias("part")
    )


def _grid_shape(n_parts: int) -> tuple[int, int]:
    """Factor n_parts into the most square r x c grid (r <= c)."""
    r = int(math.isqrt(n_parts))
    while n_parts % r != 0:
        r -= 1
    return r, n_parts // r


def grid_hash(
    spark: SparkSession, edges: DataFrame, n_parts: int, *, seed: int = 0
) -> DataFrame:
    """2D (grid) hash: part = (h(src) mod r, h(dst) mod c).

    Each vertex's edges are confined to one grid row or column, so its
    replicas are bounded by r + c - 1 — the constrained placement that
    Distributed NE itself uses for the *initial* distribution (§4).
    """
    r, c = _grid_shape(n_parts)
    row = F.pmod(F.xxhash64("src", F.lit(seed)), F.lit(r))
    col = F.pmod(F.xxhash64("dst", F.lit(seed + 1)), F.lit(c))
    return edges.select(
        "src", "dst", (row * F.lit(c) + col).cast("int").alias("part")
    )


def dbh(
    spark: SparkSession, edges: DataFrame, n_parts: int, *, seed: int = 0
) -> DataFrame:
    """Degree-based hashing [49]: hash each edge by its lower-degree endpoint."""
    deg = degrees(edges)
    d_src = deg.withColumnRenamed("v", "src").withColumnRenamed("degree", "dsrc")
    d_dst = deg.withColumnRenamed("v", "dst").withColumnRenamed("degree", "ddst")
    key = F.when(F.col("dsrc") <= F.col("ddst"), F.col("src")).otherwise(
        F.col("dst")
    )
    return (
        edges.join(d_src, "src")
        .join(d_dst, "dst")
        .select("src", "dst", hash_part(n_parts, seed, key).alias("part"))
    )


def hybrid_theta(deg: DataFrame) -> int:
    """PowerLyra's low/high-degree threshold, scaled to the ``_lite``
    graphs: 4x the average degree, at least 4 (PowerLyra uses 100)."""
    return max(4, int(4 * deg.agg(F.avg("degree")).first()[0]))


def hybrid_owner(edges: DataFrame, deg: DataFrame, theta: int) -> DataFrame:
    """(src, dst, owner): the hybrid-cut owner of each edge is ``dst``
    when deg(dst) <= theta (low-cut: a low-degree vertex keeps its edges
    together), else ``src`` (high-cut: a high-degree vertex is split)."""
    d_dst = deg.select(F.col("v").alias("dst"), F.col("degree").alias("ddst"))
    owner = F.when(F.col("ddst") <= F.lit(theta), F.col("dst")).otherwise(
        F.col("src")
    )
    return edges.join(d_dst, "dst").select("src", "dst", owner.alias("owner"))


def hybrid_hash(
    spark: SparkSession,
    edges: DataFrame,
    n_parts: int,
    *,
    seed: int = 0,
    theta: int | None = None,
) -> DataFrame:
    """PowerLyra hybrid-cut [13]: hash each edge by its ``hybrid_owner``
    (``theta`` defaults to ``hybrid_theta``)."""
    deg = degrees(edges)
    if theta is None:
        theta = hybrid_theta(deg)
    return hybrid_owner(edges, deg, theta).select(
        "src", "dst", hash_part(n_parts, seed, "owner").alias("part")
    )
