"""Edge/incidence DataFrame builders shared by partitioners.

The paper stores the input graph 2D-hash-partitioned in CSR across
allocation processes (§4): edges are unique, vertices replicated. Our
Spark equivalent is an *incidence table* ``(v, other, ...)`` with both
orientations of every undirected edge — hash-distributed by Spark, with
edge ids derived functionally (``src * 2^32 + dst``, mirroring the
paper's "metadata is functionally computed instead of storing them").
Every vertex-side view of an edge table (vertex sets, degrees, replica
tables, message fan-out) is built from ``incidence``.
"""
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


EID_BASE = 1 << 32


def with_eid(edges: DataFrame) -> DataFrame:
    """Attach a deterministic edge id: eid = src * 2^32 + dst.

    Collision-free for vertex ids < 2^31 (larger ``src`` overflows the
    signed 64-bit id; all graphs in this repo are << 2^20 vertices), and
    computable identically in pure Python, which lets tests compare the
    Spark Distributed NE against the lock-step Python reference
    bit-for-bit.
    """
    return edges.withColumn(
        "eid", F.col("src") * F.lit(EID_BASE) + F.col("dst")
    )


def eid_py(src: int, dst: int) -> int:
    """Python twin of ``with_eid``'s edge id."""
    return src * EID_BASE + dst


def incidence(edges: DataFrame) -> DataFrame:
    """Both orientations of every row: (v, other, *every other column).

    2 rows per input row; columns besides ``src``/``dst`` (``eid``,
    ``part``, ...) ride along unchanged in both orientations. Spark prunes
    whatever the caller does not select, so ``incidence(df).select("v")``
    scans only the endpoint columns.
    """
    rest = [c for c in edges.columns if c not in ("src", "dst")]
    return edges.select(
        F.col("src").alias("v"), F.col("dst").alias("other"), *rest
    ).unionAll(
        edges.select(F.col("dst").alias("v"), F.col("src").alias("other"), *rest)
    )


def vertices(edges: DataFrame) -> DataFrame:
    """(v) for every vertex appearing in the edge list, once each."""
    return incidence(edges).select("v").distinct()


def degrees(edges: DataFrame) -> DataFrame:
    """(v, degree) for every vertex appearing in the edge list."""
    return incidence(edges).groupBy("v").agg(F.count(F.lit(1)).alias("degree"))
