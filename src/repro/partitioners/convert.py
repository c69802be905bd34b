"""Two adapters between driver- or vertex-level rules and the edge-partition
contract ``DataFrame(src, dst, part)``.

- ``vertex_to_edge``: vertex partition -> edge partition (Bourse et al.
  [9]). The paper compares vertex partitioners (ParMETIS, Spinner,
  XtraPuLP) on edge-partitioning quality by assigning every edge to a
  random endpoint's vertex partition (§7.1); the coin is deterministic
  (xxhash64 parity).
- ``on_driver``: a driver-local numpy rule over the whole edge stream
  (HDRF, NE/SNE, Sheep), collected in a seeded pseudo-random order.
"""
from typing import Callable

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def on_driver(
    spark: SparkSession,
    edges: DataFrame,
    seed: int,
    rule: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> DataFrame:
    """Apply ``rule(src, dst) -> part per edge`` on the driver.

    The edges reach the rule in ``xxhash64(src, dst, seed)`` order (ties
    by ``(src, dst)``): the stream order of the sequential baselines.
    """
    pdf = (
        edges.withColumn("ord", F.xxhash64("src", "dst", F.lit(seed)))
        .orderBy("ord", "src", "dst")
        .select("src", "dst")
        .toPandas()
    )
    pdf["part"] = rule(pdf["src"].to_numpy(), pdf["dst"].to_numpy()).astype("int32")
    return spark.createDataFrame(pdf, schema="src long, dst long, part int")


def vertex_to_edge(
    edges: DataFrame, labels: DataFrame, n_parts: int, *, seed: int = 0
) -> DataFrame:
    """Edge part = partition label of a pseudo-randomly chosen endpoint.

    ``labels`` is (v, label); vertices missing from it fall back to the
    other endpoint's label, then to a hash partition.
    """
    lsrc = labels.select(F.col("v").alias("src"), F.col("label").alias("lsrc"))
    ldst = labels.select(F.col("v").alias("dst"), F.col("label").alias("ldst"))
    coin = F.pmod(F.xxhash64("src", "dst", F.lit(seed)), F.lit(2))
    pick = F.when(coin == 0, F.coalesce("lsrc", "ldst")).otherwise(
        F.coalesce("ldst", "lsrc")
    )
    fallback = F.pmod(F.xxhash64("src", "dst", F.lit(seed + 1)), F.lit(n_parts))
    return (
        edges.join(lsrc, "src", "left")
        .join(ldst, "dst", "left")
        .select(
            "src",
            "dst",
            F.coalesce(pick, fallback).cast("int").alias("part"),
        )
    )
