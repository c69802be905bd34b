"""Shared helpers for graph generation: canonicalization and conversion."""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import LongType, StructField, StructType

from repro.core.incidence import vertices

EDGE_SCHEMA = StructType(
    [StructField("src", LongType(), False), StructField("dst", LongType(), False)]
)


def canonicalize_np(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Undirected canonical form: src < dst, no self-loops, no duplicates.

    Returns an (m, 2) int64 array sorted lexicographically so output is
    deterministic regardless of the generator's draw order.
    """
    lo = np.minimum(src, dst).astype(np.int64)
    hi = np.maximum(src, dst).astype(np.int64)
    keep = lo != hi
    pairs = np.stack([lo[keep], hi[keep]], axis=1)
    if len(pairs) == 0:
        return pairs
    pairs = np.unique(pairs, axis=0)
    return pairs


def edges_to_spark(spark: SparkSession, pairs: np.ndarray) -> DataFrame:
    """Wrap a canonical (m, 2) edge array as a Spark edge DataFrame."""
    pdf = pd.DataFrame({"src": pairs[:, 0], "dst": pairs[:, 1]})
    return spark.createDataFrame(pdf, schema=EDGE_SCHEMA)


def edges_to_pandas(edges: DataFrame) -> pd.DataFrame:
    """Collect a Spark edge DataFrame to pandas, canonically ordered."""
    return (
        edges.select("src", "dst").orderBy("src", "dst").toPandas().astype("int64")
    )


def graph_counts(edges: DataFrame) -> tuple[int, int]:
    """(|V|, |E|) of an edge DataFrame; |V| counts vertices touched by edges."""
    return vertices(edges).count(), edges.count()
