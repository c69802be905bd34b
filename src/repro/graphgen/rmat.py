"""R-MAT recursive-matrix graph generator (Chakrabarti et al., SDM'04).

This is the generator the paper uses for all synthetic experiments
(Graph500 parameters a=0.57, b=0.19, c=0.19, d=0.05). ``ScaleN`` means
2^N vertices; ``edge_factor`` is the number of edge *draws* per vertex.
Duplicate draws and self-loops are removed after canonicalization —
the paper does the same ("it compacts the duplicated edges", §7.3) —
so the realised |E| is below ``2^scale * edge_factor`` for skewed graphs.
"""
import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.graphgen.util import canonicalize_np, edges_to_spark

GRAPH500_A = 0.57
GRAPH500_B = 0.19
GRAPH500_C = 0.19


def rmat_edges_np(
    scale: int,
    edge_factor: int,
    *,
    seed: int = 0,
    a: float = GRAPH500_A,
    b: float = GRAPH500_B,
    c: float = GRAPH500_C,
) -> np.ndarray:
    """Generate a canonical (m, 2) int64 R-MAT edge array.

    Vectorised over all edge draws: at each of ``scale`` recursion levels
    every edge independently picks a quadrant with probabilities
    (a, b, c, 1-a-b-c) and shifts one bit into its (src, dst) ids.
    Deterministic in ``seed``.
    """
    if not 0 < a + b + c < 1:
        raise ValueError("RMAT probabilities must satisfy 0 < a+b+c < 1")
    n_draws = (1 << scale) * edge_factor
    rng = np.random.default_rng(seed)
    src = np.zeros(n_draws, dtype=np.int64)
    dst = np.zeros(n_draws, dtype=np.int64)
    for _ in range(scale):
        r = rng.random(n_draws)
        # quadrants: [0,a) -> (0,0), [a,a+b) -> (0,1), [a+b,a+b+c) -> (1,0),
        # [a+b+c,1) -> (1,1)
        right = ((r >= a) & (r < a + b)) | (r >= a + b + c)  # b or d
        down = r >= a + b  # c or d
        src = (src << 1) | down.astype(np.int64)
        dst = (dst << 1) | right.astype(np.int64)
    return canonicalize_np(src, dst)


def rmat(
    spark: SparkSession,
    *,
    scale: int,
    edge_factor: int,
    seed: int = 0,
) -> DataFrame:
    """R-MAT graph (Graph500 skew) as a canonical Spark edge DataFrame."""
    return edges_to_spark(spark, rmat_edges_np(scale, edge_factor, seed=seed))
