"""Scaled-down substitutes for the paper's real-world datasets (Table 2).

The container is offline, so SNAP/KONECT/LWA graphs cannot be fetched.
Each ``<name>_lite`` keeps the original's *edge factor* (|E| draws / |V|)
and structural family: R-MAT with Graph500 skew for social graphs, the
locality generator for the WebUK crawl, and thinned lattices for the
road networks (Table 6). Absolute scale is reduced to laptop size —
quality comparisons (replication factor) are scale-stable per the paper
itself: "the difficulty in partitioning a graph depends on its
complexity [edge factor] rather than its scale" (§7.2).
"""
from dataclasses import dataclass
from typing import Callable

from pyspark.sql import DataFrame, SparkSession

from repro.graphgen.locality import locality_graph
from repro.graphgen.rmat import rmat
from repro.graphgen.road import grid_road


@dataclass(frozen=True)
class DatasetSpec:
    """One synthetic stand-in for a paper dataset."""

    name: str
    paper_name: str
    paper_vertices: str  # as printed in Table 2 / §7.7
    paper_edges: str
    kind: str  # "social" | "web" | "road"
    generate: Callable[[SparkSession], DataFrame]


def _social(scale: int, ef: int, seed: int) -> Callable[[SparkSession], DataFrame]:
    return lambda spark: rmat(spark, scale=scale, edge_factor=ef, seed=seed)


def _web(n: int, ef: int, seed: int) -> Callable[[SparkSession], DataFrame]:
    # gap_alpha = 2.2: at 8k vertices the per-partition boundary/interior
    # ratio is ~200x worse than on the real 105M-vertex WebUK, so the
    # substitute needs tighter locality to land in the paper's
    # "near-ideal RF" regime for web graphs (D.NE RF ~ 1.5-2 at P=64).
    return lambda spark: locality_graph(
        spark, n=n, edge_factor=ef, gap_alpha=2.2, seed=seed
    )


def _road(rows: int, cols: int, seed: int) -> Callable[[SparkSession], DataFrame]:
    return lambda spark: grid_road(spark, rows, cols, keep_prob=0.71, seed=seed)


DATASETS: dict[str, DatasetSpec] = {
    s.name: s
    for s in [
        # Table 2 social graphs — R-MAT at the original edge factor.
        DatasetSpec("pokec_lite", "Pokec", "1.63M", "30.62M", "social", _social(12, 19, 101)),
        DatasetSpec("flickr_lite", "Flickr", "2.30M", "33.14M", "social", _social(12, 14, 102)),
        DatasetSpec("livej_lite", "LiveJournal", "4.84M", "68.47M", "social", _social(13, 14, 103)),
        DatasetSpec("orkut_lite", "Orkut", "3.07M", "117.18M", "social", _social(12, 38, 104)),
        DatasetSpec("twitter_lite", "Twitter", "41.65M", "1.46B", "social", _social(13, 35, 105)),
        DatasetSpec("friendster_lite", "Friendster", "65.60M", "1.80B", "social", _social(13, 27, 106)),
        # WebUK — locality structure (near-ideal RF is achievable).
        DatasetSpec("webuk_lite", "WebUK", "105.15M", "3.72B", "web", _web(8192, 35, 107)),
        # Tiny synthetic graph for fast harness tests (not in the paper).
        DatasetSpec("rmat_tiny", "synthetic-test", "-", "-", "social", _social(9, 8, 999)),
        # §7.7 road networks (Table 6).
        DatasetSpec("calif_lite", "roadNet-CA", "1.96M", "2.76M", "road", _road(45, 45, 108)),
        DatasetSpec("penn_lite", "roadNet-PA", "1.08M", "1.54M", "road", _road(33, 33, 109)),
        DatasetSpec("texas_lite", "roadNet-TX", "1.37M", "1.92M", "road", _road(37, 37, 110)),
    ]
}

TABLE5_GRAPHS = [
    "flickr_lite",
    "pokec_lite",
    "livej_lite",
    "orkut_lite",
    "twitter_lite",
    "friendster_lite",
    "webuk_lite",
]
TABLE4_GRAPHS = ["pokec_lite", "flickr_lite", "livej_lite", "orkut_lite"]
ROAD_GRAPHS = ["calif_lite", "penn_lite", "texas_lite"]


def load_dataset(spark: SparkSession, name: str) -> DataFrame:
    """Generate the named ``_lite`` dataset as a canonical edge DataFrame."""
    if name not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(DATASETS)}")
    return DATASETS[name].generate(spark)
