"""Table 6 (§7.7): replication factor on road networks, 8 partitioners.

Paper shape: hash methods ~3.5-3.7, Oblivious/Ginger ~2.1-2.4, and the
high-quality family (ParMETIS, Sheep, XtraPuLP, Distributed NE) all at
~1.0-1.12 — near-ideal, since near-planar graphs cut cleanly.
"""
from pyspark.sql import SparkSession

from repro.core.metrics import partition_quality
from repro.graphgen.datasets import ROAD_GRAPHS, load_dataset
from repro.partitioners import partition

N_PARTS = 16  # quality ordering is P-stable; paper's P is unspecified here

ORDER = [
    "random",
    "grid",
    "oblivious",
    "hybrid_ginger",
    "parmetis",
    "sheep",
    "xtrapulp",
    "distributed_ne",
]

PAPER = {
    "calif_lite": {"random": 3.72, "grid": 3.54, "oblivious": 2.13, "hybrid_ginger": 2.32, "parmetis": 1.002, "sheep": 1.03, "xtrapulp": 1.12, "distributed_ne": 1.02},
    "penn_lite": {"random": 3.74, "grid": 3.55, "oblivious": 2.14, "hybrid_ginger": 2.40, "parmetis": 1.004, "sheep": 1.03, "xtrapulp": 1.11, "distributed_ne": 1.01},
    "texas_lite": {"random": 3.70, "grid": 3.51, "oblivious": 2.13, "hybrid_ginger": 2.35, "parmetis": 1.003, "sheep": 1.03, "xtrapulp": 1.12, "distributed_ne": 1.02},
}


def table6_rows(
    spark: SparkSession,
    *,
    n_parts: int = N_PARTS,
    graphs: list[str] | None = None,
    seed: int = 0,
    lam: float = 0.1,
) -> list[dict]:
    graphs = graphs or ROAD_GRAPHS
    rows = []
    for g in graphs:
        edges = load_dataset(spark, g).cache()
        edges.count()
        row: dict = {"graph": g}
        for name in ORDER:
            asg = partition(spark, name, edges, n_parts, seed=seed, lam=lam)
            q = partition_quality(asg)
            row[name] = round(q.rf, 3)
            row[f"paper:{name}"] = PAPER[g][name]
        rows.append(row)
        edges.unpersist(blocking=False)
    return rows
