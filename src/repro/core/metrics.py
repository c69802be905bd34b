"""Partition-quality metrics: replication factor, edge/vertex balance.

Definitions follow §2.1 and §7.6 of the paper:

- replication factor  RF = (1/|V|) * sum_p |V(E_p)|
- edge balance        EB = max_p |E_p| / mean_p |E_p|
- vertex balance      VB = max_p |V(E_p)| / mean_p |V(E_p)|

``assignment`` DataFrames have schema (src, dst, part); |V| is the
number of vertices incident to at least one edge.
"""
from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.incidence import incidence, vertices


@dataclass(frozen=True)
class Quality:
    """Partition-quality summary for one (graph, partitioner, P) run."""

    rf: float
    eb: float
    vb: float
    n_vertices: int
    n_edges: int
    n_parts_used: int


def replicas(assignment: DataFrame) -> DataFrame:
    """Distinct (v, part) pairs — the vertex-replica table."""
    return incidence(assignment).select("v", "part").distinct()


def edge_counts(assignment: DataFrame) -> DataFrame:
    """(part, edges) — |E_p| per partition."""
    return assignment.groupBy("part").agg(F.count(F.lit(1)).alias("edges"))


def vertex_counts(assignment: DataFrame) -> DataFrame:
    """(part, vertices) — |V(E_p)| per partition."""
    return replicas(assignment).groupBy("part").agg(
        F.count(F.lit(1)).alias("vertices")
    )


def partition_quality(assignment: DataFrame) -> Quality:
    """Compute RF/EB/VB plus size facts for an edge-partition assignment;
    |E| is the sum of the per-part edge counts."""
    assignment = assignment.cache()
    n_vertices = vertices(assignment).count()
    ec = edge_counts(assignment).collect()
    vc = vertex_counts(assignment).collect()
    assignment.unpersist()
    if not ec:
        raise ValueError("empty assignment")
    e_sizes = [r["edges"] for r in ec]
    v_sizes = [r["vertices"] for r in vc]
    n_edges = sum(e_sizes)
    return Quality(
        rf=sum(v_sizes) / n_vertices,
        eb=max(e_sizes) / (n_edges / len(e_sizes)),
        vb=max(v_sizes) / (sum(v_sizes) / len(v_sizes)),
        n_vertices=n_vertices,
        n_edges=n_edges,
        n_parts_used=len(e_sizes),
    )


def assert_valid_assignment(
    assignment: DataFrame, edges: DataFrame, n_parts: int
) -> None:
    """Partition contract: every input edge assigned to exactly one part in range.

    Raises AssertionError with a diagnostic on violation. Used by tests
    for every partitioner.
    """
    n_in = edges.count()
    n_out = assignment.count()
    assert n_out == n_in, f"edge count changed: {n_in} in, {n_out} out"
    n_distinct = assignment.select("src", "dst").distinct().count()
    assert n_distinct == n_in, f"duplicate edge assignments: {n_out - n_distinct}"
    bad = assignment.filter(
        (F.col("part") < 0) | (F.col("part") >= n_parts) | F.col("part").isNull()
    ).count()
    assert bad == 0, f"{bad} edges with part outside [0, {n_parts})"
    missing = edges.join(assignment, ["src", "dst"], "left_anti").count()
    assert missing == 0, f"{missing} input edges missing from assignment"
