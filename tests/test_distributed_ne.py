"""Distributed NE: lock-step equality with the Python reference,
Theorem 1, capacity, quality, multi-expansion behaviour."""
import math

import pytest
from pyspark import StorageLevel
from pyspark.sql import functions as F

from repro.core.bounds import theorem1_ub
from repro.core.distributed_ne import distributed_ne
from repro.core.incidence import eid_py, incidence, with_eid
from repro.core.metrics import (
    assert_valid_assignment,
    partition_quality,
    replicas,
)
from repro.core.reference import parallel_ne_reference
from repro.graphgen.rmat import rmat_edges_np
from repro.graphgen.special import ring_graph, ring_plus_complete
from repro.graphgen.util import edges_to_spark
from repro.partitioners.hashing import random_hash


def _spark_map(asg):
    return {eid_py(r["src"], r["dst"]): r["part"] for r in asg.collect()}


# ---------- bit-for-bit equality with the reference ----------
@pytest.mark.parametrize(
    "scale,ef,graph_seed,n_parts,lam,seed,max_iters",
    [
        pytest.param(6, 4, 100, 4, 1.0, 0, None, id="6-4-4-1.0-0"),
        pytest.param(7, 4, 107, 4, 0.5, 7, None, id="7-4-4-0.5-7"),
        pytest.param(7, 6, 103, 8, 0.25, 3, None, id="7-6-8-0.25-3"),
        # Two rounds leave 11 edges to the fallback: 10 join a part that
        # holds an endpoint, 1 is hashed.
        pytest.param(6, 4, 100, 4, 1.0, 0, 2, id="6-4-4-1.0-0-max_iters2"),
        pytest.param(6, 4, 42, 4, 0.5, 1, None, id="6-4-4-0.5-1-graph42"),
        # the lambda extreme, on the tiny_rmat graph
        pytest.param(7, 6, 11, 4, 1.0, 4, None, id="7-6-4-1.0-4-graph11"),
    ],
)
def test_matches_python_reference(
    spark, scale, ef, graph_seed, n_parts, lam, seed, max_iters
):
    """Assignment and (iterations, fallback edges) equal the reference's."""
    pairs = rmat_edges_np(scale, ef, seed=graph_seed)
    edges = edges_to_spark(spark, pairs)
    kw = {} if max_iters is None else {"max_iters": max_iters}
    asg, st = distributed_ne(
        spark, edges, n_parts, lam=lam, seed=seed, return_stats=True, **kw
    )
    want, ref_st = parallel_ne_reference(
        [tuple(r) for r in pairs], n_parts, lam=lam, seed=seed, **kw
    )
    assert _spark_map(asg) == want
    assert (st.iterations, st.fallback_edges) == (
        ref_st["iterations"],
        ref_st["fallback_edges"],
    )
    if max_iters is not None:
        assert st.fallback_edges > 0


# ---------- one shared medium run for the invariant battery ----------
@pytest.fixture(scope="module")
def dne_run(spark, small_rmat):
    asg, stats = distributed_ne(
        spark, small_rmat, 8, alpha=1.1, lam=0.5, seed=5, return_stats=True
    )
    asg = asg.cache()
    asg.count()
    return asg, stats, small_rmat


def test_dne_valid(dne_run):
    asg, _, edges = dne_run
    assert_valid_assignment(asg, edges, 8)


def test_dne_theorem1_bound(dne_run):
    asg, _, _ = dne_run
    q = partition_quality(asg)
    assert q.rf <= theorem1_ub(q.n_vertices, q.n_edges, 8)


def test_dne_capacity_respected(dne_run):
    """EB <= alpha: ranked truncation enforces the Formula (2) constraint
    (up to the leftover-fallback edges, which this run has none of)."""
    asg, stats, edges = dne_run
    m = edges.count()
    cap = math.ceil(1.1 * m / 8)
    sizes = [r["n"] for r in asg.groupBy("part").agg(F.count(F.lit(1)).alias("n")).collect()]
    assert max(sizes) <= cap + stats.fallback_edges


def test_dne_beats_random(dne_run, spark):
    asg, _, edges = dne_run
    rf_dne = partition_quality(asg).rf
    rf_rand = partition_quality(random_hash(spark, edges, 8, seed=0)).rf
    assert rf_dne < 0.75 * rf_rand


def test_dne_stats_sane(dne_run):
    _, stats, edges = dne_run
    assert stats.iterations >= 1
    assert 0 <= stats.fallback_edges <= edges.count() * 0.05


def test_dne_deterministic(spark, tiny_rmat):
    a = _spark_map(distributed_ne(spark, tiny_rmat, 4, lam=0.5, seed=9))
    b = _spark_map(distributed_ne(spark, tiny_rmat, 4, lam=0.5, seed=9))
    assert a == b


def test_dne_seed_changes_result(spark, tiny_rmat):
    a = _spark_map(distributed_ne(spark, tiny_rmat, 4, lam=0.5, seed=1))
    b = _spark_map(distributed_ne(spark, tiny_rmat, 4, lam=0.5, seed=2))
    assert a != b


# ---------- multi-expansion (Alg. 4 / Fig. 6) ----------
def test_lambda_one_fewer_iterations(spark, tiny_rmat):
    """lambda = 1.0 expands the whole boundary each round: far fewer
    iterations than lambda ~ 0 (Fig. 6's monotone trend)."""
    _, st_lo = distributed_ne(
        spark, tiny_rmat, 4, lam=1e-9, seed=0, return_stats=True
    )
    _, st_hi = distributed_ne(
        spark, tiny_rmat, 4, lam=1.0, seed=0, return_stats=True
    )
    assert st_hi.iterations < st_lo.iterations


# ---------- structured graphs ----------
def test_dne_ring_contiguous(spark):
    """On a ring, expansion grows contiguous arcs: RF stays near 1."""
    ring = ring_graph(spark, 64)
    q = partition_quality(distributed_ne(spark, ring, 4, lam=0.5, seed=0))
    assert q.rf <= 1.0 + 2 * 4 / 64 + 0.05


def test_dne_ring_plus_complete_below_bound(spark):
    """Theorem 2's adversarial construction still respects Theorem 1."""
    g = ring_plus_complete(spark, 5)
    q = partition_quality(distributed_ne(spark, g, 4, lam=0.5, seed=0))
    assert q.rf <= theorem1_ub(q.n_vertices, q.n_edges, 4)


def test_dne_single_partition(spark, tiny_rmat):
    q = partition_quality(distributed_ne(spark, tiny_rmat, 1, seed=0))
    assert q.rf == pytest.approx(1.0)


def test_dne_rejects_empty(spark):
    """The error is raised after the call has cached its (eid, src, dst)
    edges and their incidence; both are released."""
    empty = spark.createDataFrame([], "src long, dst long")
    persisted = spark.sparkContext._jsc.getPersistentRDDs().size()
    with pytest.raises(ValueError):
        distributed_ne(spark, empty, 4)
    assert spark.sparkContext._jsc.getPersistentRDDs().size() == persisted
    edges_e = with_eid(empty).select("eid", "src", "dst")
    for df in (edges_e, incidence(edges_e)):
        assert df.storageLevel == StorageLevel.NONE


def test_dne_rejects_bad_parts(spark, tiny_rmat):
    with pytest.raises(ValueError):
        distributed_ne(spark, tiny_rmat, 0)


# ---------- replica-table consistency ----------
def test_dne_replicas_consistent_with_assignment(dne_run):
    """Every (v, part) replica stems from an edge in that part; the
    number of replicas equals sum_p |V(E_p)| used in RF."""
    asg, _, _ = dne_run
    q = partition_quality(asg)
    assert replicas(asg).count() == round(q.rf * q.n_vertices)
