"""Graph applications: result correctness vs Python oracles, and the
GAS cost model's structural properties."""
from collections import defaultdict, deque

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.apps import app_cost, pagerank_trace, sssp_trace, wcc_trace
from repro.apps.engine import B_MSG
from repro.core.distributed_ne import distributed_ne
from repro.core.metrics import partition_quality
from repro.oracle import assert_equivalent
from repro.partitioners.hashing import grid_hash, random_hash


@pytest.fixture(scope="module")
def app_graph(spark, small_rmat):
    return small_rmat


@pytest.fixture(scope="module")
def py_adj(app_graph):
    adj = defaultdict(list)
    for r in app_graph.collect():
        adj[r["src"]].append(r["dst"])
        adj[r["dst"]].append(r["src"])
    return adj


# ---------- SSSP ----------
@pytest.fixture(scope="module")
def sssp_result(spark, app_graph):
    dist, trace = sssp_trace(spark, app_graph, source=0)
    return dist.cache(), trace


def test_sssp_matches_bfs_oracle(sssp_result, py_adj):
    dist, _ = sssp_result
    want = {0: 0}
    q = deque([0])
    while q:
        u = q.popleft()
        for w in py_adj[u]:
            if w not in want:
                want[w] = want[u] + 1
                q.append(w)
    got = {r["v"]: r["dist"] for r in dist.collect()}
    assert got == want


def test_sssp_distance_histogram_oracle(spark, sssp_result):
    """The Spark aggregation over distances matches DuckDB's."""
    dist, _ = sssp_result
    spark_df = dist.groupBy("dist").agg(F.count(F.lit(1)).alias("n"))
    assert_equivalent(
        spark_df,
        "SELECT dist, count(*) AS n FROM d GROUP BY dist",
        d=dist.toPandas(),
    )


def test_sssp_trace_steps_match_eccentricity(sssp_result):
    dist, trace = sssp_result
    max_d = dist.agg(F.max("dist")).first()[0]
    # one extra probe step discovers nothing and terminates the loop
    assert trace.n_steps == max_d + 1


def test_sssp_updates_count_equals_reached(sssp_result):
    dist, trace = sssp_result
    assert trace.updates.count() == dist.count()


def test_sssp_source_fallback(spark):
    edges = spark.createDataFrame([(5, 6), (6, 7)], "src long, dst long")
    dist, _ = sssp_trace(spark, edges, source=5)
    assert {r["v"]: r["dist"] for r in dist.collect()} == {5: 0, 6: 1, 7: 2}


# ---------- WCC ----------
@pytest.fixture(scope="module")
def wcc_result(spark, app_graph):
    labels, trace = wcc_trace(spark, app_graph)
    return labels.cache(), trace


def test_wcc_matches_unionfind_oracle(wcc_result, py_adj):
    labels, _ = wcc_result
    comp = {}
    for v in list(py_adj):
        if v in comp:
            continue
        q = deque([v])
        comp[v] = v
        while q:
            u = q.popleft()
            for w in py_adj[u]:
                if w not in comp:
                    comp[w] = v
                    q.append(w)
    got = {r["v"]: r["label"] for r in labels.collect()}
    # same partition structure: components agree as sets
    by_label = defaultdict(set)
    for v, l in got.items():
        by_label[l].add(v)
    by_comp = defaultdict(set)
    for v, c in comp.items():
        by_comp[c].add(v)
    assert sorted(map(frozenset, by_label.values())) == sorted(
        map(frozenset, by_comp.values())
    )


def test_wcc_label_is_component_min(wcc_result):
    labels, _ = wcc_result
    bad = labels.groupBy("label").agg(F.min("v").alias("mn")).filter(
        F.col("label") != F.col("mn")
    )
    assert bad.count() == 0


def test_wcc_disconnected_components(spark):
    edges = spark.createDataFrame(
        [(0, 1), (1, 2), (10, 11)], "src long, dst long"
    )
    labels, _ = wcc_trace(spark, edges)
    got = {r["v"]: r["label"] for r in labels.collect()}
    assert got == {0: 0, 1: 0, 2: 0, 10: 10, 11: 10}


def test_wcc_component_sizes_oracle(spark, wcc_result):
    labels, _ = wcc_result
    spark_df = labels.groupBy("label").agg(F.count(F.lit(1)).alias("sz"))
    assert_equivalent(
        spark_df,
        "SELECT label, count(*) AS sz FROM l GROUP BY label",
        l=labels.toPandas(),
    )


# ---------- trace contents (SSSP and WCC) ----------
def _frontier_simulation(pairs, labels, delta, max_steps):
    """Pure-Python frontier-synchronous propagation: the step's active
    edges are those touching the frontier (the previous step's updates);
    a neighbour takes the smallest label + delta that beats its own."""
    adj = defaultdict(set)
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    labels = dict(labels)
    frontier = dict(labels)
    updates = {(0, v) for v in labels}
    active = set()
    step = 0
    while step < max_steps:
        step += 1
        active |= {(step, a, b) for a, b in pairs if a in frontier or b in frontier}
        offers = {}
        for u, lab in frontier.items():
            for w in adj[u]:
                offers[w] = min(offers.get(w, lab + delta), lab + delta)
        frontier = {
            w: lab for w, lab in offers.items() if w not in labels or lab < labels[w]
        }
        if not frontier:
            break
        updates |= {(step, w) for w in frontier}
        labels.update(frontier)
    return labels, updates, active, step


def _rows(df, cols):
    rows = [tuple(r[c] for c in cols) for r in df.collect()]
    assert len(rows) == len(set(rows)), "duplicate trace rows"
    return set(rows)


@pytest.mark.parametrize("app", ["sssp", "wcc"])
@pytest.mark.parametrize(
    "graph,max_steps",
    [("tiny_rmat", 10_000), ("tiny_rmat", 2), ("disconnected", 10_000)],
)
def test_trace_contents_match_frontier_simulation(
    spark, tiny_rmat, app, graph, max_steps
):
    """Per-step ``updates`` and ``active`` rows, not just their counts."""
    if graph == "tiny_rmat":
        edges = tiny_rmat
    else:
        edges = spark.createDataFrame([(0, 1), (1, 2), (10, 11)], "src long, dst long")
    pairs = [(r["src"], r["dst"]) for r in edges.collect()]
    if app == "sssp":
        out, trace = sssp_trace(spark, edges, source=0, max_steps=max_steps)
        start, delta, col = {0: 0}, 1, "dist"
    else:
        out, trace = wcc_trace(spark, edges, max_steps=max_steps)
        start, delta, col = {v: v for e in pairs for v in e}, 0, "label"
    labels, updates, active, n_steps = _frontier_simulation(
        pairs, start, delta, max_steps
    )
    assert trace.n_steps == n_steps
    assert {r["v"]: r[col] for r in out.collect()} == labels
    assert _rows(trace.updates, ["step", "v"]) == updates
    assert _rows(trace.active, ["step", "src", "dst"]) == active
    assert max(s for s, _, _ in active) <= trace.n_steps


# ---------- PageRank ----------
@pytest.fixture(scope="module")
def pr_result(spark, app_graph):
    ranks, trace = pagerank_trace(spark, app_graph, n_iters=6)
    return ranks.cache(), trace


def test_pagerank_sums_to_one(pr_result):
    ranks, _ = pr_result
    assert ranks.agg(F.sum("rank")).first()[0] == pytest.approx(1.0, abs=1e-6)


def test_pagerank_matches_numpy_oracle(pr_result, py_adj):
    ranks, _ = pr_result
    verts = sorted(py_adj)
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    deg = np.array([len(py_adj[v]) for v in verts], dtype=float)
    r = np.full(n, 1.0 / n)
    for _ in range(6):
        contrib = np.zeros(n)
        for v in verts:
            share = r[idx[v]] / deg[idx[v]]
            for w in py_adj[v]:
                contrib[idx[w]] += share
        r = 0.15 / n + 0.85 * contrib
    got = {row["v"]: row["rank"] for row in ranks.collect()}
    want = {v: r[idx[v]] for v in verts}
    assert got.keys() == want.keys()
    for v in verts:
        assert got[v] == pytest.approx(want[v], rel=1e-6)


def test_pagerank_hub_ranks_high(pr_result, py_adj):
    ranks, _ = pr_result
    top = ranks.orderBy(F.desc("rank")).first()["v"]
    degs = {v: len(nb) for v, nb in py_adj.items()}
    assert degs[top] >= 0.5 * max(degs.values())


# ---------- cost model ----------
def test_cost_com_monotone_in_rf(spark, app_graph, pr_result):
    """Lower replication factor must mean lower COM (the model's core)."""
    _, trace = pr_result
    a_rand = random_hash(spark, app_graph, 8, seed=0)
    a_dne = distributed_ne(spark, app_graph, 8, lam=0.5, seed=0)
    assert partition_quality(a_dne).rf < partition_quality(a_rand).rf
    c_rand = app_cost(trace, a_rand, 8)
    c_dne = app_cost(trace, a_dne, 8)
    assert c_dne.com_gb < c_rand.com_gb
    assert c_dne.et < c_rand.et


def test_cost_uniform_com_formula(spark, app_graph, pr_result):
    """PR COM == iters * 2B * (total replicas - |V|), exactly."""
    _, trace = pr_result
    asg = grid_hash(spark, app_graph, 8, seed=0)
    q = partition_quality(asg)
    c = app_cost(trace, asg, 8)
    expect = trace.uniform_steps * 2 * B_MSG * (round(q.rf * q.n_vertices) - q.n_vertices)
    assert c.com_gb * 1e9 == pytest.approx(expect, rel=1e-9)


def test_cost_trace_driven_positive(spark, app_graph, sssp_result):
    _, trace = sssp_result
    c = app_cost(trace, random_hash(spark, app_graph, 8, seed=0), 8)
    assert c.et > 0 and c.com_gb > 0 and c.wb >= 1.0
    assert c.supersteps == trace.n_steps + 1  # includes step 0 (source init)


def test_cost_single_partition_zero_com(spark, app_graph, pr_result):
    """One partition -> no mirrors -> zero communication."""
    _, trace = pr_result
    asg = app_graph.select("src", "dst", F.lit(0).alias("part"))
    c = app_cost(trace, asg, 1)
    assert c.com_gb == pytest.approx(0.0)
    assert c.wb == pytest.approx(1.0)
