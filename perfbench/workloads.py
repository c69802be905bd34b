"""Benchmark workloads: inputs, warm-up, timed calls and correctness checks.

``dne-social`` times ``distributed_ne`` on an R-MAT graph; ``gas-apps``
times the Table 5 pipeline (partition quality, SSSP, WCC, PageRank and
their GAS pricing) on the same graph partitioned by the grid hash,
bypassing Distributed NE. Both take the graph from the workload seed and
hand the program only the edge DataFrame.

Every run is warm: one untimed call of the workload's own path runs
first. Each timed call materialises its output inside the timing window;
its correctness check runs outside it, and caches plus Python and JVM
garbage are cleared before the next call. A traced run makes one call of
each path and of every remaining layer, so every per-layer metric comes
from the same run.
"""
import gc
import math
import statistics
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.apps import Trace, app_cost, pagerank_trace, sssp_trace, wcc_trace
from repro.apps.engine import B_MSG
from repro.core.bounds import theorem1_ub
from repro.core.distributed_ne import distributed_ne
from repro.core.incidence import eid_py, incidence, with_eid
from repro.core.metrics import (
    assert_valid_assignment,
    edge_counts,
    partition_quality,
)
from repro.core.reference import parallel_ne_reference
from repro.graphgen.rmat import rmat_edges_np
from repro.graphgen.util import edges_to_spark
from repro.partitioners.hashing import grid_hash
from repro.partitioners.ne_sequential import ne_sequential

from runtime import jvm_gc
from spans import Tracer

N_PARTS = 16  # a perfect square: the grid hash is 4 x 4
ALPHA = 1.1
LAM = 1.0
# A round budget keeps the work per call fixed: at this size the natural
# round count varies from 3 to 25 with the seed, while the first two
# rounds place 91-97% of the edges; the rest go through the fallback.
DNE_ROUNDS = 2
PR_ITERS = 10


@dataclass(frozen=True)
class Spec:
    """R-MAT input size (Graph500 skew)."""

    scale: int
    edge_factor: int


WORKLOADS = ("dne-social", "gas-apps")
SPEC = Spec(scale=10, edge_factor=16)  # both workloads run on this graph


@dataclass
class Graph:
    pairs: np.ndarray  # canonical (m, 2) edge array, the oracles' input
    edges: DataFrame  # the same edges, materialised in Spark
    reference: tuple | None = None  # parallel_ne_reference output, made once

    @property
    def n_edges(self) -> int:
        return len(self.pairs)


@dataclass
class Outcome:
    """What one run measured, before formatting."""

    call_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)  # rf, eb, com_mb
    facts: dict[str, float] = field(default_factory=dict)  # exact per-layer counts
    setup: dict[str, float] = field(default_factory=dict)


class CheckFailed(Exception):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------- inputs
def build_graph(spark: SparkSession, spec: Spec, seed: int, tr: Tracer) -> Graph:
    with tr.span("graphgen.rmat"):
        pairs = rmat_edges_np(spec.scale, spec.edge_factor, seed=seed)
        edges = edges_to_spark(spark, pairs).localCheckpoint(eager=True)
    return Graph(pairs, edges)


def clean(spark: SparkSession) -> None:
    """Drop one call's cached data and garbage before the next call."""
    spark.catalog.clearCache()
    gc.collect()
    jvm_gc(spark)


# ---------------------------------------------------------------- dne-social
@dataclass
class DneOut:
    asg: DataFrame
    rounds: int
    fallback_edges: int


def dne_call(spark: SparkSession, g: Graph, tr: Tracer) -> DneOut:
    with tr.span("dne.distributed_ne"):
        asg, st = distributed_ne(
            spark, g.edges, N_PARTS, alpha=ALPHA, lam=LAM,
            max_iters=DNE_ROUNDS, return_stats=True,
        )
        # The assignment's final localCheckpoint is lazy: count it here so
        # its last join stays inside the timing window.
        asg.count()
    return DneOut(asg, st.iterations, st.fallback_edges)


def dne_check(g: Graph, out: DneOut, tr: Tracer, o: Outcome, full: bool) -> None:
    """Check one Distributed NE output. Without ``full``, only compare it
    with the reference: the reference output then equals an earlier output
    that passed every check, so the others would repeat its results."""
    if g.reference is None:
        with tr.span("reference.parallel_ne_reference"):
            g.reference = parallel_ne_reference(
                [tuple(p) for p in g.pairs.tolist()], N_PARTS,
                alpha=ALPHA, lam=LAM, max_iters=DNE_ROUNDS,
            )
    want, ref_stats = g.reference
    if full:
        q = partition_quality(out.asg)
        pr = Trace(edges=g.edges, active=None, updates=None, uniform_steps=PR_ITERS)
        com_mb = app_cost(pr, out.asg, N_PARTS).com_gb * 1e3
        o.quality = {"rf": q.rf, "eb": q.eb, "com_mb": com_mb}
        o.facts |= {
            "dne.rounds": out.rounds,
            "dne.fallback_edges": out.fallback_edges,
            "reference.rounds": ref_stats["iterations"],
            "graphgen.edges": g.n_edges,
            "graphgen.vertices": q.n_vertices,
        }

        assert_valid_assignment(out.asg, g.edges, N_PARTS)
        expect(
            q.rf <= theorem1_ub(q.n_vertices, q.n_edges, N_PARTS),
            f"Theorem 1 violated: RF {q.rf}",
        )
        cap = math.ceil(ALPHA * g.n_edges / N_PARTS)
        biggest = max(r["edges"] for r in edge_counts(out.asg).collect())
        expect(
            biggest <= cap + out.fallback_edges,
            f"part of {biggest} edges exceeds capacity {cap} + fallback {out.fallback_edges}",
        )
    got = {eid_py(s, d): p for s, d, p in out.asg.toPandas().itertuples(index=False)}
    expect(got == want, "assignment differs from parallel_ne_reference")
    expect(
        (out.rounds, out.fallback_edges)
        == (ref_stats["iterations"], ref_stats["fallback_edges"]),
        f"NEStats ({out.rounds}, {out.fallback_edges}) differ from the reference "
        f"({ref_stats['iterations']}, {ref_stats['fallback_edges']})",
    )


# ---------------------------------------------------------------- gas-apps
@dataclass
class GasOut:
    quality: object
    dist: DataFrame
    labels: DataFrame
    ranks: DataFrame
    traces: dict[str, Trace]
    costs: dict[str, object]


def grid_partition(spark: SparkSession, g: Graph, tr: Tracer) -> DataFrame:
    with tr.span("partitioners.grid_hash"):
        return grid_hash(spark, g.edges, N_PARTS).localCheckpoint(eager=True)


def gas_call(spark: SparkSession, g: Graph, asg: DataFrame, tr: Tracer) -> GasOut:
    with tr.span("metrics.partition_quality"):
        q = partition_quality(asg)
    with tr.span("apps.sssp_trace"):
        dist, t_sssp = sssp_trace(spark, g.edges, source=0)
        dist.count()
    with tr.span("apps.wcc_trace"):
        labels, t_wcc = wcc_trace(spark, g.edges)
        labels.count()
    with tr.span("apps.pagerank_trace"):
        ranks, t_pr = pagerank_trace(spark, g.edges, n_iters=PR_ITERS)
        ranks.count()
    traces = {"sssp": t_sssp, "wcc": t_wcc, "pagerank": t_pr}
    costs = {}
    for app, t in traces.items():
        with tr.span(f"engine.app_cost.{app}"):
            costs[app] = app_cost(t, asg, N_PARTS)
    return GasOut(q, dist, labels, ranks, traces, costs)


def gas_check(g: Graph, asg: DataFrame, out: GasOut, o: Outcome, full: bool) -> None:
    """Check one pipeline output against the oracles. The grid partition
    is an input, the same for every call, so it is checked only in ``full``."""
    q = out.quality
    com_pr = out.costs["pagerank"].com_gb * 1e9
    o.quality = {"rf": q.rf, "eb": q.eb, "com_mb": com_pr / 1e6}
    o.facts |= {
        "apps.sssp_steps": out.traces["sssp"].n_steps,
        "apps.wcc_steps": out.traces["wcc"].n_steps,
        "engine.com_sssp_mb": out.costs["sssp"].com_gb * 1e3,
        "engine.com_wcc_mb": out.costs["wcc"].com_gb * 1e3,
        "engine.et_model": sum(c.et for c in out.costs.values()),
        "graphgen.edges": g.n_edges,
        "graphgen.vertices": q.n_vertices,
    }

    if full:
        assert_valid_assignment(asg, g.edges, N_PARTS)
        # A grid hash confines each vertex to one row and one column of the
        # sqrt(P) x sqrt(P) grid.
        expect(q.rf <= 2 * math.isqrt(N_PARTS) - 1, f"grid RF {q.rf} above its bound")
    adj: dict[int, list[int]] = {}
    for s, d in g.pairs.tolist():
        adj.setdefault(s, []).append(d)
        adj.setdefault(d, []).append(s)

    want = {0: 0}
    frontier = deque(want)
    while frontier:
        u = frontier.popleft()
        for w in adj.get(u, ()):
            if w not in want:
                want[w] = want[u] + 1
                frontier.append(w)
    got = dict(out.dist.toPandas().itertuples(index=False))
    expect(got == want, "SSSP distances differ from BFS")

    parent = {v: v for v in adj}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for s, d in g.pairs.tolist():
        a, b = find(s), find(d)
        if a != b:
            parent[max(a, b)] = min(a, b)
    want_cc = {v: find(v) for v in adj}
    got_cc = dict(out.labels.toPandas().itertuples(index=False))
    expect(got_cc == want_cc, "WCC labels differ from union-find")

    verts = np.array(sorted(adj), dtype=np.int64)
    idx = np.searchsorted(verts, g.pairs)
    deg = np.bincount(idx.ravel(), minlength=len(verts)).astype(float)
    n = len(verts)
    r = np.full(n, 1.0 / n)
    for _ in range(PR_ITERS):
        share = r / deg
        contrib = np.bincount(idx[:, 1], weights=share[idx[:, 0]], minlength=n)
        contrib += np.bincount(idx[:, 0], weights=share[idx[:, 1]], minlength=n)
        r = 0.15 / n + 0.85 * contrib
    ranks = out.ranks.toPandas().sort_values("v")
    expect(
        np.array_equal(ranks["v"].to_numpy(), verts)
        and np.allclose(ranks["rank"].to_numpy(), r, rtol=1e-6, atol=0.0),
        "PageRank differs from the numpy power iteration",
    )

    want_com = PR_ITERS * 2 * B_MSG * (round(q.rf * q.n_vertices) - q.n_vertices)
    expect(math.isclose(com_pr, want_com, rel_tol=1e-9), "PageRank COM off its formula")
    for app in ("sssp", "wcc"):
        expect(
            out.costs[app].supersteps == out.traces[app].n_steps + 1,
            f"{app} priced {out.costs[app].supersteps} supersteps, "
            f"trace has {out.traces[app].n_steps} + init",
        )


# ---------------------------------------------------------------- runs
def _attempt(o: Outcome, check) -> bool:
    """Run one correctness check; a failed check counts, it does not abort."""
    o.attempted += 1
    try:
        check()
    except (AssertionError, CheckFailed) as e:
        o.failed += 1
        o.problems.append(str(e) or type(e).__name__)
        return False
    return True


class Workload:
    """One workload's warm-up, timed call and check over a built graph."""

    def __init__(self, name: str, spark: SparkSession, g: Graph, tr: Tracer):
        self.spark, self.tr = spark, tr
        self.verified = False  # an output of this run passed the full check
        if name == "dne-social":
            self.call = lambda t: dne_call(spark, g, t)
            self.check = lambda out, o, full: dne_check(g, out, tr, o, full)
        else:
            grid = grid_partition(spark, g, tr)
            self.call = lambda t: gas_call(spark, g, grid, t)
            self.check = lambda out, o, full: gas_check(g, grid, out, o, full)

    def warm(self) -> None:
        """One untimed call: the first call in a JVM is slower (class loading,
        JIT, generated code), by 10-80% on a 4-vCPU machine."""
        self.call(Tracer(self.spark, enabled=False))
        clean(self.spark)

    def timed(self, o: Outcome) -> None:
        t0 = time.perf_counter()
        out = self.call(self.tr)
        o.call_s.append(time.perf_counter() - t0)
        full = not self.verified
        if _attempt(o, lambda: self.check(out, o, full)) and full:
            self.verified = True


def run(
    spark: SparkSession, name: str, spec: Spec, seed: int, seconds: float, tr: Tracer
) -> Outcome:
    """Set up, warm up, then make timed calls for about ``seconds`` seconds:
    at least one, and another while it should end within ``seconds``.

    With tracing on, make one call of the workload, then one of the other
    workload's path (its first in this JVM) and of the layers neither path
    calls, so the trace covers every layer.
    """
    o = Outcome()
    t0 = time.perf_counter()
    g = build_graph(spark, spec, seed, tr)
    t1 = time.perf_counter()
    wl = Workload(name, spark, g, tr)
    wl.warm()
    o.setup = {"build_s": t1 - t0, "warmup_s": time.perf_counter() - t1}

    if tr.enabled:
        wl.timed(o)
        own_quality = o.quality
        clean(spark)
        # No warm-up of the other path: with one, a traced run took 106-129 s
        # on a 4-vCPU machine, far past the run budget. That path's layer
        # timings are therefore first calls in this JVM.
        Workload(next(n for n in WORKLOADS if n != name), spark, g, tr).timed(o)
        o.quality = own_quality
        o.facts |= extra_layers(spark, g, tr)
        return o

    start = time.perf_counter()
    while True:
        wl.timed(o)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(o.call_s) > seconds:
            return o
        clean(spark)


def extra_layers(spark: SparkSession, g: Graph, tr: Tracer) -> dict[str, float]:
    """Layers neither timed path calls directly, measured once."""
    with tr.span("incidence.build"):
        inc = incidence(with_eid(g.edges)).cache()
        rows = inc.count()
    inc.unpersist()
    with tr.span("partitioners.ne_sequential"):
        seq = ne_sequential(spark, g.edges, N_PARTS, alpha=ALPHA).localCheckpoint(eager=True)
    rf = partition_quality(seq).rf
    return {"incidence.rows": rows, "partitioners.ne_seq_rf": rf}


def layer_metrics(tr: Tracer, o: Outcome) -> dict[str, float]:
    """Per-layer metrics of a traced run."""
    rounds = o.facts["dne.rounds"]
    dne_s = tr.median_s("dne.distributed_ne")
    dne_jobs = tr.total("dne.", "jobs")
    return o.facts | {
        "setup.warmup_s": o.setup["warmup_s"],
        "graphgen.gen_s": tr.median_s("graphgen.rmat"),
        "incidence.build_s": tr.median_s("incidence.build"),
        "dne.s_per_round": dne_s / rounds,
        "dne.spark_jobs": dne_jobs,
        "dne.jobs_per_round": dne_jobs / rounds,
        "dne.spark_tasks": tr.total("dne.", "tasks"),
        "dne.failed_tasks": tr.total("dne.", "failed_tasks"),
        "dne.gc_s": tr.total("dne.", "gc_s"),
        "reference.s": tr.median_s("reference.parallel_ne_reference"),
        "partitioners.grid_s": tr.median_s("partitioners.grid_hash"),
        "partitioners.ne_seq_s": tr.median_s("partitioners.ne_sequential"),
        "metrics.quality_s": tr.median_s("metrics.partition_quality"),
        "metrics.spark_jobs": tr.total("metrics.", "jobs"),
        "apps.sssp_s": tr.median_s("apps.sssp_trace"),
        "apps.wcc_s": tr.median_s("apps.wcc_trace"),
        "apps.pagerank_s": tr.median_s("apps.pagerank_trace"),
        "apps.spark_jobs": tr.total("apps.", "jobs"),
        "apps.spark_tasks": tr.total("apps.", "tasks"),
        "apps.gc_s": tr.total("apps.", "gc_s"),
        "engine.cost_sssp_s": tr.median_s("engine.app_cost.sssp"),
        "engine.cost_wcc_s": tr.median_s("engine.app_cost.wcc"),
        "engine.cost_pagerank_s": tr.median_s("engine.app_cost.pagerank"),
        "trace.call_s": o.call_s[0],
        "trace.overhead_s": tr.overhead_s,
    }
