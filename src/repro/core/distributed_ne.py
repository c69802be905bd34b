"""Distributed Neighbor Expansion (Distributed NE) on Spark DataFrames.

The paper's Algorithm 1 (expansion processes) + Algorithms 2/3
(distributed edge allocation) + Algorithm 4 (multi-expansion), expressed
as one synchronised dataflow iteration per expansion round:

state (all checkpointed each round, mirroring the paper's barrier):
  alloc(eid, part)   -- allocated edges; edges are unique, never replicated
  vparts(v, part)    -- vertex replica/allocation table, globally consistent
                        (== the paper's SyncVertexAllocations result)
  incidence(v, other, eid) -- static 2|E|-row table == the 2D-hash + CSR
                        initial distribution (§4): Spark hash-distributes it

round t (lock-step with ``repro.core.reference.parallel_ne_reference``,
which tests compare bit-for-bit):
  1. D_rest(v) = unallocated incident edges; boundary = vparts x D_rest
     restricted to active (non-full) parts.
  2. Each active part selects its k = max(1, ceil(lam*|B_p|)) boundary
     vertices of minimal (D_rest, v); parts with an empty boundary draw a
     deterministic pseudo-random unallocated vertex (Alg. 1 line 7).
  3. One-hop allocation: candidate (eid, part) pairs; conflicts (the
     paper's CAS) resolved to min (|E_p|, p); per-part capacity
     cap = ceil(alpha |E| / |P|) enforced by ranked truncation. Steps 3
     and 5 share this claim rule (``_claim``); the fallback keeps only
     its conflict winner (``_winners``).
  4. Replica sync: winning edges' endpoints merged into vparts.
  5. Two-hop allocation: any still-unallocated edge whose endpoints share
     a non-full part goes to the smallest such part (Condition (5) —
     never increases replication). Superset of Alg. 3's
     new-boundary-only scan; quality can only improve.
  6. Parts at capacity deactivate; loop ends when all edges are placed
     or two consecutive rounds make no progress.
fallback: leftover edges (isolated remnants, §7.3) go to the smallest
part already containing an endpoint, else to a hash part.

The driver keeps the barrier's small metadata (the part sizes, the
needy parts' drawn vertices) and hands it to the next plan as JVM
literals: the sizes as one array column (``_winners``), the drawn pairs
and the empty starting state through ``repro.session.local_rows``. A
round therefore starts no Python worker and no broadcast job.

The whole call is planned without whole-stage codegen
(``repro.session.no_wholestage_codegen``). Each round's fused stages
differ in their literals and plan shapes, so a call generated ~200
whole-stage classes, twice what Spark's codegen cache holds, and
recompiled all of them on every call. Interpreted operators share ~95
small generated projections and orderings, all but ~20 of which stay
cached between rounds and calls; the lazily checkpointed assignment is
planned inside the call too.
"""
import math
from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from repro.core.hashutil import mix_col
from repro.core.incidence import incidence, with_eid
from repro.session import local_rows, no_wholestage_codegen, shuffle_width


@dataclass
class NEStats:
    """Run statistics (iteration count drives the Fig. 6 lambda sweep)."""

    iterations: int = 0
    fallback_edges: int = 0


def distributed_ne(
    spark: SparkSession,
    edges: DataFrame,
    n_parts: int,
    *,
    alpha: float = 1.1,
    lam: float = 0.1,
    seed: int = 0,
    max_iters: int = 10_000,
    return_stats: bool = False,
):
    """Partition canonical (src < dst) edges into ``n_parts`` vertex-cut parts.

    Returns an assignment DataFrame (src, dst, part); with
    ``return_stats=True`` returns ``(assignment, NEStats)``.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    with no_wholestage_codegen(spark):
        edges_e = with_eid(edges).select("eid", "src", "dst").cache()
        inc = incidence(edges_e).cache()
        try:
            assignment, stats = _expand(
                spark, edges_e, inc, n_parts, alpha, lam, seed, max_iters
            )
        finally:
            edges_e.unpersist(blocking=False)
            inc.unpersist(blocking=False)
    if return_stats:
        return assignment, stats
    return assignment


def _expand(
    spark: SparkSession,
    edges_e: DataFrame,
    inc: DataFrame,
    n_parts: int,
    alpha: float,
    lam: float,
    seed: int,
    max_iters: int,
) -> tuple[DataFrame, NEStats]:
    """The rounds, the fallback and the final join over the cached
    (eid, src, dst) edges and their incidence; returns the assignment,
    lazily checkpointed (so already planned), and the stats."""
    m = edges_e.count()
    if m == 0:
        raise ValueError("empty edge DataFrame")
    cap = math.ceil(alpha * m / n_parts)
    # Stable partition count for the iterated state DataFrames.
    width = shuffle_width(spark)

    alloc = local_rows(spark, [], "eid long, part int")
    vparts = local_rows(spark, [], "v long, part int")
    sizes = [0] * n_parts
    total = 0
    stall = 0
    stats = NEStats()

    w_sel = Window.partitionBy("part").orderBy("drest", "v")
    w_bsz = Window.partitionBy("part")

    for t in range(max_iters):
        if total == m:
            break
        active = [p for p in range(n_parts) if sizes[p] < cap]
        if not active:
            break
        stats.iterations = t + 1
        salt = seed + t * 7919

        unalloc_inc = inc.join(alloc.select("eid"), "eid", "left_anti").cache()
        drest = unalloc_inc.groupBy("v").agg(F.count(F.lit(1)).alias("drest"))
        boundary = vparts.filter(F.col("part").isin(active)).join(drest, "v")
        sel = (
            boundary.withColumn("bsz", F.count(F.lit(1)).over(w_bsz))
            .withColumn("rk", F.row_number().over(w_sel))
            .filter(
                F.col("rk")
                <= F.greatest(F.lit(1), F.ceil(F.lit(float(lam)) * F.col("bsz")))
            )
            .select("v", "part")
            .cache()
        )
        having = {r["part"] for r in sel.select("part").distinct().collect()}
        needy = sorted(set(active) - having)
        sel_all = sel
        if needy:
            rows = (
                unalloc_inc.select("v")
                .distinct()
                .withColumn("h", mix_col(F.col("v"), salt))
                .orderBy("h", "v")
                .limit(len(needy))
                .collect()
            )
            if rows:
                pairs = [(r["v"], p) for r, p in zip(rows, needy)]
                sel_all = sel.unionAll(local_rows(spark, pairs, "v long, part int"))

        # --- one-hop allocation ---
        cand1 = (
            sel_all.join(unalloc_inc, "v")
            .select("eid", "part")
            .dropDuplicates(["eid", "part"])
        )
        new1 = _claim(cand1, sizes, cap).cache()
        n1 = {r["part"]: r["n"] for r in new1.groupBy("part").agg(F.count(F.lit(1)).alias("n")).collect()}
        for p, n in n1.items():
            sizes[p] += n
            total += n

        ends = incidence(new1.join(edges_e, "eid")).select("v", "part")
        vparts = (
            vparts.unionAll(ends)
            .distinct()
            .coalesce(width)
            .localCheckpoint(eager=True)
        )
        alloc = alloc.unionAll(new1)

        # --- two-hop allocation ---
        two_hop = any(s < cap for s in sizes)
        n2_total = 0
        if two_hop:
            une = edges_e.join(alloc, "eid", "left_anti")
            c2 = (
                une.join(vparts.withColumnRenamed("v", "src"), "src")
                .join(vparts.withColumnRenamed("v", "dst"), ["dst", "part"])
                .select("eid", "part")
                .dropDuplicates(["eid", "part"])
            )
            new2 = _claim(c2, sizes, cap).cache()
            n2 = {r["part"]: r["n"] for r in new2.groupBy("part").agg(F.count(F.lit(1)).alias("n")).collect()}
            for p, n in n2.items():
                sizes[p] += n
                total += n
            n2_total = sum(n2.values())
            alloc = alloc.unionAll(new2)

        # One lineage cut per round. The coalesce keeps alloc's partition
        # count constant — unions would otherwise grow it every round and
        # inflate task counts of the per-round anti-joins.
        alloc = alloc.coalesce(width).localCheckpoint(eager=True)
        unalloc_inc.unpersist(blocking=False)
        sel.unpersist(blocking=False)
        new1.unpersist(blocking=False)
        if two_hop:
            new2.unpersist(blocking=False)
        progress = sum(n1.values()) + n2_total
        stall = 0 if progress else stall + 1
        if stall >= 2:
            break

    # --- fallback for leftover edges ---
    left = edges_e.join(alloc, "eid", "left_anti").cache()
    n_left = left.count()
    stats.fallback_edges = n_left
    if n_left:
        candf = (
            incidence(left)
            .join(vparts, "v")
            .select("eid", "part")
            .dropDuplicates(["eid", "part"])
        )
        # No capacity window: a part's leftovers <= n_left <= m - its size.
        candf = _winners(candf, sizes, m).select("eid", "part")
        rest = left.join(candf, "eid", "left_anti").select(
            "eid",
            F.pmod(mix_col(F.col("eid"), seed), F.lit(n_parts))
            .cast("int")
            .alias("part"),
        )
        alloc = alloc.unionAll(candf).unionAll(rest).localCheckpoint(eager=True)
    left.unpersist(blocking=False)

    assignment = (
        alloc.join(edges_e, "eid").select("src", "dst", "part").localCheckpoint()
    )
    return assignment, stats


def _winners(cands: DataFrame, sizes: list[int], cap: int) -> DataFrame:
    """Each eid's candidate (eid, part, cur) of minimal (size, part) among
    parts with size < ``cap`` (the paper's CAS), lazily. The part sizes
    enter the plan as one literal array column, ``cur = sizes[part]``."""
    size_of = F.array(*map(F.lit, sizes)).cast("array<long>")
    cur = F.element_at(size_of, F.col("part") + 1)
    return (
        cands.withColumn("cur", cur)
        .filter(F.col("cur") < F.lit(cap))
        .withColumn(
            "rk", F.row_number().over(Window.partitionBy("eid").orderBy("cur", "part"))
        )
        .filter(F.col("rk") == 1)
    )


def _claim(cands: DataFrame, sizes: list[int], cap: int) -> DataFrame:
    """Resolve candidate (eid, part) claims, lazily: ``_winners``, then
    each part keeps its lowest eids, up to ``cap - size``."""
    return (
        _winners(cands, sizes, cap)
        .withColumn("crk", F.row_number().over(Window.partitionBy("part").orderBy("eid")))
        .filter(F.col("crk") <= F.lit(cap) - F.col("cur"))
        .select("eid", "part")
    )
