"""GAS cost model: price an application trace against an edge partitioning.

PowerGraph executes a vertex program over a vertex-cut partitioning by
synchronising every updated vertex between its master and its mirrors
(gather: mirrors -> master, apply, scatter: master -> mirrors). The cost
of a superstep on |P| machines is therefore

    ET_step = max_p(active edges in p) * T_EDGE
            + max_p(sync bytes touching p) * T_BYTE
            + T_BARRIER

and the total communication volume is sum over updated vertices v of
2 * B * (replicas(v) - 1) bytes. Absolute ET/COM are *model units* —
Table 5's reproduction target is the ranking and the ratios between
partitioners, which depend only on the partitioning. The constants are
calibrated so that at this repo's ``_lite`` scale (10^4-10^5 edges, 64
parts) the compute:communication ratio sits in the same regime as the
paper's testbed (communication-bound for poorly replicated partitions —
in Table 5 Random's PageRank is ~4x slower than Distributed NE's at
equal edge balance, which is only possible when sync cost rivals edge
compute cost).
"""
from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.incidence import vertices
from repro.core.metrics import replicas

T_EDGE = 1e-6  # model seconds per active edge
T_BYTE = 1e-7  # model seconds per sync byte
T_BARRIER = 1e-5  # model seconds per global barrier
B_MSG = 16.0  # bytes per vertex-state sync message


@dataclass(frozen=True)
class Trace:
    """What an application did, independent of any partitioning.

    ``active``  — (step, src, dst): edges processed in each superstep.
    ``updates`` — (step, v): vertices whose state changed in the step.
    ``uniform_steps`` — if > 0, the app instead touched *every* edge and
    *every* vertex in each of this many supersteps (PageRank); ``active``
    and ``updates`` are then None and costs are computed analytically.
    """

    edges: DataFrame
    active: DataFrame | None
    updates: DataFrame | None
    uniform_steps: int = 0
    n_steps: int = 0


@dataclass(frozen=True)
class AppCost:
    """Table 5's performance columns for one (app, partitioner) pair."""

    et: float  # modelled elapsed time (model seconds)
    com_gb: float  # total sync volume (GB)
    wb: float  # workload balance  max_p(work) / mean_p(work)
    supersteps: int

    def as_row(self) -> dict:
        return {
            "et": round(self.et, 4),
            "com_gb": round(self.com_gb, 6),
            "wb": round(self.wb, 4),
            "steps": self.supersteps,
        }


def _balance(per_part: list[int], n_parts: int) -> float:
    if not per_part or sum(per_part) == 0:
        return 1.0
    return max(per_part) / (sum(per_part) / n_parts)


def app_cost(trace: Trace, assignment: DataFrame, n_parts: int) -> AppCost:
    """Price ``trace`` on the given (src, dst, part) edge assignment."""
    assignment = assignment.cache()
    repl = replicas(assignment).cache()

    if trace.uniform_steps > 0:
        # Analytic path (PageRank): every superstep is identical.
        k = trace.uniform_steps
        work = {
            r["part"]: r["n"]
            for r in assignment.groupBy("part").agg(F.count(F.lit(1)).alias("n")).collect()
        }
        sync = {
            r["part"]: r["n"]
            for r in repl.groupBy("part").agg(F.count(F.lit(1)).alias("n")).collect()
        }
        n_vertices = vertices(assignment).count()
        total_repl = sum(sync.values())
        com_bytes = k * 2.0 * B_MSG * (total_repl - n_vertices)
        et = k * (
            max(work.values()) * T_EDGE
            + max(sync.values()) * 2.0 * B_MSG * T_BYTE
            + T_BARRIER
        )
        wb = _balance([work.get(p, 0) * k for p in range(n_parts)], n_parts)
        assignment.unpersist(blocking=False)
        repl.unpersist(blocking=False)
        return AppCost(et=et, com_gb=com_bytes / 1e9, wb=wb, supersteps=k)

    # Trace-driven path (SSSP, WCC).
    work_sp = (
        trace.active.join(assignment, ["src", "dst"])
        .groupBy("step", "part")
        .agg(F.count(F.lit(1)).alias("work"))
        .collect()
    )
    sync_sp = (
        trace.updates.join(repl, "v")
        .groupBy("step", "part")
        .agg(F.count(F.lit(1)).alias("sync"))
        .collect()
    )
    upd_per_step = {
        r["step"]: r["n"]
        for r in trace.updates.groupBy("step").agg(F.count(F.lit(1)).alias("n")).collect()
    }
    assignment.unpersist(blocking=False)
    repl.unpersist(blocking=False)

    steps = sorted(
        {r["step"] for r in work_sp}
        | {r["step"] for r in sync_sp}
        | set(upd_per_step)
    )
    work_by_step: dict[int, dict[int, int]] = {s: {} for s in steps}
    for r in work_sp:
        work_by_step[r["step"]][r["part"]] = r["work"]
    sync_by_step: dict[int, dict[int, int]] = {s: {} for s in steps}
    for r in sync_sp:
        sync_by_step[r["step"]][r["part"]] = r["sync"]

    et = 0.0
    com_bytes = 0.0
    work_total = [0] * n_parts
    for s in steps:
        w = work_by_step[s]
        y = sync_by_step[s]
        for p, n in w.items():
            work_total[p] += n
        et += (
            (max(w.values()) if w else 0) * T_EDGE
            + (max(y.values()) if y else 0) * 2.0 * B_MSG * T_BYTE
            + T_BARRIER
        )
        com_bytes += 2.0 * B_MSG * (sum(y.values()) - upd_per_step.get(s, 0))
    return AppCost(
        et=et,
        com_gb=com_bytes / 1e9,
        wb=_balance(work_total, n_parts),
        supersteps=len(steps),
    )
