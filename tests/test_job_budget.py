"""Spark job budgets: jobs per call of the pipeline's building blocks.

Each call runs in its own job group on one small fixed graph, and
includes a ``count()`` of its output when the output is a DataFrame.
The budgets are the counts the code runs today, asserted with ``<=``:
a change that lowers a count lowers its budget with it, and a budget is
never raised. The counts do not depend on the number of task threads.

The same calls also run with no Python worker: driver-side values enter
their plans as JVM literals, so no task needs one.
"""
import pytest

from repro.apps import app_cost, pagerank_trace, sssp_trace, wcc_trace
from repro.core.distributed_ne import distributed_ne
from repro.core.incidence import eid_py
from repro.core.metrics import partition_quality
from repro.core.reference import parallel_ne_reference
from repro.graphgen.rmat import rmat_edges_np
from repro.graphgen.util import edges_to_spark
from repro.partitioners.hashing import grid_hash
from repro.partitioners.labelprop import xtrapulp_like


def _pairs():
    return rmat_edges_np(6, 4, seed=100)


@pytest.fixture(scope="module")
def graph(spark):
    edges = edges_to_spark(spark, _pairs()).cache()
    edges.count()
    return edges


@pytest.fixture(scope="module")
def grid(spark, graph):
    asg = grid_hash(spark, graph, 4, seed=0).cache()
    asg.count()
    return asg


def _jobs(spark, name: str, call) -> int:
    sc = spark.sparkContext
    group = f"job-budget-{name}"
    sc.setJobGroup(group, name)
    try:
        call()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return len(sc.statusTracker().getJobIdsForGroup(group))


#: name -> (budget, call(spark, graph))
BUDGETS = {
    # 2 rounds, then 11 edges through the fallback
    "distributed_ne": (
        16,
        lambda s, g: distributed_ne(s, g, 4, lam=1.0, seed=0, max_iters=2).count(),
    ),
    "sssp_trace": (11, lambda s, g: sssp_trace(s, g, source=0)[0].count()),
    "wcc_trace": (12, lambda s, g: wcc_trace(s, g)[0].count()),
    "pagerank_trace": (5, lambda s, g: pagerank_trace(s, g, n_iters=3)[0].count()),
}


@pytest.mark.parametrize("name", list(BUDGETS))
def test_job_budget(spark, graph, name):
    budget, call = BUDGETS[name]
    jobs = _jobs(spark, name, lambda: call(spark, graph))
    assert jobs <= budget, f"{name}: {jobs} jobs, budget {budget}"


def test_partition_quality_job_budget(spark, grid):
    jobs = _jobs(spark, "partition_quality", lambda: partition_quality(grid))
    assert jobs <= 3, f"{jobs} jobs"


@pytest.mark.parametrize("app", ["sssp", "wcc", "pagerank"])
def test_app_cost_job_budget(spark, graph, grid, app):
    trace = {
        "sssp": lambda: sssp_trace(spark, graph, source=0),
        "wcc": lambda: wcc_trace(spark, graph),
        "pagerank": lambda: pagerank_trace(spark, graph, n_iters=3),
    }[app]()[1]
    jobs = _jobs(spark, f"app_cost-{app}", lambda: app_cost(trace, grid, 4))
    assert jobs <= 3, f"{jobs} jobs"


def test_no_python_worker(spark, graph, grid):
    """Distributed NE (through the needy draw and the fallback), the
    three apps with their pricing, the quality metrics and XtraPuLP run
    with the Python worker executable pointed at ``/bin/false``, so any
    task that needs a Python worker fails. The assignment still equals
    the reference's."""
    sc = spark.sparkContext
    python_exec = sc.pythonExec
    sc.pythonExec = "/bin/false"
    try:
        asg = distributed_ne(spark, graph, 4, lam=1.0, seed=0, max_iters=2)
        got = {eid_py(r["src"], r["dst"]): r["part"] for r in asg.collect()}
        for out, trace in (
            sssp_trace(spark, graph, source=0),
            wcc_trace(spark, graph),
            pagerank_trace(spark, graph, n_iters=3),
        ):
            out.count()
            app_cost(trace, grid, 4)
        partition_quality(grid)
        xtrapulp_like(spark, graph, 4, seed=0).count()
    finally:
        sc.pythonExec = python_exec
    want, _ = parallel_ne_reference(
        [tuple(r) for r in _pairs()], 4, lam=1.0, seed=0, max_iters=2
    )
    assert got == want
