"""Smoke test of the benchmark harness on a tiny R-MAT graph.

    python3 -m pytest perfbench/tests -q -p no:cacheprovider

Checks that a run prints every metric declared in BENCHMARK.json with its
unit, that a wrong program output counts as a failed operation, and that
the seed changes the generated input.
"""
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import runtime  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

TINY = workloads.Spec(scale=6, edge_factor=4)


@pytest.fixture(scope="module")
def spark():
    work = HERE / "out" / "test-work"
    s = runtime.start_session(work)
    yield s
    runtime.stop_session(s)
    shutil.rmtree(work, ignore_errors=True)


def _printed(o, metrics, trace: bool) -> dict:
    res = json.loads(run.result_line(o, metrics, run.declared(trace)))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_end_to_end_metrics_printed(spark, name):
    o = workloads.run(spark, name, TINY, seed=1, seconds=0, tr=Tracer(spark, False))
    res = _printed(o, run.end_to_end_metrics(o, 1.0), False)
    assert res["correct"] and res["attempted"] == 1 and res["failed"] == 0
    for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_traced_run_prints_every_layer(spark):
    tr = Tracer(spark, True)
    o = workloads.run(spark, "dne-social", TINY, seed=1, seconds=0, tr=tr)
    metrics = workloads.layer_metrics(tr, o) | {
        "setup.session_s": 1.0,
        "runtime.peak_rss_mb": runtime.peak_rss_mb(),
    }
    res = _printed(o, metrics, True)
    assert res["correct"] and res["attempted"] == 2
    m = res["metrics"]
    assert m["reference.rounds"]["value"] == m["dne.rounds"]["value"]
    assert m["incidence.rows"]["value"] == 2 * m["graphgen.edges"]["value"]
    assert m["dne.spark_jobs"]["value"] > 0 and m["dne.failed_tasks"]["value"] == 0
    assert {s.name for s in tr.spans} >= {"dne.distributed_ne", "apps.sssp_trace"}


def test_wrong_output_counts_as_failed(spark, monkeypatch):
    real = workloads.distributed_ne

    def drop_one_edge(*args, **kw):
        asg, stats = real(*args, **kw)
        return asg.limit(asg.count() - 1), stats

    monkeypatch.setattr(workloads, "distributed_ne", drop_one_edge)
    o = workloads.run(spark, "dne-social", TINY, seed=1, seconds=0, tr=Tracer(spark, False))
    assert (o.attempted, o.failed) == (1, 1) and o.problems
    res = _printed(o, run.end_to_end_metrics(o, 1.0), False)
    assert res["correct"] is False and res["failed"] == 1


def test_seed_changes_input(spark):
    off = Tracer(spark, False)
    a = workloads.build_graph(spark, TINY, 1, off).pairs
    b = workloads.build_graph(spark, TINY, 2, off).pairs
    again = workloads.build_graph(spark, TINY, 1, off).pairs
    assert np.array_equal(a, again)
    assert not np.array_equal(a, b)
