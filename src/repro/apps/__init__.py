"""Distributed graph applications over an edge partitioning (Table 5).

The vertex programs (SSSP, WCC, PageRank) run as real iterative Spark
jobs — their *results* are partitioning-independent and oracle-checked.
SSSP and WCC are one kernel, :func:`repro.apps.frontier.propagate`
(frontier-synchronous min-label propagation); PageRank is all-active.
Each run additionally emits a :class:`repro.apps.engine.Trace` (which
vertices updated in every superstep, and the active edges derived from
them once the loop ends);
:func:`repro.apps.engine.app_cost` prices a trace against a concrete
edge partitioning with a PowerGraph/PowerLyra-style GAS cost model
(mirror-master synchronisation), yielding the paper's ET / COM / WB
columns.
"""
from repro.apps.engine import AppCost, Trace, app_cost
from repro.apps.frontier import sssp_trace, wcc_trace
from repro.apps.pagerank import pagerank_trace

__all__ = [
    "AppCost",
    "Trace",
    "app_cost",
    "sssp_trace",
    "wcc_trace",
    "pagerank_trace",
]
