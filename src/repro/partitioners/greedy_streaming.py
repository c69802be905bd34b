"""Greedy streaming edge partitioners: PowerGraph Oblivious and HDRF.

Oblivious [16] runs as |P| *independent* greedy ingress streams — each
Spark group executes the greedy rule with only its own local view of
vertex placements and loads, exactly PowerGraph's oblivious ingress
(each loading machine is oblivious to the others). Implemented with
``applyInPandas`` so the streams run in parallel on the executors.

HDRF [39] is a *sequential* streaming algorithm (that is the paper's
Table 4 point) and therefore runs as a single stream on the driver.
"""
from collections import defaultdict

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.partitioners.convert import on_driver

_OUT_SCHEMA = "src long, dst long, part int"


def _greedy_oblivious(src: np.ndarray, dst: np.ndarray, n_parts: int) -> np.ndarray:
    """PowerGraph greedy rule over one edge stream; returns part per edge."""
    a: dict[int, set[int]] = defaultdict(set)
    loads = [0] * n_parts
    out = np.empty(len(src), dtype=np.int32)
    for i in range(len(src)):
        u, v = int(src[i]), int(dst[i])
        au, av = a[u], a[v]
        inter = au & av
        if inter:
            cands = inter
        elif au and av:
            cands = au | av
        elif au or av:
            cands = au or av
        else:
            cands = range(n_parts)
        p = min(cands, key=lambda q: (loads[q], q))
        out[i] = p
        loads[p] += 1
        au.add(p)
        av.add(p)
    return out


def _greedy_hdrf(src: np.ndarray, dst: np.ndarray, n_parts: int) -> np.ndarray:
    """HDRF scoring (partial degrees, replication + balance terms, the
    balance term at weight 1)."""
    a: dict[int, set[int]] = defaultdict(set)
    delta: dict[int, int] = defaultdict(int)
    loads = np.zeros(n_parts, dtype=np.float64)
    out = np.empty(len(src), dtype=np.int32)
    for i in range(len(src)):
        u, v = int(src[i]), int(dst[i])
        delta[u] += 1
        delta[v] += 1
        du, dv = delta[u], delta[v]
        theta_u = du / (du + dv)
        au, av = a[u], a[v]
        maxl, minl = loads.max(), loads.min()
        s = (maxl - loads) / (1e-9 + maxl - minl)
        for p in au:
            s[p] += 2.0 - theta_u
        for p in av:
            s[p] += 1.0 + theta_u
        best_p = int(np.argmax(s))  # ties -> lowest part id
        out[i] = best_p
        loads[best_p] += 1.0
        au.add(best_p)
        av.add(best_p)
    return out


def oblivious(
    spark: SparkSession, edges: DataFrame, n_parts: int, *, seed: int = 0
) -> DataFrame:
    """|P| parallel oblivious greedy streams (PowerGraph ingress model)."""

    def run(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values(["ord", "src", "dst"])
        parts = _greedy_oblivious(
            pdf["src"].to_numpy(), pdf["dst"].to_numpy(), n_parts
        )
        return pd.DataFrame(
            {"src": pdf["src"].to_numpy(), "dst": pdf["dst"].to_numpy(), "part": parts}
        )

    streams = edges.withColumn(
        "stream", F.pmod(F.xxhash64("src", "dst", F.lit(seed)), F.lit(n_parts))
    ).withColumn("ord", F.xxhash64("dst", "src", F.lit(seed + 1)))
    return streams.groupBy("stream").applyInPandas(run, schema=_OUT_SCHEMA)


def hdrf(
    spark: SparkSession, edges: DataFrame, n_parts: int, *, seed: int = 0
) -> DataFrame:
    """Sequential HDRF over a pseudo-random stream order (Table 4 baseline)."""
    return on_driver(
        spark, edges, seed, lambda src, dst: _greedy_hdrf(src, dst, n_parts)
    )
