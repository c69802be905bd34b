"""ParMETIS stand-in: multilevel vertex partitioning (coarsen / partition /
refine), converted to an edge partition.

ParMETIS itself is closed MPI software that cannot be run here, and in
the paper it exists only as a quality/memory baseline. This substitute
keeps the multilevel structure that gives METIS-family partitioners
their character (excellent on mesh/road-like graphs, memory-hungry):

1. coarsening by randomized heavy-edge matching until the graph is small,
2. initial partitioning by greedy BFS region growing balanced on vertex
   weight,
3. uncoarsening with boundary Kernighan-Lin-style refinement passes.

It runs driver-local in numpy (the graphs it partitions in this repo are
the small Table 6 road networks); the Spark contract is preserved.
"""
from collections import defaultdict

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.hashutil import mix_py
from repro.graphgen.util import edges_to_pandas
from repro.partitioners.convert import vertex_to_edge


def _match_and_coarsen(
    src: np.ndarray, dst: np.ndarray, vw: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One heavy-edge-matching contraction; returns (src', dst', vw', map)."""
    n = len(vw)
    order = np.argsort([mix_py(i, seed) for i in range(len(src))], kind="stable")
    match = np.full(n, -1, dtype=np.int64)
    for i in order:
        u, v = int(src[i]), int(dst[i])
        if match[u] == -1 and match[v] == -1:
            match[u] = v
            match[v] = u
    cid = np.full(n, -1, dtype=np.int64)
    nxt = 0
    for v in range(n):
        if cid[v] != -1:
            continue
        cid[v] = nxt
        if match[v] != -1:
            cid[match[v]] = nxt
        nxt += 1
    new_vw = np.zeros(nxt, dtype=np.int64)
    np.add.at(new_vw, cid, vw)
    cs, cd = cid[src], cid[dst]
    keep = cs != cd
    lo = np.minimum(cs[keep], cd[keep])
    hi = np.maximum(cs[keep], cd[keep])
    pairs = np.unique(np.stack([lo, hi], axis=1), axis=0) if keep.any() else np.empty((0, 2), dtype=np.int64)
    return pairs[:, 0] if len(pairs) else np.empty(0, dtype=np.int64), (
        pairs[:, 1] if len(pairs) else np.empty(0, dtype=np.int64)
    ), new_vw, cid


def _grow_partition(
    adj: dict[int, list[int]], vw: np.ndarray, n_parts: int, seed: int
) -> np.ndarray:
    """Greedy BFS region growing on the coarsest graph."""
    n = len(vw)
    target = vw.sum() / n_parts
    label = np.full(n, -1, dtype=np.int64)
    order = sorted(range(n), key=lambda v: (mix_py(v, seed), v))
    ptr = 0
    for p in range(n_parts):
        weight = 0
        frontier: list[int] = []
        while weight < target:
            if not frontier:
                while ptr < n and label[order[ptr]] != -1:
                    ptr += 1
                if ptr >= n:
                    break
                frontier = [order[ptr]]
            v = frontier.pop(0)
            if label[v] != -1:
                continue
            label[v] = p
            weight += int(vw[v])
            frontier.extend(u for u in adj.get(v, []) if label[u] == -1)
    label[label == -1] = n_parts - 1
    return label


def _refine(
    src: np.ndarray,
    dst: np.ndarray,
    vw: np.ndarray,
    label: np.ndarray,
    n_parts: int,
) -> np.ndarray:
    """Boundary moves that reduce edge cut, subject to a balance cap of
    1.05x the mean part weight; at most 3 passes."""
    adj = defaultdict(list)
    for u, v in zip(src, dst):
        adj[int(u)].append(int(v))
        adj[int(v)].append(int(u))
    weights = np.zeros(n_parts, dtype=np.int64)
    np.add.at(weights, label, vw)
    cap = 1.05 * vw.sum() / n_parts
    for _ in range(3):
        moved = 0
        for v in range(len(vw)):
            nbrs = adj.get(v)
            if not nbrs:
                continue
            cnt = np.zeros(n_parts, dtype=np.int64)
            for u in nbrs:
                cnt[label[u]] += 1
            cur = label[v]
            best = int(np.argmax(cnt))
            if (
                best != cur
                and cnt[best] > cnt[cur]
                and weights[best] + vw[v] <= cap
            ):
                weights[cur] -= vw[v]
                weights[best] += vw[v]
                label[v] = best
                moved += 1
        if moved == 0:
            break
    return label


def parmetis_like(
    spark: SparkSession,
    edges: DataFrame,
    n_parts: int,
    *,
    seed: int = 0,
) -> DataFrame:
    """Multilevel vertex partitioning converted to an edge partition;
    coarsening stops at ``max(4 * n_parts, 64)`` vertices."""
    pdf = edges_to_pandas(edges)
    m = len(pdf)
    ids, inv = np.unique(np.concatenate([pdf["src"], pdf["dst"]]), return_inverse=True)
    src0, dst0 = inv[:m], inv[m:]
    n = len(ids)
    coarsest = max(4 * n_parts, 64)
    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    src, dst, vw = src0, dst0, np.ones(n, dtype=np.int64)
    lvl = 0
    while len(vw) > coarsest and len(src) > 0:
        nsrc, ndst, nvw, cid = _match_and_coarsen(src, dst, vw, seed + lvl)
        if len(nvw) >= len(vw):  # no contraction progress
            break
        levels.append((src, dst, vw, cid))
        src, dst, vw = nsrc, ndst, nvw
        lvl += 1
    adj = defaultdict(list)
    for u, v in zip(src, dst):
        adj[int(u)].append(int(v))
        adj[int(v)].append(int(u))
    label = _grow_partition(adj, vw, n_parts, seed)
    label = _refine(src, dst, vw, label, n_parts)
    for fsrc, fdst, fvw, cid in reversed(levels):
        label = label[cid]
        label = _refine(fsrc, fdst, fvw, label, n_parts)
    lab_df = spark.createDataFrame(
        pd.DataFrame({"v": ids, "label": label.astype("int32")}),
        "v long, label int",
    )
    return vertex_to_edge(edges, lab_df, n_parts, seed=seed)
