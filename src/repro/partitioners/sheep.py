"""Sheep stand-in: elimination-tree-based distributed edge partitioning.

Sheep [35] translates the graph into an elimination tree over a degree
ordering and then partitions the tree; each edge ends up in the
partition of its earlier-eliminated endpoint. The full elimination game
is expensive, so this substitute builds the standard *pseudo* elimination
tree (parent(v) = the lowest-ordered neighbor that is ordered after v)
over the (degree, id) order Sheep uses, weights every vertex by the
edges it owns (those for which it is the earlier endpoint), and
bin-packs DFS-contiguous subtree chunks into |P| balanced parts.

Like Sheep itself, this does very well on tree-like graphs (roads, web)
and worse on dense social graphs — which is the behaviour Table 6 and
Figure 8 rely on. Driver-local numpy through ``convert.on_driver``.
"""
from collections import defaultdict

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.partitioners.convert import on_driver


def _sheep(src: np.ndarray, dst: np.ndarray, n_parts: int) -> np.ndarray:
    """Part per edge: its owner's chunk of the elimination forest."""
    ids, inv = np.unique(np.concatenate([src, dst]), return_inverse=True)
    n = len(ids)
    s, d = inv[: len(src)], inv[len(src) :]
    deg = np.zeros(n, dtype=np.int64)
    np.add.at(deg, s, 1)
    np.add.at(deg, d, 1)
    # Elimination order: ascending (degree, id) — low-degree first.
    order = np.lexsort((ids, deg))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)

    adj = defaultdict(list)
    for a, b in zip(s, d):
        adj[int(a)].append(int(b))
        adj[int(b)].append(int(a))
    # parent = lowest-ranked neighbor eliminated after v.
    parent = np.full(n, -1, dtype=np.int64)
    for v in range(n):
        later = [u for u in adj[v] if rank[u] > rank[v]]
        if later:
            parent[v] = min(later, key=lambda u: rank[u])
    # Edge owner = earlier-eliminated endpoint; its weight counts the edge.
    owner = np.where(rank[s] < rank[d], s, d)
    own_w = np.zeros(n, dtype=np.int64)
    np.add.at(own_w, owner, 1)

    # DFS over the elimination forest (children before siblings) gives an
    # order in which subtrees are contiguous; greedy chunking by owned-edge
    # weight yields balanced, tree-local parts.
    children = defaultdict(list)
    roots = []
    for v in range(n):
        if parent[v] == -1:
            roots.append(v)
        else:
            children[int(parent[v])].append(v)
    for v in children:
        children[v].sort(key=lambda u: rank[u])
    roots.sort(key=lambda u: rank[u])
    dfs = []
    stack = list(reversed(roots))
    while stack:
        v = stack.pop()
        dfs.append(v)
        stack.extend(reversed(children.get(v, [])))

    target = max(1.0, len(src) / n_parts)
    label = np.zeros(n, dtype=np.int64)
    acc, p = 0.0, 0
    for v in dfs:
        label[v] = p
        acc += float(own_w[v])
        if acc >= target * (p + 1) and p < n_parts - 1:
            p += 1
    return label[owner]


def sheep_like(
    spark: SparkSession, edges: DataFrame, n_parts: int, *, seed: int = 0
) -> DataFrame:
    """Sheep-like edge partition; the result does not depend on the
    edge order that ``seed`` sets."""
    return on_driver(spark, edges, seed, lambda src, dst: _sheep(src, dst, n_parts))
