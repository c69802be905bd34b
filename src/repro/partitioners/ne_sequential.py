"""Sequential expansion baselines: NE (offline) and SNE (streaming NE).

NE [54] is the offline sequential neighbor-expansion algorithm: the
whole graph is in memory and partitions are grown one after another,
always expanding the boundary vertex with minimal remaining degree and
closing over replication-free two-hop edges (§3.1 of the paper). SNE is
its streaming variant: only a bounded window of the edge stream is
visible while expanding, so NE is SNE with the whole stream in one
window (``ne_sequential`` is ``sne(..., n_batches=1)``).

Both are *deliberately* driver-local sequential loops — in Table 4 they
are the sequential baselines Distributed NE is compared against. They
run through ``convert.on_driver`` (edges collected in a seeded stream
order, assignment returned as a Spark DataFrame).
"""
import heapq
import math
from collections import defaultdict

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.hashutil import mix_py
from repro.partitioners.convert import on_driver


class _ExpansionState:
    """Shared graph state for sequential expansion over (possibly
    growing) visible adjacency."""

    def __init__(self, n_parts: int, cap: int):
        self.adj: dict[int, list[tuple[int, int]]] = defaultdict(list)
        self.parts: dict[int, int] = {}  # edge idx -> part
        self.drest: dict[int, int] = defaultdict(int)
        self.sizes = [0] * n_parts
        self.members: list[set[int]] = [set() for _ in range(n_parts)]
        self.heaps: list[list[tuple[int, int]]] = [[] for _ in range(n_parts)]
        self.cap = cap
        self.total = 0

    def add_edge(self, idx: int, u: int, v: int) -> None:
        self.adj[u].append((idx, v))
        self.adj[v].append((idx, u))
        self.drest[u] += 1
        self.drest[v] += 1

    def allocate(self, idx: int, u: int, v: int, p: int) -> None:
        self.parts[idx] = p
        self.sizes[p] += 1
        self.total += 1
        for x in (u, v):
            self.drest[x] -= 1
            if self.drest[x] == 0:
                del self.drest[x]
        self.members[p].add(u)
        self.members[p].add(v)

    def pop_boundary(self, p: int) -> int | None:
        """Lazy min-(D_rest, v) pop; stale entries are re-keyed."""
        heap = self.heaps[p]
        while heap:
            d, v = heapq.heappop(heap)
            cur = self.drest.get(v, 0)
            if cur == 0:
                continue
            if cur != d:
                heapq.heappush(heap, (cur, v))
                continue
            return v
        return None

    def expand(self, v: int, p: int) -> int:
        """Allocate v's one-hop edges + replication-free two-hop edges."""
        allocated = 0
        new_nbrs = []
        member = self.members[p]
        for idx, u in self.adj[v]:
            if idx in self.parts or self.sizes[p] >= self.cap:
                continue
            self.allocate(idx, v, u, p)
            allocated += 1
            new_nbrs.append(u)
        for u in new_nbrs:
            if self.drest.get(u, 0):
                heapq.heappush(self.heaps[p], (self.drest[u], u))
            for idx2, w in self.adj[u]:
                if idx2 in self.parts or self.sizes[p] >= self.cap:
                    continue
                if w in member:
                    self.allocate(idx2, u, w, p)
                    allocated += 1
        return allocated


def sne(
    spark: SparkSession,
    edges: DataFrame,
    n_parts: int,
    *,
    alpha: float = 1.1,
    seed: int = 0,
    n_batches: int = 2,
) -> DataFrame:
    """Streaming NE: one partition grown at a time, but over a bounded,
    batch-revealed window of the edge stream (Zhang et al.'s SNE model).

    Default window = half the stream: SNE uses "as much memory as
    available", and at this repo's scale a window must stay a large
    multiple of the per-partition capacity for expansion to see real
    neighborhoods — smaller windows degrade RF below even HDRF, which
    is not the paper's regime (Table 4: NE < SNE < HDRF).

    When the current window has no expandable edge left for the
    partition being grown, the next stream batch is revealed. The
    limited lookahead is what costs SNE quality relative to offline NE
    (``n_batches=1``). Edges left unallocated are hashed.
    """

    def rule(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        m = len(src)
        state = _ExpansionState(n_parts, math.ceil(alpha * m / n_parts))
        batch = math.ceil(m / n_batches)
        revealed = 0

        def reveal_next() -> bool:
            nonlocal revealed
            if revealed >= m:
                return False
            hi = min(revealed + batch, m)
            for i in range(revealed, hi):
                state.add_edge(i, int(src[i]), int(dst[i]))
            revealed = hi
            return True

        reveal_next()
        order = sorted(state.drest, key=lambda v: (mix_py(v, seed), v))
        ptr = 0
        for p in range(n_parts):
            while state.sizes[p] < state.cap and state.total < m:
                v = state.pop_boundary(p)
                if v is None:
                    # next not-yet-exhausted vertex in the random order
                    while ptr < len(order) and not state.drest.get(order[ptr], 0):
                        ptr += 1
                    v = order[ptr] if ptr < len(order) else None
                if v is None:
                    if not reveal_next():
                        break
                    # new edges may revive the partition's boundary (members
                    # that regained unallocated incident edges), the random
                    # order, and its cursor
                    for u in state.members[p]:
                        if state.drest.get(u, 0):
                            heapq.heappush(state.heaps[p], (state.drest[u], u))
                    order = sorted(state.drest, key=lambda u: (mix_py(u, seed), u))
                    ptr = 0
                    continue
                state.expand(v, p)
            if state.total == m:
                break
        return np.array(
            [state.parts.get(i, mix_py(i, seed) % n_parts) for i in range(m)]
        )

    return on_driver(spark, edges, seed, rule)


def ne_sequential(
    spark: SparkSession,
    edges: DataFrame,
    n_parts: int,
    *,
    alpha: float = 1.1,
    seed: int = 0,
) -> DataFrame:
    """Offline sequential NE: SNE with the whole stream in one window."""
    return sne(spark, edges, n_parts, alpha=alpha, seed=seed, n_batches=1)
