"""Partitioner registry mapping paper names to implementations."""
from typing import Callable

from pyspark.sql import DataFrame, SparkSession

from repro.core.distributed_ne import distributed_ne
from repro.partitioners.ginger import hybrid_ginger
from repro.partitioners.greedy_streaming import hdrf, oblivious
from repro.partitioners.hashing import dbh, grid_hash, hybrid_hash, random_hash
from repro.partitioners.labelprop import spinner, xtrapulp_like
from repro.partitioners.multilevel import parmetis_like
from repro.partitioners.ne_sequential import ne_sequential, sne
from repro.partitioners.sheep import sheep_like

#: name (as used in the paper's tables) -> partitioner callable
PARTITIONERS: dict[str, Callable] = {
    # hash family
    "random": random_hash,
    "grid": grid_hash,
    "dbh": dbh,
    "hybrid": hybrid_hash,
    # greedy / streaming family
    "oblivious": oblivious,
    "hdrf": hdrf,
    "hybrid_ginger": hybrid_ginger,
    # sequential expansion family (Table 4)
    "ne": ne_sequential,
    "sne": sne,
    # vertex partitioners converted to edge partitions (Bourse et al.)
    "spinner": spinner,
    "xtrapulp": xtrapulp_like,
    "parmetis": parmetis_like,
    "sheep": sheep_like,
    # the paper's contribution
    "distributed_ne": distributed_ne,
}


def get_partitioner(name: str) -> Callable:
    if name not in PARTITIONERS:
        raise KeyError(f"unknown partitioner {name!r}; known: {sorted(PARTITIONERS)}")
    return PARTITIONERS[name]


def partition(
    spark: SparkSession,
    name: str,
    edges: DataFrame,
    n_parts: int,
    *,
    seed: int,
    lam: float,
) -> DataFrame:
    """Run the registry's ``name`` at its defaults; the multi-expansion
    factor ``lam`` goes to Distributed NE only."""
    kw = {"lam": lam} if name == "distributed_ne" else {}
    return get_partitioner(name)(spark, edges, n_parts, seed=seed, **kw)
