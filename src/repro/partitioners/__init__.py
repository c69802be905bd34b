"""Baseline partitioners the paper compares against (§7.1).

All partitioners share one contract: ``fn(spark, edges, n_parts, *,
seed=0, **kw) -> DataFrame(src, dst, part)`` over canonical undirected
edges, deterministic in ``seed``. ``PARTITIONERS`` is the registry;
``partition`` is the one call the table harnesses make through it.
The hash family runs as Catalyst expressions, the label-propagation
partitioners as iterated Spark plans, and the sequential baselines
(HDRF, NE/SNE, Sheep, ParMETIS) as driver-local numpy loops.
"""
from repro.partitioners.api import PARTITIONERS, get_partitioner, partition

__all__ = ["PARTITIONERS", "get_partitioner", "partition"]
