"""Oblivious / HDRF specifics: greedy rules and quality ordering."""
import numpy as np

from repro.core.metrics import partition_quality
from repro.partitioners.greedy_streaming import (
    _greedy_hdrf,
    _greedy_oblivious,
    hdrf,
    oblivious,
)
from repro.partitioners.hashing import random_hash


def test_oblivious_rule_intersection_first():
    """Third edge (0,2): A(0)={0}, A(2)={1} -> least-loaded of the union."""
    src = np.array([0, 2, 0])
    dst = np.array([1, 3, 2])
    parts = _greedy_oblivious(src, dst, 4)
    assert parts[0] == 0  # empty state -> least loaded overall = part 0
    assert parts[1] == 1  # loads now (1,0,..) -> part 1
    assert parts[2] in (0, 1)  # union rule keeps it on a known part


def test_oblivious_reuses_shared_partition():
    """A triangle must land on a single partition (intersection rule)."""
    src = np.array([0, 1, 0])
    dst = np.array([1, 2, 2])
    parts = _greedy_oblivious(src, dst, 8)
    assert len(set(parts.tolist())) <= 2
    assert parts[2] in (parts[0], parts[1])


def test_hdrf_triangle_collapses():
    src = np.array([0, 1, 0])
    dst = np.array([1, 2, 2])
    parts = _greedy_hdrf(src, dst, 8)
    assert parts[2] in (parts[0], parts[1])


def test_hdrf_balance_under_pressure():
    """With many disjoint edges, the balance term spreads them out."""
    src = np.arange(0, 64, 2)
    dst = np.arange(1, 64, 2)
    parts = _greedy_hdrf(src, dst, 8)
    counts = np.bincount(parts, minlength=8)
    assert counts.max() - counts.min() <= 1


def test_oblivious_balance_on_disjoint_edges():
    src = np.arange(0, 64, 2)
    dst = np.arange(1, 64, 2)
    parts = _greedy_oblivious(src, dst, 8)
    counts = np.bincount(parts, minlength=8)
    assert counts.max() - counts.min() <= 1


def test_oblivious_beats_random(spark, small_rmat):
    rf_rand = partition_quality(random_hash(spark, small_rmat, 8, seed=0)).rf
    rf_obl = partition_quality(oblivious(spark, small_rmat, 8, seed=0)).rf
    assert rf_obl < rf_rand


def test_hdrf_beats_random(spark, small_rmat):
    rf_rand = partition_quality(random_hash(spark, small_rmat, 8, seed=0)).rf
    rf_hdrf = partition_quality(hdrf(spark, small_rmat, 8, seed=0)).rf
    assert rf_hdrf < rf_rand


def test_hdrf_good_edge_balance(spark, small_rmat):
    """HDRF's balance term keeps EB close to 1 (its design goal)."""
    q = partition_quality(hdrf(spark, small_rmat, 8, seed=0))
    assert q.eb < 1.1

