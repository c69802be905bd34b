"""Incidence/eid layer and the Python/Spark hash twins."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.hashutil import MIX_MOD, mix_col, mix_py
from repro.core.incidence import (
    EID_BASE,
    degrees,
    eid_py,
    incidence,
    vertices,
    with_eid,
)
from repro.graphgen.util import graph_counts
from repro.oracle import assert_equivalent


def test_eid_unique(small_rmat):
    e = with_eid(small_rmat)
    assert e.select("eid").distinct().count() == e.count()


def test_eid_matches_python(spark):
    df = spark.createDataFrame([(3, 9), (0, 1)], "src long, dst long")
    rows = {(r["src"], r["dst"]): r["eid"] for r in with_eid(df).collect()}
    assert rows[(3, 9)] == eid_py(3, 9) == 3 * EID_BASE + 9
    assert rows[(0, 1)] == eid_py(0, 1) == 1


def test_incidence_doubles_rows(tiny_rmat):
    e = with_eid(tiny_rmat)
    assert incidence(e).count() == 2 * e.count()


def test_incidence_symmetric(tiny_rmat):
    inc = incidence(with_eid(tiny_rmat))
    fwd = inc.select("v", "other")
    bwd = inc.select(F.col("other").alias("v"), F.col("v").alias("other"))
    assert fwd.exceptAll(bwd).count() == 0


def test_incidence_carries_other_columns(spark):
    asg = with_eid(
        spark.createDataFrame([(1, 2, 0), (3, 5, 1)], "src long, dst long, part int")
    )
    inc = incidence(asg)
    assert inc.columns == ["v", "other", "part", "eid"]
    got = sorted(tuple(r) for r in inc.collect())
    assert got == sorted(
        (v, o, p, eid_py(s, d))
        for s, d, p in [(1, 2, 0), (3, 5, 1)]
        for v, o in [(s, d), (d, s)]
    )


@pytest.mark.parametrize("graph", ["small_road", "tiny_rmat"])
def test_vertices_counts_endpoints(request, graph):
    edges = request.getfixturevalue(graph)
    n, _ = graph_counts(edges)
    pdf = edges.toPandas()
    assert vertices(edges).count() == n == len(np.unique(pdf[["src", "dst"]].to_numpy()))


def test_degrees_oracle(spark, small_rmat):
    pdf = small_rmat.toPandas()
    spark_df = degrees(small_rmat).withColumnRenamed("degree", "d")
    sql = """
        SELECT v, count(*) AS d FROM (
            SELECT src AS v FROM edges UNION ALL SELECT dst AS v FROM edges
        ) GROUP BY v
    """
    assert_equivalent(spark_df, sql, edges=pdf)


def test_degrees_sum_is_twice_edges(small_rmat):
    total = degrees(small_rmat).agg(F.sum("degree")).first()[0]
    assert total == 2 * small_rmat.count()


@pytest.mark.parametrize("x,salt", [(0, 0), (1, 7), (123456, 99), (2**31, 5), (10**12, 3)])
def test_mix_py_spark_parity(spark, x, salt):
    got = spark.range(1).select(mix_col(F.lit(x).cast("long"), salt)).first()[0]
    assert got == mix_py(x, salt)


def test_mix_range():
    for x in range(0, 1000, 37):
        assert 0 <= mix_py(x, 5) < MIX_MOD


def test_mix_spreads():
    vals = {mix_py(x, 0) % 16 for x in range(100)}
    assert len(vals) >= 12
