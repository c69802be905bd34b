"""The DuckDB oracle catches both agreement and disagreement, on a graph
query (per-``src`` out-degree of the ``tiny_rmat`` fixture)."""
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent

_SQL = "SELECT src, count(*) AS n FROM edges GROUP BY src"


def test_oracle_agreement(tiny_rmat):
    spark_df = tiny_rmat.groupBy("src").agg(F.count(F.lit(1)).alias("n"))
    assert_equivalent(spark_df, _SQL, edges=tiny_rmat)


def test_oracle_catches_wrong_result(tiny_rmat):
    wrong = tiny_rmat.groupBy("src").agg((F.count(F.lit(1)) + 1).alias("n"))
    with pytest.raises(AssertionError):
        assert_equivalent(wrong, _SQL, edges=tiny_rmat)


def test_oracle_catches_column_mismatch(tiny_rmat):
    df = tiny_rmat.groupBy("src").agg(F.count(F.lit(1)).alias("wrong_name"))
    with pytest.raises(AssertionError):
        assert_equivalent(df, _SQL, edges=tiny_rmat)
