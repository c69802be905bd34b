"""The one session builder: shuffle width, AQE and driver-memory rule."""
from repro.session import driver_memory, shuffle_width


def test_shuffle_width_is_default_parallelism(spark):
    width = spark.sparkContext.defaultParallelism
    assert int(spark.conf.get("spark.sql.shuffle.partitions")) == width
    assert shuffle_width(spark) == width


def test_adaptive_execution_off(spark):
    # Same as perfbench's pinned runtime: tier-1 and the benchmark plan alike.
    assert spark.conf.get("spark.sql.adaptive.enabled") == "false"


def test_driver_memory_rule(monkeypatch):
    monkeypatch.setenv("SPARK_DRIVER_MEM", "3g")
    assert driver_memory() == "3g"
    monkeypatch.delenv("SPARK_DRIVER_MEM")
    assert driver_memory() in {f"{g}g" for g in range(2, 9)}
