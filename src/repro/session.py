"""The one SparkSession builder, used by the test fixture, the table
runner and the jobs.

``build_session`` launches a local-mode driver (``SPARK_MASTER``,
default ``local[*]``) with Arrow on and broadcast joins off, so joins
exercise the shuffle path. Adaptive query execution is off, as in the
runtime ``perfbench`` pins, so a plan's jobs and tasks do not depend on
runtime statistics. The shuffle width is the context's default
parallelism (the number of task threads): at this repo's graph sizes a
wider shuffle only adds per-task overhead. Iterated state frames
coalesce to the same width through ``shuffle_width``.
"""
import os

from pyspark.sql import SparkSession


def driver_memory() -> str:
    """``SPARK_DRIVER_MEM``, else half of physical memory clamped to 2-8 g."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(ln.split()[1]) for ln in f if ln.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kib // (2 << 20)))}g"


def build_session(app_name: str = "repro-job") -> SparkSession:
    # The launcher reads PYSPARK_SUBMIT_ARGS when the JVM starts (at
    # getOrCreate), so master and driver memory are set here, not at import.
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {driver_memory()} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        "pyspark-shell",
    )
    s = (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.adaptive.enabled", "false")
        .getOrCreate()
    )
    s.conf.set("spark.sql.shuffle.partitions", s.sparkContext.defaultParallelism)
    s.sparkContext.setLogLevel("ERROR")
    return s


def shuffle_width(spark: SparkSession) -> int:
    """The session's shuffle partition count; iterated state frames
    coalesce to it so unions do not grow their partition count."""
    return int(spark.conf.get("spark.sql.shuffle.partitions"))
