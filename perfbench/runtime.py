"""The Spark runtime the benchmark measures, pinned here and not inherited.

Every setting that changes the program under measurement is fixed in
``runtime_settings``: local master width, shuffle partitions, AQE, driver
memory, broadcast threshold, UI and log level. Environment variables that
``repro.session`` and the test conftest read (``SPARK_MASTER``,
``SPARK_SHUFFLE_PARTITIONS``, ``SPARK_DRIVER_MEM``) are dropped, so the same
checkout always measures the same program. Scratch files (shuffle blocks,
py4j connection files, JVM temp files) go under ``work_dir`` inside the
checkout.
"""
import os
import resource
import shlex
import tempfile
import time
from pathlib import Path

from pyspark import SparkContext
from pyspark.sql import SparkSession

# Four task threads is what ``repro.session``'s ``local[*]`` gives on a
# 4-core machine. The shuffle width is fixed apart from the core count, so
# the job plans and task counts measured do not depend on the machine.
# ``repro.session`` defaults to 16 partitions; at this input size 16 made a
# call 1.5-2x slower than 4 (each job's tasks cost more than their data),
# which leaves no room for several timed calls in one run.
MAX_CORES = 4
SHUFFLE_PARTITIONS = 4
DRIVER_MEMORY = "2g"
# One traced run issues a few thousand jobs; at Spark's default of 1000
# retained jobs/stages the status tracker drops them mid-run.
RETAINED = 100_000
_INHERITED = (
    "SPARK_MASTER",
    "SPARK_SHUFFLE_PARTITIONS",
    "SPARK_DRIVER_MEM",
    "SPARK_CONF_DIR",
    "SPARK_LOCAL_DIRS",
    "PYSPARK_SUBMIT_ARGS",
)


def runtime_settings() -> dict[str, str]:
    """The pinned runtime, printed with every result."""
    cores = min(MAX_CORES, os.cpu_count() or 1)
    return {
        "master": f"local[{cores}]",
        "driver_memory": DRIVER_MEMORY,
        "spark.sql.shuffle.partitions": str(SHUFFLE_PARTITIONS),
        "spark.sql.adaptive.enabled": "false",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.ui.retainedJobs": str(RETAINED),
        "spark.ui.retainedStages": str(RETAINED),
        "spark.driver.host": "127.0.0.1",
        "log_level": "ERROR",
    }


def start_session(work_dir: Path) -> SparkSession:
    """Launch a fresh driver JVM with the pinned runtime."""
    if SparkContext._active_spark_context is not None:
        raise RuntimeError("a SparkContext is already running; cannot pin the runtime")
    tmp = work_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    for var in _INHERITED:
        os.environ.pop(var, None)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    settings = runtime_settings()
    confs = {
        k: v for k, v in settings.items() if k.startswith("spark.")
    } | {
        "spark.local.dir": str(work_dir / "spark"),
        "spark.sql.warehouse.dir": str(work_dir / "warehouse"),
    }
    args = [
        "--master", settings["master"],
        "--driver-memory", settings["driver_memory"],
        "--driver-java-options", f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData",
    ]
    for k, v in confs.items():
        args += ["--conf", f"{k}={v}"]
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(args + ["pyspark-shell"])
    spark = SparkSession.builder.appName("perfbench").getOrCreate()
    spark.sparkContext.setLogLevel(settings["log_level"])
    return spark


def stop_session(spark: SparkSession, timeout_s: float = 60.0) -> None:
    """Stop Spark, end the driver JVM and wait until it has exited."""
    gateway = spark.sparkContext._gateway
    spark.stop()
    gateway.shutdown()
    # The gateway JVM exits when its stdin closes.
    gateway.proc.stdin.close()
    gateway.proc.wait(timeout=timeout_s)
    SparkContext._gateway = None
    SparkContext._jvm = None


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child that has exited
    (the driver JVM, once ``stop_session`` has waited for it)."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def jvm_gc(spark: SparkSession) -> None:
    """Run a JVM GC, then give the ContextCleaner a moment to drop what it freed."""
    spark.sparkContext._jvm.java.lang.System.gc()
    time.sleep(0.5)
