import sys

import pytest
from pyspark.sql import SparkSession


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session, from
    ``repro.session.build_session`` (the same settings the jobs use).

    Imported here, not at module level: ``perfbench/tests`` share this
    conftest and put ``src/`` on the path themselves.
    """
    from repro.session import build_session

    s = build_session("repro-tests")
    sc = s.sparkContext
    print(
        f"[conftest] driver memory={sc.getConf().get('spark.driver.memory', '?')} "
        f"master={sc.master} defaultParallelism={sc.defaultParallelism} "
        f"shuffle partitions={s.conf.get('spark.sql.shuffle.partitions')}",
        file=sys.stderr,
    )
    yield s
    s.stop()
