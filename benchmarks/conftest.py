"""Benchmark-level knobs.

Benchmarks are experiment harnesses (one substantive round each), not
microbenches: every bench regenerates one of the paper's tables and
prints it, so ``pytest benchmarks/ --benchmark-only | tee bench_output.txt``
doubles as the experiment log for EXPERIMENTS.md.

Env overrides (all optional):
  REPRO_BENCH_PARTS   partition count for tables 4/5 (default 64)
  REPRO_BENCH_LAM     multi-expansion factor for Distributed NE (default 0.25
                      for table 5, 0.1 elsewhere)
"""
import os
import pathlib

import pytest

BENCH_PARTS = int(os.environ.get("REPRO_BENCH_PARTS", "64"))
RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def bench_parts() -> int:
    return BENCH_PARTS


@pytest.fixture(scope="session")
def emit():
    """Persist a regenerated table to results/<name>.txt AND print it.

    pytest captures stdout by default, so the durable copy in results/
    is what EXPERIMENTS.md cites; run with ``-s`` to also see tables
    inline.
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text)
        print()
        print(text)

    return _emit
