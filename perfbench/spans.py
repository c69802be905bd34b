"""Spans with Spark and JVM counters, recorded around calls into ``repro``.

A span is opened by the benchmark around one public call into one layer.
It records wall time, its parent span, and counters read at the same
boundaries: Spark jobs, completed and failed tasks (through a per-span job
group and the status tracker) and JVM GC time (through the
``GarbageCollectorMXBean``s). Spans stay in memory until ``write``.
A disabled tracer records nothing and costs one branch per span.
"""
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from pyspark.sql import SparkSession


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    jobs: int = 0
    tasks: int = 0
    failed_tasks: int = 0
    gc_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, spark: SparkSession, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.overhead_s = 0.0  # time spent in span bookkeeping itself
        self._sc = spark.sparkContext
        self._stack: list[Span] = []
        self._counted_stages: set[int] = set()
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        t = time.perf_counter()
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, parent, 0.0)
        self.spans.append(sp)
        self._stack.append(sp)
        gc0 = self._gc_ms()
        self._sc.setJobGroup(self._group(sp), name)
        sp.start = time.perf_counter() - self._t0
        self.overhead_s += time.perf_counter() - t
        try:
            yield sp
        finally:
            sp.end = time.perf_counter() - self._t0
            self._stack.pop()
            if self._stack:
                self._sc.setJobGroup(self._group(self._stack[-1]), self._stack[-1].name)
            else:
                self._sc.setLocalProperty("spark.jobGroup.id", None)
            sp.gc_s = (self._gc_ms() - gc0) / 1000.0
            self._count_jobs(sp)
            self.overhead_s += time.perf_counter() - self._t0 - sp.end

    def median_s(self, name: str) -> float:
        return statistics.median(s.seconds for s in self.spans if s.name == name)

    def total(self, prefix: str, field: str) -> float:
        return sum(getattr(s, field) for s in self.spans if s.name.startswith(prefix))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans], indent=1))

    @staticmethod
    def _group(sp: Span) -> str:
        return f"span-{sp.id}"

    def _gc_ms(self) -> int:
        mf = self._sc._jvm.java.lang.management.ManagementFactory
        return sum(b.getCollectionTime() for b in mf.getGarbageCollectorMXBeans())

    def _count_jobs(self, sp: Span) -> None:
        # A shuffle stage reused by a later job is listed in that job's
        # stages too; count each stage's tasks once, where it first appears.
        st = self._sc.statusTracker()
        for job_id in st.getJobIdsForGroup(self._group(sp)):
            info = st.getJobInfo(job_id)
            if info is None:
                raise RuntimeError(f"status tracker dropped job {job_id}")
            sp.jobs += 1
            for stage_id in info.stageIds:
                if stage_id in self._counted_stages:
                    continue
                self._counted_stages.add(stage_id)
                stage = st.getStageInfo(stage_id)
                if stage is not None:
                    sp.tasks += stage.numCompletedTasks
                    sp.failed_tasks += stage.numFailedTasks
