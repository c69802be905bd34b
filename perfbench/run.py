"""Run one benchmark workload and print its metrics as JSON on the last line.

    python3 perfbench/run.py --workload dne-social --seed 1 --seconds 32 --trace 0

Run from the root of the repository: the program is imported from
``src/`` and metric names and units come from ``BENCHMARK.json``. With
``--trace 0`` the result holds every end-to-end metric; with
``--trace 1`` every per-layer metric, and the spans are written to
``perfbench/out/``. The exit code is 0 only when every correctness
check passed.
"""
import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def declared(trace: bool) -> dict[str, str]:
    """Metric name -> unit, for the metrics this kind of run must print."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def end_to_end_metrics(o, session_s: float) -> dict[str, float]:
    call_s = statistics.median(o.call_s)
    return {
        "setup_s": session_s + o.setup["build_s"] + o.setup["warmup_s"],
        "call_s": call_s,
        "edges_per_s": o.facts["graphgen.edges"] / call_s,
        "rf": o.quality["rf"],
        "eb": o.quality["eb"],
        "com_mb": o.quality["com_mb"],
    }


def result_line(o, metrics: dict[str, float], units: dict[str, str]) -> str:
    if metrics.keys() != units.keys():
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(metrics.keys() ^ units.keys())}"
        )
    return json.dumps({
        "correct": o.failed == 0,
        "attempted": o.attempted,
        "failed": o.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    })


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    units = declared(bool(args.trace))
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import runtime
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; known: {workloads.WORKLOADS}")
    work = OUT / "work"
    t0 = time.perf_counter()
    spark = runtime.start_session(work)
    session_s = time.perf_counter() - t0
    try:
        tr = Tracer(spark, enabled=bool(args.trace))
        o = workloads.run(spark, args.workload, workloads.SPEC, args.seed, args.seconds, tr)
    finally:
        runtime.stop_session(spark)
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        tr.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = workloads.layer_metrics(tr, o) | {
            "setup.session_s": session_s,
            "runtime.peak_rss_mb": runtime.peak_rss_mb(),
        }
    else:
        metrics = end_to_end_metrics(o, session_s)
    print("runtime " + json.dumps(runtime.runtime_settings()))
    print(f"calls {len(o.call_s)}: " + " ".join(f"{s:.3f}" for s in o.call_s))
    for p in o.problems:
        print(f"check failed: {p}")
    print(result_line(o, metrics, units))
    return 0 if o.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
