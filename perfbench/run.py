"""Benchmark harness for qrd: four closed-loop workloads, one client each.

Run from the repository root:

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 20 --trace 0

The library is imported from ./src (or run as ``python -m qrd.lab`` with
src on the path), so nothing needs installing.  BLAS runs single-threaded
here and in every child; QRD_THREADS is unset.

Set-up (imports, input generation from the seed, warm-up) is timed as
``setup_s``; it runs in this process and in two fresh children, and the
median is reported.  The timed phase then runs whole passes through the
workload's job list and checks every output.  ``--seconds`` sets the
number of passes: seconds over the workload's typical pass time, at
least two.  A fixed pass count keeps every statistic's sample count, and
so the percentile of the tail, the same from run to run.  The last
stdout line is the result object; the line before it is a report with
the environment, the input digest and the numbers that are not metrics.

Every end-to-end timing is taken at the reference host speed of
hostspeed.py, because the host's own speed drifts by up to 1.7x within
minutes; the units say so (ref-ms, 1/ref-s; ``setup_s`` keeps s).  The
wall-clock figures and the measured slowdown go on the report line.
``ops_per_s`` is operations completed per second of operation time.
``latency_p50_ms`` is the median over the job list of each operation's
mean latency over the passes.  ``latency_tail_ms`` is the latency at the
highest percentile that has at least ten timings beyond it.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` the job list runs once untraced and once with spans
recorded around every qrd call, then the per-layer timings run; the
result carries the per-layer metrics, including the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from envinfo import environment, pin_threads  # noqa: E402
from hostspeed import at_reference_speed, reference_s  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("spectral", "optimize", "zlimit", "cli")
#: set-up runs in fresh child processes, on top of the one in this process
SETUP_CHILDREN = 2
#: scratch space inside the checkout: CLI input files and span dumps
WORK_DIR = ".perfbench_out"
#: every operation is timed at least twice; cli compares each stdout with its first run
MIN_PASSES = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it as JSON and exit (used for the children)")
    return p.parse_args(argv)


def setup(name: str, seed: int, root: Path):
    """Import qrd, build the inputs from the seed and warm up.

    Returns the workload and the set-up's wall and corrected seconds.
    """
    before = reference_s()
    t0 = perf_counter()
    import workloads  # imports qrd

    work = root / WORK_DIR
    work.mkdir(exist_ok=True)
    w = workloads.build(name, seed, root, work)
    tr = Tracer(False)
    for job in w.warmup:
        job.call(tr)
    wall = perf_counter() - t0
    return w, wall, at_reference_speed(wall, before, reference_s())


def child_setup(args, root: Path) -> tuple[float, float]:
    """(wall, corrected) seconds of one set-up in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170, check=True)
    line = json.loads(out.stdout.strip().splitlines()[-1])
    return line["wall_s"], line["setup_s"]


def run_jobs(jobs, passes: int, tr: Tracer):
    """Closed loop of whole passes over the job list.

    Returns the wall and the corrected latencies (one row per pass, one
    entry per job), the duration of each pass, and the failures.  The
    host-speed reference is timed before the first job and after each job.
    """
    walls, corrected = [], []
    failures = []
    passes_s = []
    op_id = 0
    ref = reference_s()
    for _ in range(passes):
        wall_row, row = [], []
        t_pass = perf_counter()
        for job in jobs:
            error = None
            with tr.op(op_id, job.name):
                t0 = perf_counter()
                try:
                    result = job.call(tr)
                except job.expect as exc:
                    result = exc
                except Exception as exc:  # a failed operation, counted and reported
                    result, error = None, f"{type(exc).__name__}: {exc}"
                latency = perf_counter() - t0
            after = reference_s()
            wall_row.append(latency)
            row.append(at_reference_speed(latency, ref, after))
            ref = after
            if error is None:
                error = job.check(result)
            if error is not None:
                failures.append((op_id, job, error))
            op_id += 1
        passes_s.append(perf_counter() - t_pass)
        walls.append(wall_row)
        corrected.append(row)
    return walls, corrected, passes_s, failures


def latency_stats(latencies: list[list[float]]) -> dict:
    """ops per second, the median operation's mean latency and the tail."""
    flat = [x for row in latencies for x in row]
    per_job = [statistics.fmean(column) for column in zip(*latencies)]
    tail, pct = tail_latency(flat)
    return {
        "ops_per_s": len(flat) / sum(flat),
        "latency_p50_ms": 1e3 * statistics.median(per_job),
        "latency_tail_ms": 1e3 * tail,
        "tail_percentile": pct,
    }


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """Latency with exactly ten samples above it, and its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qrd" / "__init__.py").is_file():
        print("error: run from the repository root; src/qrd is missing", file=sys.stderr)
        return 2
    pin_threads()
    # the host-speed reference and every timed operation, CLI children
    # included, run on one CPU, so the reference sees the speed they see
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(root / "src"))

    reference_s()  # first call loads LAPACK
    w, wall_s, setup_s = setup(args.workload, args.seed, root)
    if args.setup_only:
        w.cleanup()
        print(json.dumps({"setup_s": setup_s, "wall_s": wall_s}))
        return 0
    try:
        return measure(args, root, w, (wall_s, setup_s))
    finally:
        w.cleanup()


def measure(args, root: Path, w, first_setup: tuple[float, float]) -> int:
    import workloads

    passes = max(MIN_PASSES, round(args.seconds / workloads.PASS_SECONDS[w.name]))
    report = {
        "workload": w.name,
        "seed": args.seed,
        "inputs_digest": w.digest,
        "jobs_per_pass": len(w.jobs),
        "passes": passes,
    }
    if args.trace:
        import layers

        _, plain, plain_passes, plain_failures = run_jobs(w.jobs, passes, Tracer(False))
        tr = Tracer(True)
        _, traced, passes_s, failures = run_jobs(w.jobs, passes, tr)
        overhead = sum(map(sum, traced)) / sum(map(sum, plain)) - 1.0
        metrics = layers.workload_layer_metrics(tr)
        metrics["bench.trace_overhead_pct"] = metric(100.0 * overhead, "%")
        metrics.update(layers.measure_layers(args.seed, root, root / WORK_DIR, tr))
        report["untraced_pass_s"] = plain_passes
        report["traced_pass_s"] = passes_s
        failures = plain_failures + failures
        attempted = 2 * passes * len(w.jobs)
        spans = root / WORK_DIR / f"spans-{w.name}-seed{args.seed}.jsonl"
        tr.write(spans)
        report["spans_file"] = os.path.relpath(spans, root)
    else:
        setups = [first_setup] + [child_setup(args, root) for _ in range(SETUP_CHILDREN)]
        walls, corrected, passes_s, failures = run_jobs(w.jobs, passes, Tracer(False))
        attempted = passes * len(w.jobs)
        stats = latency_stats(corrected)
        metrics = {
            "setup_s": metric(statistics.median(c for _, c in setups), "s"),
            "ops_per_s": metric(stats["ops_per_s"], "1/ref-s"),
            "latency_p50_ms": metric(stats["latency_p50_ms"], "ref-ms"),
            "latency_tail_ms": metric(stats["latency_tail_ms"], "ref-ms"),
            "success_rate": metric((attempted - len(failures)) / attempted, "ratio"),
        }
        report.update(
            setup_wall_s=[wall for wall, _ in setups],
            pass_s=passes_s,
            latency_samples=attempted,
            latency_tail_percentile=stats["tail_percentile"],
            host_slowdown=sum(map(sum, walls)) / sum(map(sum, corrected)),
            wall=latency_stats(walls),
        )
    unexpected = [f for f in failures if not f[1].known_defect]
    report.update(w.report())
    report["error_rate"] = len(failures) / attempted
    report["failures"] = [
        {"op": k, "job": job.name, "known_defect": job.known_defect, "detail": msg}
        for k, job, msg in failures[:20]
    ]
    report["env"] = environment(root)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
