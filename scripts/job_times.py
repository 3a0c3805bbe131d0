#!/usr/bin/env python3
"""In-process mean latency of each job of one benchmark workload.

    python3 scripts/job_times.py --workload W --seed S [--passes 5] [--src DIR]

Run from the repository root; the workload is one of BENCHMARK.json's.
The job list is built by perfbench/workloads.py, which is imported and
not changed, with qrd imported from DIR (default ./src), so ``--src``
times another tree's library on the same jobs.  BLAS is pinned to one
thread as in the harness.  After the warm-up the script runs the whole
job list ``--passes`` times, each call timed by perf_counter around the
job, the output check outside it, and prints one row per job: its
index, name, mean latency in microseconds and share of a pass.  As in
perfbench/run.py, the host-speed reference computation
(hostspeed.reference_s) runs, untimed, before every job, so each job
meets the caches the harness leaves it and its mean replicates the
harness's cost of the job, not its warm cost in a tight loop.  The
rows marked ``p50`` are the jobs whose means set the median of the
per-job means, which is how the harness's latency_p50_ms reads them: one
job for an odd count, the two middle ones for an even count.  The
timings are wall-clock seconds, not the harness's reference-speed units.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def p50_jobs(means: list[float]) -> list[int]:
    """Indices of the jobs whose means set statistics.median(means), in rank order."""
    ranked = sorted(range(len(means)), key=lambda i: means[i])
    mid = len(ranked) // 2
    return ranked[mid : mid + 1] if len(ranked) % 2 else ranked[mid - 1 : mid + 1]


def job_means(jobs, passes: int, tracer, reference) -> list[float]:
    """Mean seconds per call of each job over whole passes of the list, reference() run before each."""
    totals = [0.0] * len(jobs)
    for _ in range(passes):
        for k, job in enumerate(jobs):
            reference()
            t0 = perf_counter()
            try:
                result = job.call(tracer)
            except job.expect as exc:
                result = exc
            totals[k] += perf_counter() - t0
            error = job.check(result)
            if error is not None:
                raise RuntimeError(f"job {k} ({job.name}) failed its check: {error}")
    return [t / passes for t in totals]


def format_table(names: list[str], means: list[float]) -> str:
    total, marked = sum(means), set(p50_jobs(means))
    lines = [f"{'job':>4} {'name':<36} {'mean_us':>12} {'share':>7}"]
    for k, (name, mean) in enumerate(zip(names, means)):
        flag = "  p50" if k in marked else ""
        lines.append(f"{k:>4} {name:<36} {1e6 * mean:>12.1f} {100.0 * mean / total:>6.1f}%{flag}")
    lines.append(f"pass {1e3 * total:.3f} ms; median of the job means {1e6 * statistics.median(means):.1f} us")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes", type=int, default=5)
    p.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the qrd package")
    args = p.parse_args(argv)
    src = args.src.resolve()
    if not (src / "qrd" / "__init__.py").is_file():
        print(f"error: no qrd package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(PERFBENCH), str(src)]
    from envinfo import pin_threads

    pin_threads()
    import workloads
    from hostspeed import reference_s
    from tracing import Tracer

    tracer = Tracer(False)
    with tempfile.TemporaryDirectory(prefix="job_times_") as tmp:
        w = workloads.build(args.workload, args.seed, src.parent, Path(tmp))
        try:
            for job in w.warmup:
                job.call(tracer)
            means = job_means(w.jobs, args.passes, tracer, reference_s)
        finally:
            w.cleanup()
    print(format_table([job.name for job in w.jobs], means))
    return 0


if __name__ == "__main__":
    sys.exit(main())
