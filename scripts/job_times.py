#!/usr/bin/env python3
"""Mean corrected latency of each job of one benchmark workload, in the harness's units.

    python3 scripts/job_times.py --workload W --seed S [--passes 5] [--src DIR]

Run from the repository root; the workload is one of BENCHMARK.json's.
The timing is the harness's own code from perfbench/run.py, imported and
not changed, with qrd imported from DIR (default ./src), so ``--src``
times another tree's library on the same jobs.  As run.main does, the
script pins BLAS to one thread and the process to one CPU and runs the
host-speed reference once; run.setup builds and warms the workload (the
cli workload's input files go to the tree's .perfbench_out) and
run.run_jobs times ``--passes`` whole passes of the job list and checks
every output.  A failed check prints the job and exits 1.  Otherwise the
script prints one row per job: its index, name, mean corrected latency in
ref-µs (latency_p50_ms's unit, scaled to µs) and share of a pass.  The
rows marked ``p50`` are the jobs whose means set the median of the
per-job means, which is how the harness's latency_p50_ms reads them: one
job for an odd count, the two middle ones for an even count.  The footer
gives the pass total in ref-ms and in wall ms, the host slowdown (wall
over corrected, as on the harness's report line) and the set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402


def p50_jobs(means: list[float]) -> list[int]:
    """Indices of the jobs whose means set statistics.median(means), in rank order."""
    ranked = sorted(range(len(means)), key=lambda i: means[i])
    mid = len(ranked) // 2
    return ranked[mid : mid + 1] if len(ranked) % 2 else ranked[mid - 1 : mid + 1]


def format_table(names: list[str], means: list[float]) -> str:
    total, marked = sum(means), set(p50_jobs(means))
    lines = [f"{'job':>4} {'name':<36} {'mean_ref_us':>12} {'share':>7}"]
    for k, (name, mean) in enumerate(zip(names, means)):
        flag = "  p50" if k in marked else ""
        lines.append(f"{k:>4} {name:<36} {1e6 * mean:>12.1f} {100.0 * mean / total:>6.1f}%{flag}")
    lines.append(f"pass {1e3 * total:.3f} ref-ms; median of the job means {1e6 * statistics.median(means):.1f} ref-us")
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
    sys.path.insert(0, str(src))
    run.pin_threads()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run.reference_s()  # first call loads LAPACK
    w, setup_wall, setup_s = run.setup(args.workload, args.seed, src.parent)
    try:
        walls, corrected, _, failures = run.run_jobs(w.jobs, args.passes, run.Tracer(False))
    finally:
        w.cleanup()
    for op, job, error in failures:
        print(f"job {op % len(w.jobs)} ({job.name}) failed its check: {error}", file=sys.stderr)
    if failures:
        return 1
    means = [statistics.fmean(column) for column in zip(*corrected)]
    wall, ref = sum(map(sum, walls)), sum(map(sum, corrected))
    print(format_table([job.name for job in w.jobs], means))
    print(f"wall pass {1e3 * wall / args.passes:.3f} ms; host slowdown {wall / ref:.3f}; "
          f"set-up {setup_s:.3f} s ({setup_wall:.3f} s wall)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
