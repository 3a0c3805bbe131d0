#!/usr/bin/env python3
"""Record one commit's benchmark numbers as a JSON file.

    python3 scripts/bench_record.py --out BENCH_<n>.json

Run from the repository root.  For each workload of BENCHMARK.json its
harness command runs unchanged for its run_seconds, once per seed 1-10
at --trace 0 and once at --trace 1 (seed 1); then the Tier-1 suite runs
with ``pytest --durations=5``.  The file holds the environment of the
harness's report line (machine, library versions, BLAS threads,
commit), the median and quartiles over the seeds of every end-to-end
metric with the per-run values, the per-layer metrics of the traced
run, and the Tier-1 wall time, test count and five slowest tests.
Quartiles are statistics.quantiles' inclusive ones.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_ab import harness, quartiles  # noqa: E402

SEEDS = list(range(1, 11))
#: a --durations line: "2.10s call     tests/test_x.py::test_y"
DURATION = re.compile(r"^(\d+\.\d+)s\s+(\w+)\s+(\S+)$")
SUMMARY = re.compile(r"(\d+) passed")


def workload_record(root: Path, bench: dict, workload: str) -> tuple[dict, dict]:
    """(record, env): end-to-end metrics over the seeds, per-layer metrics of one traced run."""
    runs, failed, env = {}, [], None
    for seed in SEEDS:
        report, result = map(json.loads, harness(root, bench, workload, seed, 0))
        env = env or report["report"]["env"]
        failed.append(result["failed"])
        for name, metric in result["metrics"].items():
            runs.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
    traced = json.loads(harness(root, bench, workload, SEEDS[0], 1)[1])
    record = {
        "seeds": SEEDS,
        "failed_ops": failed,
        "end_to_end": {name: {"unit": unit, **quartiles(vals), "runs": vals}
                       for name, (unit, vals) in runs.items()},
        "per_layer": traced["metrics"],
    }
    return record, env


def tier1(root: Path) -> dict:
    """Wall time, passed count and the five slowest tests of the Tier-1 suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider", "--durations=5"]
    t0 = perf_counter()
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, check=False)
    wall = perf_counter() - t0
    lines = out.stdout.splitlines()
    slowest = [
        {"seconds": float(m[1]), "phase": m[2], "test": m[3]}
        for m in (DURATION.match(line.strip()) for line in lines) if m
    ]
    passed = [int(m[1]) for m in (SUMMARY.search(line) for line in lines[-3:]) if m]
    return {"wall_s": wall, "exit_code": out.returncode, "passed": passed[-1] if passed else None,
            "slowest": slowest, "summary": lines[-1] if lines else ""}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "BENCHMARK.json").is_file():
        print("error: run from the repository root", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads, env = {}, None
    for w in bench["workloads"]:
        workloads[w["name"]], env = workload_record(root, bench, w["name"])
        print(f"{w['name']}: done", file=sys.stderr)
    record = {"env": env, "seconds": bench["run_seconds"], "workloads": workloads,
              "tier1": tier1(root)}
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
