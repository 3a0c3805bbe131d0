"""Self-check: every metric named in BENCHMARK.json is emitted with its unit.

Run from the repository root:

    python3 perfbench/selfcheck.py            # all workloads, a few minutes
    python3 perfbench/selfcheck.py spectral   # a subset

For each workload it makes a two-pass run (``--seconds 1``) with
``--trace 0`` and with ``--trace 1`` and checks the result line against
BENCHMARK.json.  It also checks that the benchmark refuses to run,
without printing a result, in a directory that holds only the benchmark
files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_result(line: str, expected: dict[str, str]) -> list[str]:
    problems = []
    result = json.loads(line)
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted = {result.get('attempted')!r}")
    if not isinstance(result.get("failed"), int):
        problems.append(f"failed = {result.get('failed')!r}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    metrics = result.get("metrics", {})
    for name in sorted(set(expected) | set(metrics)):
        if name not in metrics:
            problems.append(f"{name}: missing")
        elif name not in expected:
            problems.append(f"{name}: not declared in BENCHMARK.json")
        elif metrics[name].get("unit") != expected[name]:
            problems.append(f"{name}: unit {metrics[name].get('unit')!r}, declared {expected[name]!r}")
        elif not (isinstance(metrics[name].get("value"), (int, float))
                  and math.isfinite(metrics[name]["value"])):
            problems.append(f"{name}: value {metrics[name].get('value')!r}")
    return problems


def run(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main(argv: list[str]) -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = argv or [w["name"] for w in spec["workloads"]]
    failures = 0
    for name in names:
        for trace in (0, 1):
            proc = run(spec["command"] + ["--workload", name, "--seed", "1",
                                          "--seconds", "1", "--trace", str(trace)], root)
            lines = proc.stdout.strip().splitlines()
            problems = [f"exit code {proc.returncode}: {proc.stderr[-500:]}"] if proc.returncode else []
            if not problems:
                problems = check_result(lines[-1], declared[trace])
            failures += bool(problems)
            print(f"{name} --trace {trace}: {'ok' if not problems else 'FAIL'}")
            for p in problems:
                print(f"  {p}")

    scratch = root / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch, prefix="bare-") as tmp:
        shutil.copy(root / "BENCHMARK.json", tmp)
        for path in spec["paths"]:
            shutil.copytree(root / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(spec["command"] + ["--workload", names[0], "--seed", "1",
                                      "--seconds", "1", "--trace", "0"], Path(tmp))
        bare_ok = proc.returncode != 0 and not proc.stdout.strip()
        failures += not bare_ok
        print(f"refuses without the library: {'ok' if bare_ok else 'FAIL'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
