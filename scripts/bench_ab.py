#!/usr/bin/env python3
"""Alternating A/B benchmark runs of a parent revision against the working tree.

    python3 scripts/bench_ab.py --parent REV --workload W --pairs 10

Run from the repository root.  REV is exported with ``git archive`` into
a temporary directory.  Pair k (k = 1..pairs) runs the harness command of
BENCHMARK.json at ``--trace 0`` on seed k, for BENCHMARK.json's
run_seconds, once from the exported tree and once from the working tree;
the parent goes first in odd pairs and the change in even ones, so a
drift of the host's speed does not favour one side.  The script prints
every run's end-to-end metrics, then per metric each side's median and
quartiles (statistics.quantiles' inclusive ones), the relative change of
the medians, and the pairs the change won, with the direction of
BENCHMARK.json's ``better``.  A tie is not a win.  It reads only
BENCHMARK.json and what the harness prints.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def result_metrics(stdout: str) -> dict[str, float]:
    """The end-to-end metric values of one harness run, from its last stdout line."""
    result = json.loads(stdout.strip().splitlines()[-1])
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def order(k: int) -> tuple[str, str]:
    """The sides of pair k (from 1) in running order: the parent first in odd pairs."""
    return SIDES if k % 2 else SIDES[::-1]


def quartiles(values: list[float]) -> dict:
    """median, q1 and q3 of values: statistics.quantiles' inclusive ones, or the one value."""
    if len(values) == 1:
        return dict.fromkeys(("median", "q1", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def won(parent: float, change: float, better: str) -> bool:
    return change > parent if better == "higher" else change < parent


def summary(runs: list[dict[str, dict[str, float]]], metrics: list[dict]) -> list[dict]:
    """Per end-to-end metric: each side's median and quartiles, and the pairs the change won.

    runs holds one {side: {metric: value}} per pair; metrics is
    BENCHMARK.json's end_to_end list.  Metrics no run reports are left out.
    """
    rows = []
    for m in metrics:
        name = m["name"]
        pairs = [(r["parent"][name], r["change"][name]) for r in runs if name in r["parent"]]
        if not pairs:
            continue
        row = {"name": name, "unit": m["unit"], "better": m["better"], "pairs": len(pairs)}
        for side, values in zip(SIDES, zip(*pairs)):
            row[side] = quartiles(list(values))
        base = row["parent"]["median"]
        row["change_pct"] = 100.0 * (row["change"]["median"] - base) / base if base else None
        row["wins"] = sum(won(p, c, m["better"]) for p, c in pairs)
        rows.append(row)
    return rows


def format_summary(rows: list[dict]) -> str:
    lines = [
        f"{'metric':<16} {'unit':<8} {'better':<6} {'parent median [q1, q3]':<32} "
        f"{'change median [q1, q3]':<32} {'change':>8} {'wins':>6}"
    ]
    for row in rows:
        cells = [
            f"{row[side]['median']:.4g} [{row[side]['q1']:.4g}, {row[side]['q3']:.4g}]"
            for side in SIDES
        ]
        pct = "n/a" if row["change_pct"] is None else f"{row['change_pct']:+.1f}%"
        lines.append(
            f"{row['name']:<16} {row['unit']:<8} {row['better']:<6} {cells[0]:<32} "
            f"{cells[1]:<32} {pct:>8} {row['wins']:>3}/{row['pairs']}"
        )
    return "\n".join(lines)


def export(rev: str, dest: Path) -> None:
    """Extract the tree of rev into dest with git archive."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(data.stdout)) as tar:
        tar.extractall(dest, filter="data")


def harness(tree: Path, bench: dict, workload: str, seed: int, trace: int) -> tuple[str, str]:
    """(report line, result line) of one run of BENCHMARK.json's command in tree.

    bench is BENCHMARK.json's content; the run lasts its run_seconds.
    """
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    if cmd[0] in ("python", "python3"):
        cmd[0] = sys.executable
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    *_, report, result = out.stdout.strip().splitlines()
    return report, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    p.add_argument("--pairs", type=int, default=10, help="alternating pairs, on seeds 1..pairs")
    args = p.parse_args(argv)
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as tmp:
        trees = {"parent": Path(tmp), "change": root}
        export(args.parent, trees["parent"])
        for k in range(1, args.pairs + 1):
            pair = {}
            for side in order(k):
                _, result = harness(trees[side], bench, args.workload, k, 0)
                pair[side] = result_metrics(result)
                values = " ".join(f"{n}={v:.6g}" for n, v in sorted(pair[side].items()))
                print(f"pair {k} seed {k} {side}: {values}", flush=True)
            runs.append(pair)
    print(format_summary(summary(runs, bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
