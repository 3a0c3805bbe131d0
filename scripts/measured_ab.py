#!/usr/bin/env python3
"""Qubit measured and test-measured values of a parent revision against the working tree.

    python3 scripts/measured_ab.py --parent REV

Run from the repository root.  REV is exported with ``git archive`` into
a temporary directory, as scripts/bench_ab.py does.  This script then
runs itself once per tree, with that tree's ``src`` on PYTHONPATH, and
the run computes measured_renyi_lower and test_measured on a fixed,
seeded set of invertible-sigma qubit pairs: rho full-rank, pure,
near-pure ((1 - 1e-6) psi psi^dag + 5e-7 I) or of trace 1e-3, against a
random sigma or one with an eigenvalue from 1e-6 to 1e-10, at each
alpha of ALPHAS.  Each value is recorded with its call's wall time and
the value of rho's eigenbasis measurement on the same pair, its weights
taken as apply_povm takes them.  The script prints, per function, class
and alpha, the worst fall and the worst rise of the change against the
parent relative to max(1, |D|) and how many of the change's values lie
below rho's eigenbasis value; then each function's median time per call
on each side, and each side's wall time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_ab import export  # noqa: E402

ALPHAS = (0.05, 0.2, 0.4, 0.6, 0.9, 1.0, 1.5, 2.0, 4.0, 10.0)
RHO_KINDS = ("full", "pure", "nearpure", "trace")
SIGMA_KINDS = ("random", "ill")
#: pairs per (rho kind, sigma kind) class, and the seed of the generator they come from
PAIRS = 30
SEED = 20261019


def pairs():
    """(class, index, rho, sigma) for every pair of the fixed set, as arrays."""
    import numpy as np

    from qrd.verify import rand_density, rand_pure

    rng = np.random.default_rng(SEED)
    out = []
    for i in range(PAIRS):
        for s_kind in SIGMA_KINDS:
            if s_kind == "random":
                sigma = rand_density(rng, 2).entries
            else:
                u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
                small = 10.0 ** -(6 + i % 5)
                sigma = (u * [small, 1.0 - small]) @ u.conj().T
            psi = rand_pure(rng, 2).entries
            rhos = {
                "full": rand_density(rng, 2).entries,
                "pure": psi,
                "nearpure": (1.0 - 1e-6) * psi + 5e-7 * np.eye(2),
                "trace": 1e-3 * rand_density(rng, 2).entries,
            }
            out += [(f"{r_kind}/{s_kind}", i, rhos[r_kind], sigma) for r_kind in RHO_KINDS]
    return out


def compute_rows() -> dict:
    """Every value of the fixed set with the running tree's qrd, its time, and the wall time."""
    from qrd import measured, opcore

    rows, start = [], time.perf_counter()
    for cls, i, rho, sigma in pairs():
        basis = measured._povm(measured._projective(opcore._checked_pair(rho, sigma).rho_cut[1]))
        p, q = (measured.apply_povm(basis, m).values for m in (rho, sigma))
        for alpha in ALPHAS:
            rho_basis = float(measured._binary_values(p, q, alpha))
            for fn in (measured.measured_renyi_lower, measured.test_measured):
                t0 = time.perf_counter()
                value = fn(rho, sigma, alpha).value
                rows.append({
                    "fn": fn.__name__, "cls": cls, "i": i, "alpha": alpha, "value": value,
                    "rho_basis": rho_basis, "us": 1e6 * (time.perf_counter() - t0),
                })
    return {"rows": rows, "wall_s": time.perf_counter() - start}


def relative_move(old: float, new: float) -> float:
    """(new - old) / max(1, |old|); 0 between equal values, +-inf against an infinity."""
    if new == old:
        return 0.0
    if math.isinf(old) or math.isinf(new):
        return math.copysign(math.inf, new - old)
    return (new - old) / max(1.0, abs(old))


def summary(parent: list[dict], change: list[dict]) -> list[dict]:
    """Per (fn, cls, alpha): the worst fall and rise of change against parent, in row order.

    Rows pair up by (fn, cls, i, alpha).  fall is the largest relative
    decrease (0 when none), rise the largest increase; below counts the
    change's values under its rho_basis value by more than 1e-12 max(1, |D|).
    """
    old = {(r["fn"], r["cls"], r["i"], r["alpha"]): r["value"] for r in parent}
    groups: dict[tuple, dict] = {}
    for r in change:
        key = (r["fn"], r["cls"], r["alpha"])
        g = groups.setdefault(key, {"fn": key[0], "cls": key[1], "alpha": key[2],
                                    "fall": 0.0, "rise": 0.0, "below": 0, "n": 0})
        move = relative_move(old[(r["fn"], r["cls"], r["i"], r["alpha"])], r["value"])
        g["fall"], g["rise"] = max(g["fall"], -move), max(g["rise"], move)
        g["below"] += relative_move(r["rho_basis"], r["value"]) < -1e-12
        g["n"] += 1
    return list(groups.values())


def call_medians(sides: dict[str, list[dict]]) -> dict[str, dict[str, float]]:
    """Per function, each side's median time per call (us), from the rows' us fields."""
    return {
        fn: {side: statistics.median(r["us"] for r in rows if r["fn"] == fn)
             for side, rows in sides.items()}
        for fn in dict.fromkeys(r["fn"] for rows in sides.values() for r in rows)
    }


def format_summary(rows: list[dict], wall: dict[str, float],
                   per_call: dict[str, dict[str, float]]) -> str:
    lines = [f"{'fn':<21} {'class':<16} {'alpha':>6} {'worst fall':>11} {'worst rise':>11} "
             f"{'below rho basis':>16}"]
    for g in rows:
        lines.append(f"{g['fn']:<21} {g['cls']:<16} {g['alpha']:>6g} {g['fall']:>11.2e} "
                     f"{g['rise']:>11.2e} {g['below']:>12}/{g['n']}")
    for fn, sides in per_call.items():
        lines.append(f"median per call, {fn}: "
                     + ", ".join(f"{side} {us:.0f} us" for side, us in sides.items()))
    lines.append("wall time: " + ", ".join(f"{side} {s:.2f} s" for side, s in wall.items()))
    return "\n".join(lines)


def run_tree(tree: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    out = subprocess.run([sys.executable, __file__, "--rows"], env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", help="git revision to compare against")
    p.add_argument("--rows", action="store_true",
                   help="print the values of the qrd on PYTHONPATH as JSON and exit")
    args = p.parse_args(argv)
    if args.rows:
        print(json.dumps(compute_rows()))
        return 0
    if not args.parent:
        p.error("--parent is required")
    with tempfile.TemporaryDirectory(prefix="measured_ab_") as tmp:
        export(args.parent, Path(tmp))
        results = {"parent": run_tree(Path(tmp)), "change": run_tree(Path.cwd())}
    rows = summary(results["parent"]["rows"], results["change"]["rows"])
    per_call = call_medians({side: r["rows"] for side, r in results.items()})
    print(format_summary(rows, {side: r["wall_s"] for side, r in results.items()}, per_call))
    return 0


if __name__ == "__main__":
    sys.exit(main())
