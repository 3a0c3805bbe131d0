"""The summary code of scripts/measured_ab.py, on canned value rows."""

import importlib.util
import math
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "measured_ab.py"
spec = importlib.util.spec_from_file_location("measured_ab", SCRIPT)
measured_ab = importlib.util.module_from_spec(spec)
sys.path.insert(0, str(SCRIPT.parent))  # it imports bench_ab's export
spec.loader.exec_module(measured_ab)


def row(fn, cls, i, alpha, value, rho_basis=-math.inf, us=100.0):
    return {"fn": fn, "cls": cls, "i": i, "alpha": alpha, "value": value, "rho_basis": rho_basis,
            "us": us}


def test_relative_move_is_scaled_by_the_larger_of_one_and_the_parent_value():
    assert measured_ab.relative_move(0.5, 0.25) == -0.25
    assert measured_ab.relative_move(20.0, 20.5) == 0.025
    assert measured_ab.relative_move(math.inf, math.inf) == 0.0
    assert measured_ab.relative_move(1.0, math.inf) == math.inf
    assert measured_ab.relative_move(math.inf, 1.0) == -math.inf


def test_summary_reports_worst_fall_rise_and_values_below_rho_basis():
    parent = [
        row("measured_renyi_lower", "pure/ill", 0, 0.05, 1.0),
        row("measured_renyi_lower", "pure/ill", 1, 0.05, 2.0),
        row("measured_renyi_lower", "pure/ill", 2, 0.05, 40.0),
        row("test_measured", "full/random", 0, 1.5, 0.3),
    ]
    change = [
        row("measured_renyi_lower", "pure/ill", 0, 0.05, 0.99, rho_basis=0.995),
        row("measured_renyi_lower", "pure/ill", 1, 0.05, 2.5, rho_basis=2.5),
        row("measured_renyi_lower", "pure/ill", 2, 0.05, 39.0, rho_basis=38.0),
        row("test_measured", "full/random", 0, 1.5, 0.3),
    ]
    groups = measured_ab.summary(parent, change)
    assert [(g["fn"], g["cls"], g["alpha"]) for g in groups] == [
        ("measured_renyi_lower", "pure/ill", 0.05),
        ("test_measured", "full/random", 1.5),
    ]
    dust, flat = groups
    # falls 0.01 / 1 and 1 / 40, a rise of 0.5 / 2; one value below its rho basis
    assert abs(dust["fall"] - 0.025) < 1e-15 and abs(dust["rise"] - 0.25) < 1e-15
    assert dust["below"] == 1 and dust["n"] == 3
    assert flat["fall"] == flat["rise"] == 0.0 and flat["below"] == 0
    table = measured_ab.format_summary(groups, {"parent": 2.0, "change": 0.5}, {})
    assert table.count("\n") == 3 and "1/3" in table
    assert table.endswith("wall time: parent 2.00 s, change 0.50 s")


def test_call_medians_are_per_function_and_side():
    parent = [row("measured_renyi_lower", "pure/ill", i, 0.05, 1.0, us=us)
              for i, us in enumerate([300.0, 500.0, 400.0])]
    parent.append(row("test_measured", "pure/ill", 0, 0.05, 1.0, us=250.0))
    change = [row("measured_renyi_lower", "pure/ill", i, 0.05, 1.0, us=us)
              for i, us in enumerate([200.0, 260.0])]
    change.append(row("test_measured", "pure/ill", 0, 0.05, 1.0, us=180.0))
    per_call = measured_ab.call_medians({"parent": parent, "change": change})
    assert per_call == {
        "measured_renyi_lower": {"parent": 400.0, "change": 230.0},
        "test_measured": {"parent": 250.0, "change": 180.0},
    }
    table = measured_ab.format_summary([], {"parent": 2.0, "change": 0.5}, per_call)
    assert table.splitlines()[1:3] == [
        "median per call, measured_renyi_lower: parent 400 us, change 230 us",
        "median per call, test_measured: parent 250 us, change 180 us",
    ]


def test_compute_rows_runs_both_functions_on_every_class_and_alpha(monkeypatch):
    """One pair per class: 8 pairs, each alpha, both functions; none below rho's eigenbasis."""
    monkeypatch.setattr(measured_ab, "PAIRS", 1)
    rows = measured_ab.compute_rows()["rows"]
    assert len(rows) == 8 * len(measured_ab.ALPHAS) * 2
    groups = measured_ab.summary(rows, rows)
    assert len(groups) == 8 * len(measured_ab.ALPHAS) * 2
    assert all(g["fall"] == g["rise"] == 0.0 and g["below"] == 0 for g in groups)
