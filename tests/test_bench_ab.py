"""The summary code of scripts/bench_ab.py, on canned harness result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_ab.py"
spec = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
bench_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_ab)

METRICS = [
    {"name": "ops_per_s", "unit": "1/ref-s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ref-ms", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def harness_stdout(ops, p50) -> str:
    """What perfbench/run.py --trace 0 prints: a report line, then the result line."""
    result = {
        "attempted": 10,
        "correct": True,
        "failed": 0,
        "metrics": {
            "ops_per_s": {"unit": "1/ref-s", "value": ops},
            "latency_p50_ms": {"unit": "ref-ms", "value": p50},
        },
    }
    return json.dumps({"report": {"workload": "spectral"}}) + "\n" + json.dumps(result) + "\n"


def test_result_metrics_reads_the_last_line():
    assert bench_ab.result_metrics(harness_stdout(2900.0, 0.07)) == {
        "ops_per_s": 2900.0,
        "latency_p50_ms": 0.07,
    }


def test_sides_alternate_from_pair_to_pair():
    assert [bench_ab.order(k)[0] for k in (1, 2, 3, 4)] == ["parent", "change"] * 2
    assert all(sorted(bench_ab.order(k)) == ["change", "parent"] for k in range(1, 5))


def test_summary_medians_quartiles_and_wins_follow_better():
    canned = [  # (parent ops, parent p50, change ops, change p50)
        (100.0, 1.0, 130.0, 0.9),
        (110.0, 1.1, 120.0, 1.2),
        (90.0, 0.9, 90.0, 0.8),
        (120.0, 1.2, 150.0, 1.0),
        (105.0, 1.0, 140.0, 0.95),
    ]
    runs = [
        {
            "parent": bench_ab.result_metrics(harness_stdout(po, pp)),
            "change": bench_ab.result_metrics(harness_stdout(co, cp)),
        }
        for po, pp, co, cp in canned
    ]
    rows = {row["name"]: row for row in bench_ab.summary(runs, METRICS)}
    assert set(rows) == {"ops_per_s", "latency_p50_ms"}  # setup_s is not reported
    ops = rows["ops_per_s"]
    assert ops["parent"] == {"median": 105.0, "q1": 100.0, "q3": 110.0}
    assert ops["change"] == {"median": 130.0, "q1": 120.0, "q3": 140.0}
    assert ops["wins"] == 4 and ops["pairs"] == 5  # the tie at 90 is not a win
    assert ops["change_pct"] == pytest.approx(100.0 * 25.0 / 105.0)
    p50 = rows["latency_p50_ms"]
    assert p50["wins"] == 4  # lower is better: only 1.1 -> 1.2 loses
    assert p50["parent"]["median"] == 1.0 and p50["change"]["median"] == 0.95
    table = bench_ab.format_summary(bench_ab.summary(runs, METRICS))
    assert "4/5" in table and "+23.8%" in table and table.count("\n") == 2
