"""scripts/job_times.py on canned harness rows: its table, p50 marks, failure
exit and one-CPU pin, and the settings it and scripts/bench_record.py take
from BENCHMARK.json."""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import bench_record  # noqa: E402
import job_times  # noqa: E402


def test_p50_jobs_are_the_ones_that_set_the_median():
    odd = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert job_times.p50_jobs(odd) == [4]  # 3.0
    even = [0.7, 0.1, 0.5, 0.3, 0.9, 0.2]
    assert job_times.p50_jobs(even) == [3, 2]  # 0.3 and 0.5
    for means in (odd, even, [2.0], [1.0, 1.0, 1.0, 1.0]):
        picked = [means[k] for k in job_times.p50_jobs(means)]
        assert statistics.fmean(picked) == statistics.median(means)


def test_table_marks_the_p50_jobs_and_shares():
    table = job_times.format_table(["a", "b", "c", "d"], [4e-6, 1e-6, 3e-6, 2e-6]).splitlines()
    marked = [line.split()[1] for line in table[1:-1] if line.endswith("p50")]
    assert marked == ["c", "d"]
    assert table[1].split()[3] == "40.0%"


def test_harness_scripts_follow_benchmark_json(tmp_path, monkeypatch):
    """Another workload set and run length in BENCHMARK.json reach every harness call."""
    bench = {"command": ["python3", "bench/main.py"], "run_seconds": 3,
             "workloads": [{"name": "alpha"}, {"name": "beta"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench), encoding="utf-8")
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append(cmd)
        result = {"failed": 0, "metrics": {"ops_per_s": {"unit": "1/ref-s", "value": 1.0}}}
        stdout = json.dumps({"report": {"env": {}}}) + "\n" + json.dumps(result)
        return subprocess.CompletedProcess(cmd, 0, "1 passed" if "pytest" in cmd else stdout, "")

    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.chdir(tmp_path)
    assert bench_record.main(["--out", "record.json"]) == 0
    opts = [dict(zip(cmd[2::2], cmd[3::2])) for cmd in calls if cmd[1] == "bench/main.py"]
    assert [o["--workload"] for o in opts] == ["alpha"] * 11 + ["beta"] * 11
    assert {o["--seconds"] for o in opts} == {"3"}
    record = json.loads((tmp_path / "record.json").read_text(encoding="utf-8"))
    assert list(record["workloads"]) == ["alpha", "beta"] and record["seconds"] == 3

    monkeypatch.setattr(job_times, "ROOT", tmp_path)
    # past the choices, the script stops at the missing qrd package under --src
    for name in ("alpha", "beta"):
        assert job_times.main(["--workload", name, "--seed", "1", "--src", str(tmp_path)]) == 2
    with pytest.raises(SystemExit):
        job_times.main(["--workload", "optimize", "--seed", "1", "--src", str(tmp_path)])


#: two passes of four jobs: corrected means 2, 4, 5, 6 us; wall means 9, 1, 2, 3 us
CORRECTED = [[1e-6, 6e-6, 3e-6, 8e-6], [3e-6, 2e-6, 7e-6, 4e-6]]
WALLS = [[9e-6, 1e-6, 2e-6, 3e-6]] * 2


def canned_harness(monkeypatch, failures=()):
    """Replace the harness's set-up and pass loop by canned rows; returns the calls made."""
    calls = []
    jobs = [SimpleNamespace(name=name) for name in ("a", "b", "c", "d")]
    work = SimpleNamespace(jobs=jobs, cleanup=lambda: calls.append("cleanup"))

    def run_jobs(got, passes, tracer):
        calls.append(("run_jobs", passes))
        assert got is jobs
        return WALLS, CORRECTED, [0.1] * passes, [(op, jobs[op % 4], msg) for op, msg in failures]

    harness = job_times.run
    monkeypatch.setattr(harness, "pin_threads", lambda: calls.append("pin_threads"))
    monkeypatch.setattr(harness, "reference_s", lambda: calls.append("reference_s"))
    monkeypatch.setattr(harness, "setup", lambda *a: calls.append(("setup",) + a) or (work, 0.5, 0.25))
    monkeypatch.setattr(harness, "run_jobs", run_jobs)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append(("affinity", pid, cpus)))
    monkeypatch.setattr(sys, "path", list(sys.path))
    return calls


def test_rows_are_the_harness_corrected_means_in_us(monkeypatch, capsys):
    canned_harness(monkeypatch)
    assert job_times.main(["--workload", "optimize", "--seed", "3", "--passes", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[1:5]]
    means = [statistics.fmean(column) for column in zip(*CORRECTED)]
    assert [float(row[2]) for row in rows] == pytest.approx([1e6 * m for m in means])
    assert [row[1] for row in rows if row[-1] == "p50"] == ["b", "c"]  # 4 and 5 us, not the wall's c, d
    assert lines[5] == "pass 0.017 ref-ms; median of the job means 4.5 ref-us"
    assert lines[6] == "wall pass 0.015 ms; host slowdown 0.882; set-up 0.250 s (0.500 s wall)"


def test_harness_steps_run_in_order_on_one_cpu(monkeypatch):
    calls = canned_harness(monkeypatch)
    assert job_times.main(["--workload", "zlimit", "--seed", "3", "--passes", "2"]) == 0
    pin, (affinity, pid, cpus), reference = calls[:3]
    assert (pin, affinity, pid, reference) == ("pin_threads", "affinity", 0, "reference_s")
    assert len(cpus) == 1 and cpus <= os.sched_getaffinity(0)
    root = Path(job_times.__file__).resolve().parents[1]
    assert calls[3:] == [("setup", "zlimit", 3, root), ("run_jobs", 2), "cleanup"]


def test_a_failed_check_names_the_job_and_exits_nonzero(monkeypatch, capsys):
    canned_harness(monkeypatch, failures=[(5, "value off")])
    assert job_times.main(["--workload", "spectral", "--seed", "1"]) != 0
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.strip() == "job 1 (b) failed its check: value off"
