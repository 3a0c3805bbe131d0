"""The p50 selection of scripts/job_times.py, on canned job means, and the
settings it and scripts/bench_record.py take from BENCHMARK.json."""

import json
import statistics
import subprocess
import sys
from pathlib import Path

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


def test_the_host_speed_reference_runs_before_every_timed_job():
    """As in the harness's pass loop: reference, job, reference, job, ... and only the jobs are timed."""
    events = []

    class Job:
        expect = ()

        def __init__(self, name):
            self.name = name

        def call(self, tracer):
            events.append(self.name)
            return self.name

        def check(self, result):
            return None

    jobs = [Job("a"), Job("b"), Job("c")]
    means = job_times.job_means(jobs, 2, None, lambda: events.append("reference"))
    assert events == ["reference", "a", "reference", "b", "reference", "c"] * 2
    assert len(means) == 3 and all(m >= 0.0 for m in means)
