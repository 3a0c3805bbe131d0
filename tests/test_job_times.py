"""The p50 selection of scripts/job_times.py, on canned job means."""

import importlib.util
import statistics
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "job_times.py"
spec = importlib.util.spec_from_file_location("job_times", SCRIPT)
job_times = importlib.util.module_from_spec(spec)
spec.loader.exec_module(job_times)


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
