"""Import cost: scipy.optimize and mpmath load only where they are called."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.optimize", "mpmath")

# runs in a fresh interpreter, so modules loaded by other tests do not count
CHILD = f"""
import json, sys
import qrd
from qrd import lab
after_import = [m for m in {HEAVY!r} if m in sys.modules]
code = lab.main(sys.argv[1:])
after_main = [m for m in {HEAVY!r} if m in sys.modules]
print(json.dumps({{"code": code, "after_import": after_import, "after_main": after_main}}))
"""


def run_fresh(*argv):
    """Run qrd.lab.main(argv) in a new interpreter: (record, report)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    *_, record, report = proc.stdout.splitlines()
    return json.loads(record), json.loads(report)


def test_import_and_closed_form_eval_load_no_heavy_module():
    record, report = run_fresh("eval", "--kind", "dmax", "--family", "pure:c=1,eps=1e-6")
    assert report == {"code": 0, "after_import": [], "after_main": []}
    assert record["value"] == pytest.approx(math.log(2.0), rel=1e-12)


def test_test_kind_loads_no_heavy_module():
    record, report = run_fresh(
        "eval", "--kind", "test", "--alpha", "1.5", "--seed", "3",
        "--family", "pure:c=1,eps=0.3",
    )
    assert report == {"code": 0, "after_import": [], "after_main": []}
    assert math.isfinite(record["value"]) and record["value"] > 0.0


def test_measured_kind_imports_the_optimizer_on_first_use():
    record, report = run_fresh(
        "eval", "--kind", "measured", "--alpha", "1.5", "--seed", "3",
        "--family", "pure:c=1,eps=0.3",
    )
    assert report == {"code": 0, "after_import": [], "after_main": ["scipy.optimize"]}
    assert math.isfinite(record["value"]) and record["value"] > 0.0


def test_measured_kind_below_half_loads_no_heavy_module():
    # the rank-one POVM ascent and its Neyman-Pearson seed need no scipy
    record, report = run_fresh(
        "eval", "--kind", "measured", "--alpha", "0.3", "--seed", "3",
        "--family", "pure:c=1,eps=0.3",
    )
    assert report == {"code": 0, "after_import": [], "after_main": []}
    assert math.isfinite(record["value"]) and record["value"] > 0.0


def test_channel_ascent_loads_no_heavy_module(tmp_path):
    from qrd.channels import depolarizing_channel, identity_channel
    from qrd.serialize import dump_channel

    n1, n2 = tmp_path / "id.json", tmp_path / "dep.json"
    dump_channel(identity_channel(2), n1)
    dump_channel(depolarizing_channel(0.2), n2)
    record, report = run_fresh(
        "channel", "--n1", str(n1), "--n2", str(n2), "--kind", "sandwiched",
        "--alpha-grid", "1.5", "--seed", "3", "--restarts", "3",
    )
    assert report == {"code": 0, "after_import": [], "after_main": []}
    assert record["domination_ok"] and math.isfinite(record["records"][0]["value"])
