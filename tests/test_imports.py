"""Import cost: each subcommand loads only the modules it runs.

No module of the package imports scipy, mpmath loads only where it is
called, ``import qrd`` loads no submodule, and a closed-form evaluation
loads none of the optimizers, the suites, the channel calculus or the
z -> 0 machinery.
"""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy", "scipy.optimize", "mpmath")

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


# the modules a closed-form evaluation or a sweep must not load
LAZY = (
    "qrd.verify", "qrd.measured", "qrd.channels", "qrd.reversetests", "qrd.families",
    "qrd.zlimits",
)

# prints main's exit code, then every qrd submodule and heavy module loaded
LOADED = f"""
import contextlib, io, json, sys
from qrd import lab
with contextlib.redirect_stdout(io.StringIO()):
    code = lab.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("qrd.") or m in {HEAVY!r})]))
"""


def fresh_stdout(child, *argv):
    """Run the child script in a new interpreter with src on the path: its stdout lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", child, *argv],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def run_fresh(*argv):
    """Run qrd.lab.main(argv) in a new interpreter: (record, report)."""
    *_, record, report = fresh_stdout(CHILD, *argv)
    return json.loads(record), json.loads(report)


def loaded_by(*argv):
    """(exit code, qrd submodules and heavy modules loaded) of qrd.lab.main(argv), run fresh."""
    code, loaded = json.loads(fresh_stdout(LOADED, *argv)[-1])
    return code, set(loaded)


@pytest.fixture
def state_files(tmp_path):
    from qrd.serialize import dump_matrix
    from qrd.verify import rand_density

    rng = np.random.default_rng(4)
    paths = tmp_path / "rho.json", tmp_path / "sigma.json"
    for path in paths:
        dump_matrix(rand_density(rng, 3, floor=0.05), path)
    return ["--rho", str(paths[0]), "--sigma", str(paths[1])]


def test_import_qrd_loads_no_submodule():
    [loaded] = fresh_stdout(
        "import sys, qrd; print(sorted(m for m in sys.modules if m.startswith('qrd.')))"
    )
    assert loaded == "[]"


def test_public_names_resolve_lazily():
    import qrd

    listed = dir(qrd)
    for name in qrd.__all__:
        assert name in listed
        assert getattr(qrd, name) is getattr(sys.modules[f"qrd.{qrd._HOME[name]}"], name)
    namespace = {}
    exec("from qrd import *", namespace)
    assert set(qrd.__all__) <= set(namespace)
    assert qrd.opcore is sys.modules["qrd.opcore"] and "lab" in listed
    with pytest.raises(AttributeError):
        qrd.no_such_name


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--kind", "daz", "--alpha", "1.5", "--z", "0.5"),
        ("eval", "--kind", "dmax"),
        ("eval", "--kind", "umegaki"),
        ("eval", "--kind", "dhat", "--alpha", "1.5"),
        ("eval", "--kind", "dinf", "--alpha", "0.7"),
        ("sweep", "--alpha-grid", "0.5:2:4", "--z-mode", "alpha"),
    ],
    ids=["daz", "dmax", "umegaki", "dhat", "dinf", "sweep"],
)
def test_closed_form_commands_load_only_the_divergence_layer(state_files, argv):
    code, loaded = loaded_by(*argv, *state_files)
    assert code == 0
    assert not loaded & set(LAZY + HEAVY), sorted(loaded)


def test_caratheodory_suite_loads_no_optimizer():
    code, loaded = loaded_by("verify", "--suite", "caratheodory", "--trials", "1", "--seed", "3")
    assert code == 0
    assert "qrd.reversetests" in loaded and "scipy.optimize" not in loaded


def test_import_and_closed_form_eval_load_no_heavy_module():
    record, report = run_fresh("eval", "--kind", "dmax", "--family", "pure:c=1,eps=1e-6")
    assert report == {"code": 0, "after_import": [], "after_main": []}
    assert record["value"] == pytest.approx(math.log(2.0), rel=1e-12)


def test_dzero_on_a_non_generic_pair_loads_no_mpmath(tmp_path):
    from qrd.opcore import HermitianOperator
    from qrd.serialize import dump_matrix

    # anti-aligned commuting pair: below alpha = 1 the closed form does not apply
    a = np.array([0.5, 0.3, 0.2])
    paths = tmp_path / "rho.json", tmp_path / "sigma.json"
    dump_matrix(HermitianOperator(np.diag(a)), paths[0])
    dump_matrix(HermitianOperator(np.diag(a[::-1])), paths[1])
    record, report = run_fresh(
        "eval", "--kind", "dzero", "--alpha", "0.6", "--rho", str(paths[0]), "--sigma", str(paths[1])
    )
    assert report == {"code": 0, "after_import": [], "after_main": []}
    classical = math.log(np.sum(a**0.6 * a[::-1] ** 0.4)) / -0.4
    assert record["value"] == pytest.approx(classical, abs=1e-12)


def test_test_kind_loads_no_heavy_module():
    record, report = run_fresh(
        "eval", "--kind", "test", "--alpha", "1.5", "--seed", "3",
        "--family", "pure:c=1,eps=0.3",
    )
    assert report == {"code": 0, "after_import": [], "after_main": []}
    assert math.isfinite(record["value"]) and record["value"] > 0.0


def test_measured_kind_loads_no_heavy_module():
    # the convex path above alpha = 1/2 runs on the package's own ascent
    record, report = run_fresh(
        "eval", "--kind", "measured", "--alpha", "1.5", "--seed", "3",
        "--family", "pure:c=1,eps=0.3",
    )
    assert report == {"code": 0, "after_import": [], "after_main": []}
    assert math.isfinite(record["value"]) and record["value"] > 0.0


def test_no_library_module_imports_scipy():
    """scipy is a test dependency only (the NNLS cross-check oracle)."""
    offenders = []
    for path in sorted((SRC / "qrd").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}: {n}" for n in names if n.split(".")[0] == "scipy"]
    assert offenders == []


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
