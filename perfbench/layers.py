"""Per-layer metrics of the traced run.

Two sources.  ``workload_layer_metrics`` turns the workload's spans into
calls and busy (self) seconds per qrd module.  ``measure_layers`` times
the public functions of each module directly on operands drawn from the
seed: opcore and classical are otherwise reached only through other
modules, and fixed sizes make one layer comparable across commits.
Each timing is the median over repeated calls.  The outcome shares count
the workload's calls and one call per layer operand, not the repetitions.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads as wl
from qrd import channels as qch
from qrd import classical as qcl
from qrd import divergences as qdiv
from qrd import lab as qlab
from qrd import measured as qme
from qrd import opcore as qop
from qrd import serialize as qser
from qrd import verify as qver
from qrd import zlimits as qzl

MODULES = ("opcore", "divergences", "classical", "zlimits", "measured",
           "channels", "verify", "serialize", "lab")
#: the suites that the cli workload runs through ``qrd verify``
VERIFY_SUITES = ("alt", "variational", "dmaxbound", "nszkola", "caratheodory",
                 "zlimits", "families", "smoothing")


def _m(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def per_call(fn, reps: int, budget_s: float = 0.25, prepare=None) -> float:
    """Median seconds of one fn() call over at most reps calls within the budget.

    prepare(), when given, builds a fresh argument for each call outside
    the timed region.
    """
    times = []
    spent = perf_counter()
    while len(times) < reps and (not times or perf_counter() - spent < budget_s):
        arg = prepare() if prepare else None
        t0 = perf_counter()
        fn(arg) if prepare else fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def workload_layer_metrics(tr) -> dict:
    totals = tr.module_totals()
    out = {}
    for module in MODULES:
        calls, busy = totals.get(module, (0, 0.0))
        out[f"{module}.calls"] = _m(calls, "count")
        out[f"{module}.busy_s"] = _m(busy, "s")
    return out


def _share(tr, module: str, what: str) -> float:
    calls = tr.counts[f"{module}.calls"]
    return tr.counts[f"{module}.{what}"] / calls if calls else 0.0


def _opcore(rng, out):
    for d in (4, 64):
        m = wl._density(rng, d, floor=0.02)
        a = qop.HermitianOperator(m)
        b = qop.HermitianOperator(wl._density(rng, d, floor=0.02))
        a.eig, b.eig  # noqa: B018  decompositions cached, as inside a pair's job list
        fresh = lambda: qop.HermitianOperator(m)  # noqa: E731
        out[f"opcore.construct_us.d{d}"] = _m(1e6 * per_call(fresh, 300), "us")
        out[f"opcore.eig_us.d{d}"] = _m(1e6 * per_call(lambda op: op.eig, 300, prepare=fresh), "us")
        out[f"opcore.supported_power_us.d{d}"] = _m(
            1e6 * per_call(lambda: qop.supported_power(a, 0.5), 300), "us")
        out[f"opcore.support_projection_us.d{d}"] = _m(
            1e6 * per_call(lambda: qop.support_projection(a), 300), "us")
        out[f"opcore.pinch_exp_us.d{d}"] = _m(1e6 * per_call(lambda: qop.pinch_exp(a, b, 0.7), 300), "us")


def _pair(rng, d):
    r = qop.HermitianOperator(wl._density(rng, d, floor=0.02))
    s = qop.HermitianOperator(wl._density(rng, d, floor=0.02))
    return r, s


def _divergences(rng, out):
    P = qdiv.DivergenceParams
    sandwiched = P(1.5, 1.5)
    pairs = {d: _pair(rng, d) for d in (2, 3, 4, 64)}
    for d in (2, 4, 64):
        r, s = pairs[d]
        out[f"divergences.d_alpha_z_us.d{d}"] = _m(
            1e6 * per_call(lambda: qdiv.d_alpha_z(r, s, sandwiched), 300), "us")
    r, s = pairs[2]
    out["divergences.q_alpha_z_us.d2"] = _m(1e6 * per_call(lambda: qdiv.q_alpha_z(r, s, sandwiched), 300), "us")
    r, s = pairs[4]
    for name, fn, extra in (("d_max", qdiv.d_max, ()), ("umegaki", qdiv.umegaki, ()),
                            ("d_hat_alpha", qdiv.d_hat_alpha, (1.5,))):
        out[f"divergences.{name}_us.d4"] = _m(1e6 * per_call(lambda: fn(r, s, *extra), 300), "us")
    r3, s3 = pairs[3]
    h = qdiv.variational_optimizer_H(r3, s3, sandwiched)
    out["divergences.variational_objective_us.d3"] = _m(
        1e6 * per_call(lambda: qdiv.variational_objective(r3, s3, sandwiched, h), 300), "us")
    sweep = [P(a, a) for a in wl.SWEEP_ALPHAS]
    for d in (4, 64):
        r, s = pairs[d]
        out[f"divergences.sweep31_ms.d{d}"] = _m(
            1e3 * per_call(lambda: [qdiv.d_alpha_z(r, s, p) for p in sweep], 20), "ms")
    r, s = pairs[4]
    out["divergences.smoothing_curve_ms.d4"] = _m(1e3 * per_call(
        lambda: qdiv.epsilon_smoothing_curve(r, s, P(1.6, 1.0), wl.SMOOTH_EPS), 50), "ms")


def _classical(rng, out):
    for n in (9, 16):
        p, q = rng.uniform(0.05, 1.0, n), rng.uniform(0.05, 1.0, n)
        out[f"classical.classical_renyi_us.n{n}"] = _m(
            1e6 * per_call(lambda: qcl.classical_renyi(p, q, 1.5), 300), "us")


def _zlimits(rng, out, tr):
    for d, reps in ((8, 5), (12, 3), (16, 1)):
        profile = qzl.spectral_profile(wl._density(rng, d), np.eye(d) / d)
        out[f"zlimits.genericity_ms.d{d}"] = _m(
            1e3 * per_call(lambda: qzl.genericity_condition_b(profile), reps), "ms")
    r, s = wl._generic_pair(rng, 4)
    res = qzl.zero_z_divergence(r, s, 0.6)
    tr.counts["zlimits.calls"] += 1
    tr.counts["zlimits.fallback"] += bool(res.used_fallback)
    out["zlimits.zero_z_divergence_us.d4"] = _m(
        1e6 * per_call(lambda: qzl.zero_z_divergence(r, s, 0.6), 100), "us")
    r3, s3 = wl._generic_pair(rng, 3)
    out["zlimits.oracle_ms.d3"] = _m(1e3 * per_call(lambda: qzl.zero_z_oracle(r3, s3, 0.6), 5), "ms")
    r16, s16 = (wl._density(rng, 16, floor=0.02) for _ in range(2))
    out["zlimits.oracle_ms.d16"] = _m(1e3 * per_call(lambda: qzl.zero_z_oracle(r16, s16, 0.6), 1), "ms")
    out["zlimits.fallback_share"] = _m(_share(tr, "zlimits", "fallback"), "ratio")


def _measured(rng, out, tr):
    for d, restarts, iters in ((2, wl.QUBIT_RESTARTS, 60), (3, wl.LARGE_RESTARTS, wl.LARGE_ITERS)):
        r, s = wl._density(rng, d), wl._density(rng, d)
        seen = []

        def measured():
            res = qme.measured_renyi_lower(r, s, 1.5, restarts=restarts, seed=1, iters=iters)
            if not seen:  # count the operand once, not each repetition
                seen.append(res)
                tr.counts["measured.calls"] += 1
                tr.counts["measured.converged"] += bool(res.converged)

        out[f"measured.measured_renyi_lower_s.d{d}"] = _m(per_call(measured, 3, 1.0), "s")
        out[f"measured.test_measured_s.d{d}"] = _m(per_call(
            lambda: qme.test_measured(r, s, 1.5, restarts=restarts, seed=1), 3, 1.0), "s")
    out["measured.converged_share"] = _m(_share(tr, "measured", "converged"), "ratio")


def _channels(rng, out, tr):
    n1, n2 = qch.identity_channel(2), qch.depolarizing_channel(0.2)
    for kind, alpha in (("sandwiched", 1.5), ("petz", 1.5), ("umegaki", None)):
        t0 = perf_counter()
        res = qch.channel_divergence(n1, n2, kind, alpha=alpha, restarts=4, seed=1, iters=30)
        out[f"channels.divergence_s.{kind}"] = _m(perf_counter() - t0, "s")
        tr.counts["channels.calls"] += 1
        tr.counts["channels.converged"] += bool(res.converged)

    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    state = qop.HermitianOperator(np.outer(psi, psi.conj()))
    params = qdiv.DivergenceParams(1.5, 1.5)

    def objective():
        st = qop.HermitianOperator(np.outer(psi, psi.conj()))
        return qdiv.d_alpha_z(qch.apply_extended(n1, st), qch.apply_extended(n2, st), params)

    out["channels.objective_us"] = _m(1e6 * per_call(objective, 300), "us")
    out["channels.apply_extended_us"] = _m(1e6 * per_call(lambda: qch.apply_extended(n1, state), 300), "us")
    fresh = lambda: (qch.Channel(n1.kraus), qch.Channel(n2.kraus))  # noqa: E731  Choi not cached
    out["channels.channel_dmax_us"] = _m(
        1e6 * per_call(lambda pair: qch.channel_dmax(*pair), 300, prepare=fresh), "us")
    out["channels.converged_share"] = _m(_share(tr, "channels", "converged"), "ratio")


def _verify(seed, out):
    for name in VERIFY_SUITES:
        out[f"verify.run_suite_ms.{name}"] = _m(1e3 * per_call(lambda: qver.run_suite(name, 1, seed), 3), "ms")


def _child_seconds(root: Path, code: str) -> float:
    """Run code in a fresh interpreter with src on the path; it prints seconds."""
    src = "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); " + code
    src += "; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", src], cwd=root, capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.strip())


def _serialize_and_lab(rng, seed, root: Path, workdir: Path, out):
    with tempfile.TemporaryDirectory(dir=workdir, prefix="layers-") as tmp:
        files = {}
        for d in (4, 64):
            for role in ("rho", "sigma"):
                path = Path(tmp) / f"{role}{d}.json"
                path.write_text(json.dumps(wl._state_json(wl._density(rng, d, floor=0.02))))
                files[f"{role}{d}"] = str(path)
        chan = Path(tmp) / "dep.json"
        qser.dump_channel(qch.depolarizing_channel(0.2), chan)
        for d in (4, 64):
            out[f"serialize.load_state_us.d{d}"] = _m(
                1e6 * per_call(lambda: qser.load_state(files[f"rho{d}"]), 300), "us")
        out["serialize.load_channel_us"] = _m(1e6 * per_call(lambda: qser.load_channel(chan), 300), "us")

        pair = ["--rho", files["rho4"], "--sigma", files["sigma4"]]
        argvs = {
            "eval": ["eval", "--kind", "daz", "--alpha", "1.5", "--z", "1.5"] + pair,
            "sweep": ["sweep", "--alpha-grid", "0.5:2:31", "--z-mode", "alpha"] + pair,
            "verify": ["verify", "--suite", "alt", "--trials", "1", "--seed", str(seed)],
        }
        for name, argv in argvs.items():
            def main(argv=argv):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = qlab.main(argv)
                if code != 0:
                    raise RuntimeError(f"qrd {' '.join(argv)} exited {code}")
            out[f"lab.main_ms.{name}"] = _m(1e3 * per_call(main, 20), "ms")

    def interpreter():
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)

    out["lab.interpreter_ms"] = _m(1e3 * per_call(interpreter, 3), "ms")
    for name, module in (("import_ms", "qrd.lab"), ("import_scipy_optimize_ms", "scipy.optimize"),
                         ("import_mpmath_ms", "mpmath")):
        times = [_child_seconds(root, f"import {module}") for _ in range(3)]
        out[f"lab.{name}"] = _m(1e3 * statistics.median(times), "ms")


def measure_layers(seed: int, root: Path, workdir: Path, tr) -> dict:
    rng = np.random.default_rng([seed, 0x4C59])
    out: dict = {}
    _opcore(rng, out)
    _divergences(rng, out)
    _classical(rng, out)
    _zlimits(rng, out, tr)
    _measured(rng, out, tr)
    _channels(rng, out, tr)
    _verify(seed, out)
    _serialize_and_lab(rng, seed, root, workdir, out)
    return out
