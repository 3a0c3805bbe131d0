"""Inputs, job lists and output checks for the four benchmark workloads.

A workload is a fixed list of jobs built from the seed during set-up.
One job is one operation: one call into a public qrd function (or one
CLI invocation), followed by an output check that runs outside the
timed call.  The timed phase runs whole passes through the list, so the
mix of operations is the same in every run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qrd import channels as qch
from qrd import classical as qcl
from qrd import divergences as qdiv
from qrd import measured as qme
from qrd import opcore as qop
from qrd import zlimits as qzl
from qrd.errors import SupportViolationError

#: wall seconds of one pass over each job list on a 2-vCPU Xeon host in its
#: slow state; a run of --seconds S makes round(S / PASS_SECONDS) passes
PASS_SECONDS = {"spectral": 1.0, "optimize": 12.0, "zlimit": 3.0, "cli": 13.0}


@dataclass
class Job:
    name: str
    call: Callable  # call(tracer) -> result
    check: Callable  # check(result) -> None when correct, else a message
    #: exception types that are the correct outcome for this input
    expect: tuple = ()
    #: the input is the documented near-product case of a known defect
    known_defect: bool = False


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    digest: str
    warmup: list[Job]
    #: extra numbers for the report line, computed after the timed phase
    report: Callable = lambda: {}
    cleanup: Callable = lambda: None


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a)).tobytes())
    return h.hexdigest()[:16]


def _density(rng, d: int, rank: int | None = None, floor: float = 0.0) -> np.ndarray:
    k = rank or d
    g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    m = g @ g.conj().T
    m = m / np.trace(m).real + floor * np.eye(d)
    return m / np.trace(m).real


def _nondecreasing(values, slack: float) -> bool:
    for a, b in zip(values, values[1:]):
        if math.isinf(a) and a > 0:
            if not (math.isinf(b) and b > 0):
                return False
        elif not b >= a - slack * max(1.0, abs(a)):
            return False
    return True


def _rel_gap(x: float, y: float) -> float:
    if math.isinf(x) or math.isinf(y):
        return 0.0 if x == y else math.inf
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


def _spread(units: list[list[Job]]) -> list[Job]:
    """Flatten units of jobs in a stride order that separates neighbours.

    Jobs of one kind are built next to each other; spreading them over
    the pass keeps a slow stretch of the machine from hitting one kind only.
    """
    n = len(units)
    stride = max(1, round(math.sqrt(n)))
    while math.gcd(stride, n) != 1:
        stride += 1
    return [job for k in range(n) for job in units[(k * stride) % n]]


def _finite_or_inf(value) -> str | None:
    return "NaN result" if isinstance(value, float) and math.isnan(value) else None


# -------------------------------------------------------------- spectral

#: (alpha, z) grid of single evaluations; holds z = inf and alpha < 1
DAZ_GRID = ((0.7, 1.0), (0.8, 0.5), (1.5, 1.5), (2.0, 1.0), (0.7, math.inf), (1.5, math.inf))
SWEEP_ALPHAS = tuple(float(a) for a in np.linspace(0.5, 2.0, 31))  # qrd sweep 0.5:2:31
SMOOTH_EPS = tuple(10.0 ** (-k) for k in range(2, 9))
SPECTRAL_PAIRS = 10


def _spectral_pairs(rng):
    """Ten pairs: per five, two generic, one low-rank rho, one low-rank sigma, one d = 64."""
    small = (2, 3, 4)
    pairs = []
    for i in range(SPECTRAL_PAIRS):
        role = ("generic", "low_rho", "generic", "low_sigma", "d64")[i % 5]
        d = 64 if role == "d64" else small[(i - i // 5) % 3]
        if role == "low_rho":
            r, s = _density(rng, d, rank=d - 1), _density(rng, d, floor=0.02)
        elif role == "low_sigma":
            r, s = _density(rng, d, floor=0.02), _density(rng, d, rank=d - 1)
        else:
            r, s = _density(rng, d, floor=0.02), _density(rng, d, floor=0.02)
        pairs.append((role, r, s))
    return pairs


def _spectral_jobs(role: str, r: np.ndarray, s: np.ndarray) -> list[Job]:
    c: dict = {}
    P = qdiv.DivergenceParams
    grid = {az: P(*az) for az in DAZ_GRID}
    var_params = P(1.5, 1.5)
    smooth_params = P(1.6, 1.0)
    sweep_params = [P(a, a) for a in SWEEP_ALPHAS]
    leaks = role == "low_sigma"  # rho is not supported inside sigma

    def construct(key, m):
        def call(tr):
            c[key] = tr.call("opcore.HermitianOperator", qop.HermitianOperator, m)
            return c[key]
        return Job("opcore.HermitianOperator", call, lambda v: None)

    jobs = [construct("rho", r), construct("sigma", s)]

    for az, params in grid.items():
        def call(tr, az=az, params=params):
            c[az] = tr.call("divergences.d_alpha_z", qdiv.d_alpha_z, c["rho"], c["sigma"], params)
            return c[az].d_value
        jobs.append(Job("divergences.d_alpha_z", call, _finite_or_inf))

    for name, fn, extra in (
        ("d_max", qdiv.d_max, ()),
        ("umegaki", qdiv.umegaki, ()),
        ("d_hat_alpha", qdiv.d_hat_alpha, (1.5,)),
    ):
        def call(tr, name=name, fn=fn, extra=extra):
            return tr.call("divergences." + name, fn, c["rho"], c["sigma"], *extra)
        jobs.append(Job("divergences." + name, call, _finite_or_inf))

    if role == "generic":
        def call_zero(tr):
            return tr.call("divergences.d_alpha_zero", qdiv.d_alpha_zero, c["rho"], c["sigma"], 0.6)
        jobs.append(Job("divergences.d_alpha_zero", call_zero, _finite_or_inf))

    def call_ns(tr):
        c["ns"] = tr.call("divergences.nussbaum_szkola", qdiv.nussbaum_szkola, c["rho"], c["sigma"])
        return c["ns"]

    def call_cq(tr):
        p, q = c["ns"]
        return tr.call("classical.classical_q", qcl.classical_q, p, q, 0.7)

    def check_cq(value):
        gap = _rel_gap(value, c[(0.7, 1.0)].q_value)
        return None if gap <= 1e-10 else f"Nussbaum-Szkola Q off by {gap:.3g} relative"

    jobs += [
        Job("divergences.nussbaum_szkola", call_ns, lambda v: None),
        Job("classical.classical_q", call_cq, check_cq),
    ]

    def call_alt(tr):
        return tr.call("divergences.alt_chain", qdiv.alt_chain, c["rho"], c["sigma"], 1.5, 1.0, 2.0)

    def check_alt(res):
        return None if res.ok_lower and res.ok_upper else f"ALT chain flags {res}"

    jobs.append(Job("divergences.alt_chain", call_alt, check_alt))

    def call_h(tr):
        c["H"] = None
        c["H"] = tr.call(
            "divergences.variational_optimizer_H", qdiv.variational_optimizer_H,
            c["rho"], c["sigma"], var_params,
        )
        return c["H"]

    def call_obj(tr):
        return tr.call(
            "divergences.variational_objective", qdiv.variational_objective,
            c["rho"], c["sigma"], var_params, c["H"],
        )

    def check_violation(value):
        raised = isinstance(value, SupportViolationError)
        if raised != leaks:
            return f"support violation raised={raised}, expected {leaks}"
        return None

    def check_obj(value):
        if leaks or isinstance(value, SupportViolationError):
            return check_violation(value)
        gap = _rel_gap(value, c[(1.5, 1.5)].q_value)
        return None if gap <= 1e-9 else f"variational objective off Q by {gap:.3g}"

    jobs += [
        Job("divergences.variational_optimizer_H", call_h, check_violation, (SupportViolationError,)),
        Job("divergences.variational_objective", call_obj, check_obj, (SupportViolationError,)),
    ]

    def call_smooth(tr):
        return tr.call(
            "divergences.epsilon_smoothing_curve", qdiv.epsilon_smoothing_curve,
            c["rho"], c["sigma"], smooth_params, SMOOTH_EPS,
        )

    def call_sweep(tr):
        return [
            tr.call("divergences.d_alpha_z", qdiv.d_alpha_z, c["rho"], c["sigma"], p).d_value
            for p in sweep_params
        ]

    jobs += [
        Job(
            "divergences.epsilon_smoothing_curve", call_smooth,
            lambda v: None if _nondecreasing(v, 1e-10) else f"smoothing curve not monotone: {v}",
        ),
        Job(
            "divergences.sweep31", call_sweep,
            lambda v: None if _nondecreasing(v, 1e-9) else "sweep decreases in alpha",
        ),
    ]
    return jobs


def build_spectral(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 0x5350])
    pairs = _spectral_pairs(rng)
    jobs = [job for role, r, s in pairs for job in _spectral_jobs(role, r, s)]
    digest = _digest([m for _, r, s in pairs for m in (r, s)])
    warm = _spectral_jobs(*pairs[0])
    return Workload("spectral", jobs, digest, warm)


# -------------------------------------------------------------- optimize

MEASURED_ALPHAS = (0.4, 1.5, 2.0)
#: the qutrit's d^2-outcome ascent costs 10x a qubit's, so it runs at one alpha
QUTRIT_ALPHAS = (1.5,)
#: the alphas at which the near-product pair hits the known defect
NEAR_PRODUCT_ALPHAS = (1.5, 2.0)
#: random qubit pairs per alpha: the median operation is one of them, so
#: it is the median of many instances' costs
QUBIT_PAIRS = 3
#: restarts for qubit pairs; restarts and ascent iterations for the qutrit
#: and the d = 4 near-product pair
QUBIT_RESTARTS = 2
LARGE_RESTARTS, LARGE_ITERS = 1, 10
CHANNEL_KINDS = (("sandwiched", 1.5), ("sandwiched", 2.0), ("petz", 1.5), ("umegaki", None))
#: restart seed of every optimizer call: the ascent stops early on stalls, so
#: a seed drawn per run would change the cost of the fixed channel pairs
OPTIMIZER_SEED = 1
#: sphere-ascent settings of the channels verification suite
CHANNEL_RESTARTS, CHANNEL_ITERS = 4, 30
#: classical channel pair of the acceptance gate
CLASSICAL_T1 = np.array([[0.8, 0.3], [0.2, 0.7]])
CLASSICAL_T2 = np.array([[0.55, 0.45], [0.45, 0.55]])


def near_product_pair() -> tuple[np.ndarray, np.ndarray]:
    """psi = |00> + 1e-6 |11>, through identity (rho) and depolarizing(0.2) (sigma).

    measured._structural_infinity tests support with the projector test
    while divergences uses the leak-mass test, so the measured values of
    this pair come out +inf above a finite sandwiched value.
    """
    psi = np.array([1.0, 0.0, 0.0, 1e-6], dtype=complex)
    psi /= np.linalg.norm(psi)
    state = np.outer(psi, psi.conj())
    rho = qch.apply_extended(qch.identity_channel(2), state).entries
    sigma = qch.apply_extended(qch.depolarizing_channel(0.2), state).entries
    return rho, sigma


def _classical_renyi(p, q, alpha: float) -> float:
    if alpha == 1.0:
        return float(np.sum(p * (np.log(p) - np.log(q))) / p.sum())
    return float((math.log(np.sum(p**alpha * q ** (1.0 - alpha))) - math.log(p.sum())) / (alpha - 1.0))


def _classical_channel_value(alpha: float) -> float:
    """Sup over binary inputs r of the joint Renyi divergence, by golden section."""
    def f(r):
        w = np.array([r, 1.0 - r])
        p = (w[None, :] * CLASSICAL_T1).T.ravel()
        q = (w[None, :] * CLASSICAL_T2).T.ravel()
        return _classical_renyi(p, q, alpha)

    grid = np.linspace(1e-9, 1.0 - 1e-9, 2001)
    k = int(np.argmax([f(r) for r in grid]))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        a, b = hi - g * (hi - lo), lo + g * (hi - lo)
        if f(a) >= f(b):
            hi = b
        else:
            lo = a
    return max(f(0.5 * (lo + hi)), float(np.max([f(r) for r in grid])))


def _measured_reference(r, s, alpha: float, commuting: bool) -> float:
    if commuting:
        return _classical_renyi(np.real(np.diag(r)), np.real(np.diag(s)), alpha)
    z = 1.0 if alpha < 0.5 else alpha  # Petz below 1/2, sandwiched above
    return qdiv.d_alpha_z(r, s, qdiv.DivergenceParams(alpha, z)).d_value


def _rand_channel(rng, kraus_n: int, d: int = 2) -> qch.Channel:
    """Trace-preserving qubit channel from a random Stinespring isometry."""
    g = rng.standard_normal((kraus_n * d, d)) + 1j * rng.standard_normal((kraus_n * d, d))
    q, _ = np.linalg.qr(g)
    return qch.Channel([q[i * d : (i + 1) * d, :] for i in range(kraus_n)])


def _optimize_inputs(rng):
    """Measured-divergence pairs and channel pairs, each with its alphas or kinds.

    Random qubit pairs are drawn afresh for each alpha.  Every channel kind
    runs on identity vs depolarizing; the classical pair runs at the alpha
    of its acceptance gate, and the random pair (Kraus rank 2 vs 4, four
    times the cost per call) at one kind, so a pass stays short enough to
    run several times.
    """
    def diag_pair():
        p, q = rng.uniform(0.1, 1.0, 2), rng.uniform(0.1, 1.0, 2)
        return np.diag(p / p.sum()).astype(complex), np.diag(q / q.sum()).astype(complex)

    measured = [
        ("qubit", _density(rng, 2), _density(rng, 2), QUBIT_RESTARTS, 60, (alpha,))
        for alpha in MEASURED_ALPHAS for _ in range(QUBIT_PAIRS)
    ] + [
        ("qubit_diag", *diag_pair(), QUBIT_RESTARTS, 60, MEASURED_ALPHAS),
        ("qutrit", _density(rng, 3), _density(rng, 3), LARGE_RESTARTS, LARGE_ITERS, QUTRIT_ALPHAS),
        ("near_product", *near_product_pair(), LARGE_RESTARTS, LARGE_ITERS, NEAR_PRODUCT_ALPHAS),
    ]
    pairs = [
        ("id_vs_dep", qch.identity_channel(2), qch.depolarizing_channel(0.2), CHANNEL_KINDS),
        ("classical", qch.classical_channel(CLASSICAL_T1), qch.classical_channel(CLASSICAL_T2),
         (("sandwiched", 1.5),)),
        ("random", _rand_channel(rng, 2), _rand_channel(rng, 4), (("umegaki", None),)),
    ]
    return measured, pairs


def _lower_bound_check(ref: float, shortfalls: list, close_to=None, cap=None):
    """Check of a certified lower bound; records ref - value for finite values.

    The value must be at most ref + 1e-9, at most cap + 1e-6 when a cap
    is given, and within close_to = (target, tol) when that is given.
    """
    def check(v):
        if math.isnan(v):
            return "NaN result"
        if not v <= ref + 1e-9:
            return f"lower bound {v!r} exceeds its reference {ref!r}"
        if cap is not None and v > cap + 1e-6:
            return f"channel value {v!r} above channel D_max {cap!r}"
        if close_to is not None and not abs(v - close_to[0]) <= close_to[1]:
            return f"value {v!r} not within {close_to[1]} of {close_to[0]!r}"
        if math.isfinite(v):
            shortfalls.append(ref - v)
        return None
    return check


def build_optimize(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 0x4F50])
    measured, chan_pairs = _optimize_inputs(rng)
    jobs: list[Job] = []
    shortfalls: list[float] = []

    for tag, r, s, restarts, iters, alphas in measured:
        commuting = tag == "qubit_diag"
        for alpha in alphas:
            ref = _measured_reference(r, s, alpha, commuting)
            check = _lower_bound_check(ref, shortfalls, close_to=(ref, 1e-4) if commuting else None)
            defect = tag == "near_product"

            def call_m(tr, r=r, s=s, alpha=alpha, restarts=restarts, iters=iters):
                res = tr.call(
                    "measured.measured_renyi_lower", qme.measured_renyi_lower,
                    r, s, alpha, restarts=restarts, seed=OPTIMIZER_SEED, iters=iters,
                )
                tr.counts["measured.calls"] += 1
                tr.counts["measured.converged"] += bool(res.converged)
                return res.value

            def call_t(tr, r=r, s=s, alpha=alpha, restarts=restarts):
                res = tr.call(
                    "measured.test_measured", qme.test_measured,
                    r, s, alpha, restarts=restarts, seed=OPTIMIZER_SEED,
                )
                return res.value

            jobs.append(Job("measured.measured_renyi_lower", call_m, check, known_defect=defect))
            jobs.append(Job("measured.test_measured", call_t, check, known_defect=defect))

    for tag, n1, n2, kinds in chan_pairs:
        dmax = qch.channel_dmax(n1, n2)
        for kind, alpha in kinds:
            if tag == "classical":
                a = 1.0 if alpha is None else alpha
                grid, _ = qch.classical_channel_divergence_grid(CLASSICAL_T1, CLASSICAL_T2, a)
                check = _lower_bound_check(
                    _classical_channel_value(a), shortfalls, close_to=(grid, 1e-3), cap=dmax)
            else:
                check = _lower_bound_check(dmax, shortfalls, cap=dmax)

            def call_c(tr, n1=n1, n2=n2, kind=kind, alpha=alpha):
                res = tr.call(
                    "channels.channel_divergence", qch.channel_divergence, n1, n2, kind,
                    alpha=alpha, restarts=CHANNEL_RESTARTS, seed=OPTIMIZER_SEED, iters=CHANNEL_ITERS,
                )
                tr.counts["channels.calls"] += 1
                tr.counts["channels.converged"] += bool(res.converged)
                return res.value

            jobs.append(Job("channels.channel_divergence", call_c, check))

    jobs = _spread([[job] for job in jobs])
    arrays = [m for _, r, s, *_ in measured for m in (r, s)]
    arrays += [k for _, n1, n2, *_ in chan_pairs for ch in (n1, n2) for k in ch.kraus]
    digest = _digest(arrays)

    def warm_call(tr):
        r, s = measured[0][1], measured[0][2]
        qme.measured_renyi_lower(r, s, 1.5, restarts=1, seed=0, iters=1)
        qme.test_measured(r, s, 1.5, restarts=1, seed=0)
        n1, n2 = chan_pairs[0][1], chan_pairs[0][2]
        return qch.channel_divergence(n1, n2, "sandwiched", alpha=1.5, restarts=1, seed=0, iters=1)

    def report():
        return {
            "bound_shortfall": sum(shortfalls) / len(shortfalls) if shortfalls else None,
            "bound_shortfall_count": len(shortfalls),
        }

    return Workload("optimize", jobs, digest, [Job("warmup", warm_call, lambda v: None)], report)


# ---------------------------------------------------------------- zlimit

ZERO_Z_ALPHAS = (0.6, 1.7)
GENERIC_DIMS = (2, 3, 4, 2, 3, 4)
#: anti-aligned commuting pairs, evaluated at the alpha < 1 where their
#: genericity fails and the value comes from the oracle
FALLBACK_DIMS = (2, 3, 2, 3)
FALLBACK_ALPHA = 0.6
#: sigma = I/d; eight rho at d = 8, whose genericity search costs about
#: as much as an oracle call, so the median operation sits well inside
#: them.  d = 16 takes ~1.5 s per search and runs at one alpha only, so a
#: pass stays short and a run holds several passes.
MIXED_DIMS = (8,) * 8 + (12, 16)
MIXED_ALPHAS = {16: (1.7,)}
#: adjacent ratio bound on the sorted limit eigenvalues; such spectra keep
#: the extrapolation oracle inside the 1e-4 check
LIMIT_SEPARATION = 0.85


def _generic_pair(rng, d: int):
    """Invertible pair passing both genericity conditions with separated limits."""
    while True:
        r, s = _density(rng, d, floor=0.02), _density(rng, d, floor=0.02)
        profile = qzl.spectral_profile(r, s)
        if not (qzl.genericity_condition_b(profile).holds
                and qzl.genericity_condition_b_prime(profile).holds):
            continue
        if all(
            np.all(lam[1:] / lam[:-1] <= LIMIT_SEPARATION)
            for lam in (np.sort(qzl.z_alpha_eigenvalues(profile, a))[::-1] for a in ZERO_Z_ALPHAS)
        ):
            return r, s


def _zero_z_call(c, key, r, s, alpha):
    def call(tr):
        res = tr.call("zlimits.zero_z_divergence", qzl.zero_z_divergence, r, s, alpha)
        tr.counts["zlimits.calls"] += 1
        tr.counts["zlimits.fallback"] += bool(res.used_fallback)
        c[key] = res.value
        return res.value
    return call


def build_zlimit(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 0x5A4C])
    generic = [_generic_pair(rng, d) for d in GENERIC_DIMS]
    fallback = []
    for d in FALLBACK_DIMS:
        a = np.sort(rng.uniform(0.2, 1.0, d))[::-1]
        a = a / a.sum()
        b = a[::-1].copy()  # anti-aligned: the alpha < 1 genericity fails
        fallback.append((np.diag(a).astype(complex), np.diag(b).astype(complex)))
    mixed = [(_density(rng, d), np.eye(d, dtype=complex) / d) for d in MIXED_DIMS]

    c: dict = {}
    units: list[list[Job]] = []
    for i, (r, s) in enumerate(generic):
        for alpha in ZERO_Z_ALPHAS:
            key = ("generic", i, alpha)
            def call_o(tr, r=r, s=s, alpha=alpha):
                return tr.call("zlimits.zero_z_oracle", qzl.zero_z_oracle, r, s, alpha)

            def check_o(v, key=key):
                gap = abs(v - c[key])
                return None if gap <= 1e-4 else f"spectral vs oracle gap {gap:.3g}"

            units.append([
                Job("zlimits.zero_z_divergence", _zero_z_call(c, key, r, s, alpha), _finite_or_inf),
                Job("zlimits.zero_z_oracle", call_o, check_o),
            ])
    for i, (r, s) in enumerate(fallback):
        exact = _classical_renyi(np.real(np.diag(r)), np.real(np.diag(s)), FALLBACK_ALPHA)

        def check_f(v, exact=exact):  # commuting: every z gives the classical value
            return None if abs(v - exact) <= 1e-4 else f"commuting value {v!r} vs exact {exact!r}"

        call = _zero_z_call(c, ("fb", i), r, s, FALLBACK_ALPHA)
        units.append([Job("zlimits.zero_z_divergence", call, check_f)])
    for i, (r, s) in enumerate(mixed):
        d = r.shape[0]
        w = np.clip(np.linalg.eigvalsh(r), 0.0, None)
        for alpha in MIXED_ALPHAS.get(d, ZERO_Z_ALPHAS):
            exact = math.log(d) + (math.log(np.sum(w**alpha)) - math.log(np.sum(w))) / (alpha - 1.0)

            def check_m(v, exact=exact):
                return None if abs(v - exact) <= 1e-8 else f"sigma = I/d value {v!r} vs {exact!r}"

            call = _zero_z_call(c, ("mm", i, alpha), r, s, alpha)
            units.append([Job("zlimits.zero_z_divergence", call, check_m)])

    digest = _digest([m for pair in generic + fallback + mixed for m in pair])
    return Workload("zlimit", _spread(units), digest, units[0])


# ------------------------------------------------------------------- cli

CLI_DIMS = (2, 4, 16)


def _state_json(m: np.ndarray) -> dict:
    return {"dim": int(m.shape[0]), "re": np.real(m).tolist(), "im": np.imag(m).tolist()}


def _kraus_json(kraus) -> dict:
    d_out, d_in = kraus[0].shape
    return {
        "d_in": d_in,
        "d_out": d_out,
        "kraus": [{"re": np.real(k).tolist(), "im": np.imag(k).tolist()} for k in kraus],
    }


def cli_invocations(files: dict, seed: int) -> list[tuple[list[str], int]]:
    """(qrd argv, expected exit code) for one pass of the cli workload."""
    pair = lambda d: ["--rho", files[f"rho{d}"], "--sigma", files[f"sigma{d}"]]  # noqa: E731
    suites = ("alt", "variational", "dmaxbound", "nszkola", "caratheodory", "zlimits", "families", "smoothing")
    verify = ["verify", "--trials", "1", "--seed", str(seed)]
    for name in suites:
        verify += ["--suite", name]
    return [
        (["eval", "--kind", "daz", "--alpha", "1.5", "--z", "1.5"] + pair(2), 0),
        (["eval", "--kind", "dmax"] + pair(4), 0),
        (["eval", "--kind", "umegaki"] + pair(16), 0),
        (["eval", "--kind", "dhat", "--alpha", "1.5"] + pair(2), 0),
        (["eval", "--kind", "dzero", "--alpha", "0.6"] + pair(4), 0),
        (["eval", "--kind", "dinf", "--alpha", "0.7"] + pair(16), 0),
        (["eval", "--kind", "dmax", "--family", "pure:c=1,eps=1e-6"], 0),
        (["eval", "--kind", "test", "--alpha", "1.5", "--seed", str(seed), "--restarts", "2"] + pair(2), 0),
        (["sweep", "--alpha-grid", "0.5:2:31", "--z-mode", "alpha"] + pair(4), 0),
        (["channel", "--kind", "dmax", "--n1", files["id"], "--n2", files["dep"]], 0),
        (verify, 0),
        (["eval", "--kind", "dmax", "--rho", files["bad"], "--sigma", files["sigma2"]], 2),
        (["eval", "--kind", "daz", "--alpha", "-1", "--z", "1"] + pair(2), 3),
    ]


def build_cli(seed: int, root: Path, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 0x434C])
    tmp = tempfile.TemporaryDirectory(dir=workdir, prefix="cli-")
    base = Path(tmp.name)
    files: dict[str, str] = {}
    arrays = []

    def dump(name: str, obj) -> None:
        path = base / f"{name}.json"
        path.write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8")
        files[name] = os.path.relpath(path, root)

    for d in CLI_DIMS:
        r, s = _density(rng, d, floor=0.02), _density(rng, d, floor=0.02)
        arrays += [r, s]
        dump(f"rho{d}", _state_json(r))
        dump(f"sigma{d}", _state_json(s))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    p = 0.2
    dump("id", _kraus_json([np.eye(2, dtype=complex)]))
    dump("dep", _kraus_json([math.sqrt(1 - 0.75 * p) * np.eye(2)] + [math.sqrt(p / 4) * m for m in (x, y, z)]))
    dump("bad", {"dim": 2, "re": [[1.0, 0.0]]})  # wrong shape: exit 2

    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    cli_seed = int(rng.integers(1, 10**6))
    invocations = cli_invocations(files, cli_seed)
    first_stdout: dict[int, bytes] = {}

    def make(i: int, argv: list[str], code: int) -> Job:
        def call(tr):
            return tr.call(
                "lab.cli", subprocess.run, [sys.executable, "-m", "qrd.lab"] + argv,
                cwd=root, env=env, capture_output=True, timeout=150,
            )

        def check(proc):
            if proc.returncode != code:
                tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
                return f"qrd {argv[0]} exited {proc.returncode}, expected {code}: {tail}"
            ref = first_stdout.setdefault(i, proc.stdout)
            return None if proc.stdout == ref else f"qrd {argv[0]} stdout differs from its first run"

        return Job("lab.cli", call, check)

    jobs = [make(i, argv, code) for i, (argv, code) in enumerate(invocations)]
    warm = [Job("warmup", lambda tr: make(0, *invocations[1]).call(tr), lambda v: None)]
    argv_text = json.dumps(cli_invocations({k: k for k in files}, cli_seed))
    digest = _digest(arrays + [np.frombuffer(argv_text.encode(), dtype=np.uint8)])
    return Workload("cli", jobs, digest, warm, cleanup=tmp.cleanup)


def build(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    if name == "spectral":
        return build_spectral(seed)
    if name == "optimize":
        return build_optimize(seed)
    if name == "zlimit":
        return build_zlimit(seed)
    return build_cli(seed, root, workdir)
