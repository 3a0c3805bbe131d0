"""Reverse tests: classical preparations realizing an operator pair.

A reverse test stores columns (unit-trace PSD operators) and a weight
pair (p, q) with sum_i p_i omega_i = rho and sum_i q_i omega_i = sigma.
Its classical divergence is an upper bound certificate on the maximal
divergence of the pair; column reduction via convex-hull folding keeps
the certificate valid and never increases it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import (
    ConvexFunctionSpec,
    WeightVector,
    as_weights,
    classical_fdiv,
    classical_renyi,
)
from .divergences import d_hat_alpha
from .errors import (
    BadAlphaError,
    BadParamsError,
    DimMismatchError,
    NoConvexWitnessError,
    SupportViolationError,
)
from .opcore import HermitianOperator, as_operator, spectral_map, support_leq

#: residual below which a column counts as lying in the hull of the rest
HULL_RESIDUAL_TOL = 1e-9

#: columns whose sigma-mass falls below this never enter a spectral test
COLUMN_MASS_RTOL = 1e-14


@dataclass(frozen=True)
class ReverseTest:
    """Columns with weight pairs; the certificate is D_cl(p, q)."""

    omegas: tuple[HermitianOperator, ...]
    p: WeightVector
    q: WeightVector

    def __post_init__(self):
        object.__setattr__(self, "omegas", tuple(as_operator(w) for w in self.omegas))
        object.__setattr__(self, "p", as_weights(self.p))
        object.__setattr__(self, "q", as_weights(self.q))
        n = len(self.omegas)
        if n == 0:
            raise BadParamsError("reverse test needs at least one column")
        if len(self.p) != n or len(self.q) != n:
            raise DimMismatchError(
                f"{n} columns with weight lengths {len(self.p)}, {len(self.q)}"
            )
        d = self.omegas[0].dim
        for w in self.omegas:
            if w.dim != d:
                raise DimMismatchError("columns on different dimensions")
            if abs(w.trace - 1.0) > 1e-10:
                raise BadParamsError(f"column trace {w.trace} is not 1")
            if float(w.eigenvalues[-1]) < -1e-10:
                raise BadParamsError(
                    f"column has eigenvalue {w.eigenvalues[-1]:.3e}"
                )

    @property
    def dim(self) -> int:
        return self.omegas[0].dim

    @property
    def n_columns(self) -> int:
        return len(self.omegas)


def realized_pair(rt: ReverseTest):
    """The operator pair (sum p_i omega_i, sum q_i omega_i)."""
    d = rt.dim
    first = np.zeros((d, d), dtype=complex)
    second = np.zeros((d, d), dtype=complex)
    for w, pi, qi in zip(rt.omegas, rt.p.values, rt.q.values):
        first += pi * w.entries
        second += qi * w.entries
    return HermitianOperator(first), HermitianOperator(second)


def validate_reverse_test(rt: ReverseTest, rho, sigma, atol: float = 1e-9) -> bool:
    rho = as_operator(rho)
    sigma = as_operator(sigma)
    if rho.dim != rt.dim or sigma.dim != rt.dim:
        raise DimMismatchError(f"target dim {rho.dim} vs columns {rt.dim}")
    got_rho, got_sigma = realized_pair(rt)
    return bool(
        np.max(np.abs(got_rho.entries - rho.entries)) <= atol
        and np.max(np.abs(got_sigma.entries - sigma.entries)) <= atol
    )


def rt_f_divergence(rt: ReverseTest, f: ConvexFunctionSpec) -> float:
    return classical_fdiv(f, rt.p, rt.q)


def rt_renyi(rt: ReverseTest, alpha: float) -> float:
    return classical_renyi(rt.p, rt.q, alpha)


def spectral_reverse_test(rho, sigma) -> ReverseTest:
    """Reverse test from the eigenbasis of sigma^-1/2 rho sigma^-1/2.

    Columns are sigma^1/2 u u^dag sigma^1/2 renormalized over that
    basis; its classical Renyi value reproduces d_hat_alpha exactly at
    every order, which also makes it the canonical warm start for the
    search above alpha = 2.  Requires the support of rho inside that of
    sigma.
    """
    rho = as_operator(rho)
    sigma = as_operator(sigma)
    if rho.dim != sigma.dim:
        raise DimMismatchError(f"dim {rho.dim} vs {sigma.dim}")
    if not support_leq(rho, sigma):
        raise SupportViolationError("support of rho leaks outside sigma")
    s_half = spectral_map(sigma, lambda w: w ** 0.5)[0]
    s_inv = spectral_map(sigma, lambda w: w ** -0.5)[0]
    x = s_inv @ rho.entries @ s_inv
    vals, vecs = np.linalg.eigh(0.5 * (x + x.conj().T))
    omegas, p, q = [], [], []
    mass_floor = COLUMN_MASS_RTOL * sigma.trace
    for i in range(rho.dim):
        u = vecs[:, i]
        t = float(np.real(u.conj() @ sigma.entries @ u))
        if t <= mass_floor:
            continue
        col = s_half @ np.outer(u, u.conj()) @ s_half
        omegas.append(HermitianOperator(col / t))
        p.append(max(vals[i], 0.0) * t)
        q.append(t)
    return ReverseTest(tuple(omegas), WeightVector(np.array(p)), WeightVector(np.array(q)))


def split_eigen_reverse_test(rho, sigma) -> ReverseTest:
    """Fallback test from the separate eigenbases of rho and sigma.

    Always valid, no support condition; its classical supports are
    disjoint, so the certificate is vacuous above alpha = 1 and only
    meaningful structurally (it feeds reduction, not tight bounds).
    """
    rho = as_operator(rho)
    sigma = as_operator(sigma)
    if rho.dim != sigma.dim:
        raise DimMismatchError(f"dim {rho.dim} vs {sigma.dim}")
    omegas, p, q = [], [], []
    for op, into_p in ((rho, True), (sigma, False)):
        vals, vecs = op.eig
        for i, lam in enumerate(vals):
            if lam <= COLUMN_MASS_RTOL * max(vals[0], 1.0):
                continue
            u = vecs[:, i]
            omegas.append(HermitianOperator(np.outer(u, u.conj())))
            p.append(lam if into_p else 0.0)
            q.append(0.0 if into_p else lam)
    return ReverseTest(tuple(omegas), WeightVector(np.array(p)), WeightVector(np.array(q)))


def _hull_coordinates(omegas) -> np.ndarray:
    """Real coordinates of each column plus a unit entry for convexity."""
    rows = []
    for w in omegas:
        e = w.entries
        rows.append(np.concatenate([e.real.ravel(), e.imag.ravel(), [1.0]]))
    return np.array(rows)


def _nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """argmin ||a x - b|| over x >= 0, and its residual norm.

    The Lawson-Hanson active-set method (Solving Least Squares Problems,
    SIAM 1995, ch. 23): move the column with the largest gradient entry
    into the passive set, solve least squares on that set, and step back
    along the segment to the last nonnegative point whenever an entry
    turns nonpositive.  At most 3 n moves, as in the reference code.
    """
    m, n = a.shape
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    tol = 10.0 * np.finfo(float).eps * max(m, n) * max(np.abs(a).sum(axis=0).max(), 1.0)
    for _ in range(3 * n):
        # summed column by column, so equal columns tie exactly and the first enters
        w = np.where(passive, -np.inf, ((b - a @ x)[:, None] * a).sum(axis=0))
        j = int(np.argmax(w))
        if w[j] <= tol:
            break
        before = passive.copy()
        passive[j] = True
        while True:
            s = np.zeros(n)
            s[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if np.all(s[passive] > 0.0):
                break
            out = passive & (s <= 0.0)
            step = np.min(x[out] / np.maximum(x[out] - s[out], np.finfo(float).tiny))
            x += step * (s - x)
            passive &= x > tol
            x[~passive] = 0.0
        x = s
        if np.array_equal(passive, before):
            break  # the entering column fell straight out: optimal to working precision
    return x, float(np.linalg.norm(a @ x - b))


def caratheodory_reduce(rt: ReverseTest, f: ConvexFunctionSpec | None = None) -> ReverseTest:
    """Fold one column lying in the convex hull of the others.

    Nonnegative least squares finds convex weights reproducing some
    column within HULL_RESIDUAL_TOL; its mass is folded into the rest,
    which is a stochastic map on the weight pair and so never increases
    any classical f-divergence.  Only legal while the column count
    exceeds dim^2 + 1.
    """
    n, d = rt.n_columns, rt.dim
    if n <= d * d + 1:
        raise BadParamsError(f"{n} columns at dim {d} is already at the floor")
    coords = _hull_coordinates(rt.omegas)
    before = None if f is None else classical_fdiv(f, rt.p, rt.q)
    for k in range(n):
        others = [i for i in range(n) if i != k]
        lam, residual = _nnls(coords[others].T, coords[k])
        if residual > HULL_RESIDUAL_TOL:
            continue
        p = rt.p.values.copy()
        q = rt.q.values.copy()
        p_others = p[others] + lam * p[k]
        q_others = q[others] + lam * q[k]
        reduced = ReverseTest(
            tuple(rt.omegas[i] for i in others),
            WeightVector(p_others),
            WeightVector(q_others),
        )
        if before is not None:
            after = classical_fdiv(f, reduced.p, reduced.q)
            if after > before + 1e-9:
                raise BadParamsError(
                    f"folding increased the certificate by {after - before:.3e}"
                )
        return reduced
    raise NoConvexWitnessError(
        f"no column of {n} lies in the hull of the others within {HULL_RESIDUAL_TOL}"
    )


def caratheodory_fixpoint(rt: ReverseTest, f: ConvexFunctionSpec | None = None) -> ReverseTest:
    """Reduce until the column floor dim^2 + 1 or no witness remains."""
    while rt.n_columns > rt.dim ** 2 + 1:
        try:
            rt = caratheodory_reduce(rt, f)
        except NoConvexWitnessError:
            break
    return rt


@dataclass(frozen=True)
class MaximalDivergenceResult:
    value: float
    rt: ReverseTest
    exact: bool


def _project_column(m: np.ndarray) -> np.ndarray:
    """Nearest unit-trace PSD matrix (eigenvalue clip and renormalize)."""
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    w = np.clip(w, 0.0, None)
    if w.sum() <= 0.0:
        w = np.ones_like(w)
    out = (v * (w / w.sum())) @ v.conj().T
    return 0.5 * (out + out.conj().T)


def _refit_weights(omegas, target) -> tuple[np.ndarray, float]:
    coords = _hull_coordinates(omegas)[:, :-1]
    t = np.concatenate([target.entries.real.ravel(), target.entries.imag.ravel()])
    return _nnls(coords.T, t)


def maximal_divergence_upper(
    rho, sigma, alpha: float, restarts: int = 4, seed: int = 0
) -> MaximalDivergenceResult:
    """Certificate for the maximal Renyi divergence of a pair.

    Up to alpha = 2 the perspective closed form is the exact infimum and
    the spectral reverse test attains it.  Above 2 only an upper bound
    is available: local search perturbs columns of a dim^2 + 1 column
    test and refits both weight vectors by nonnegative least squares,
    starting from the spectral test so the result never exceeds the
    closed form.
    """
    if not alpha > 0.0 or alpha == 1.0:
        raise BadAlphaError(f"alpha must be in (0,1) or (1,inf), got {alpha}")
    rho = as_operator(rho)
    sigma = as_operator(sigma)
    if rho.dim != sigma.dim:
        raise DimMismatchError(f"dim {rho.dim} vs {sigma.dim}")
    included = support_leq(rho, sigma)
    if alpha > 1.0 and not included:
        raise SupportViolationError("support of rho leaks outside sigma")
    closed_form = d_hat_alpha(rho, sigma, alpha)
    base = spectral_reverse_test(rho, sigma) if included else split_eigen_reverse_test(rho, sigma)
    if alpha <= 2.0:
        return MaximalDivergenceResult(value=closed_form, rt=base, exact=True)

    d = rho.dim
    n = d * d + 1
    rng = np.random.default_rng([seed, 0x5254])
    omegas = list(base.omegas)
    while len(omegas) < n:
        # diverse full-rank padding keeps the column cone full-dimensional,
        # otherwise every column perturbation breaks the refit
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        extra = g @ g.conj().T + 0.5 * d * np.eye(d)
        omegas.append(HermitianOperator(extra / np.real(np.trace(extra))))
    omegas = omegas[:n]

    def weights_and_value(cols):
        p, rp = _refit_weights(cols, rho)
        q, rq = _refit_weights(cols, sigma)
        if max(rp, rq) > HULL_RESIDUAL_TOL or not np.any(p > 0.0) or not np.any(q > 0.0):
            return None
        return p, q, classical_renyi(WeightVector(p), WeightVector(q), alpha)

    start = weights_and_value(omegas)
    if start is None or not math.isfinite(start[2]):
        # refit could not reproduce the pair cleanly; keep the warm start
        return MaximalDivergenceResult(value=rt_renyi(base, alpha), rt=base, exact=False)
    best_cols = list(omegas)
    best_p, best_q, best_val = start
    for _ in range(restarts):
        step = 0.2
        for _ in range(60):
            j = int(rng.integers(len(best_cols)))
            delta = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            delta = 0.5 * (delta + delta.conj().T)
            cand_cols = list(best_cols)
            cand_cols[j] = HermitianOperator(
                _project_column(best_cols[j].entries + step * delta)
            )
            got = weights_and_value(cand_cols)
            if got is not None and got[2] < best_val - 1e-12:
                best_cols = cand_cols
                best_p, best_q, best_val = got
                step = min(step * 1.3, 0.5)
            else:
                step *= 0.8
                if step < 1e-4:
                    break
    final = ReverseTest(tuple(best_cols), WeightVector(best_p), WeightVector(best_q))
    value = rt_renyi(final, alpha)
    if value > closed_form + 1e-6 or not validate_reverse_test(final, rho, sigma):
        # search drifted; the warm start is always a sound certificate
        return MaximalDivergenceResult(
            value=rt_renyi(base, alpha), rt=base, exact=False
        )
    return MaximalDivergenceResult(value=value, rt=final, exact=False)
