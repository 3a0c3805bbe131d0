"""Reverse tests: classical preparations realizing an operator pair.

A reverse test stores columns (unit-trace PSD operators) and a weight
pair (p, q) with sum_i p_i omega_i = rho and sum_i q_i omega_i = sigma.
Its classical divergence is an upper bound certificate on the maximal
divergence of the pair; column reduction via convex-hull folding keeps
the certificate valid and never increases it.  The spectral test and the
split-eigenbasis test are read off the pair record (opcore._Pair): the
eigensystem of sigma^-1/2 rho sigma^-1/2 and the two cut spectra.  The
maximal divergence is the closed form d_hat_alpha with the spectral test
as its certificate: exact up to alpha = 2, an upper bound above; there is
no search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import (
    ConvexFunctionSpec,
    WeightVector,
    as_weights,
    classical_fdiv,
)
from .divergences import d_hat_alpha
from .errors import (
    BadParamsError,
    DimMismatchError,
    NoConvexWitnessError,
    SupportViolationError,
)
from .opcore import HermitianOperator, _checked_pair, as_operator, support_leq

#: residual below which a column counts as lying in the hull of the rest
HULL_RESIDUAL_TOL = 1e-9


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


def _rank_one_columns(vecs: np.ndarray) -> tuple[HermitianOperator, ...]:
    """The columns u u^dag / |u|^2 of the columns u of vecs."""
    return tuple(HermitianOperator(np.outer(u, u.conj()) / np.vdot(u, u).real) for u in vecs.T)


def spectral_reverse_test(rho, sigma) -> ReverseTest:
    """Reverse test from the eigenbasis of sigma^-1/2 rho sigma^-1/2; requires supp rho in supp sigma.

    For each eigenvector u on sigma's support, with eigenvalue lam, the
    column is sigma^1/2 u u^dag sigma^1/2 / t with t = u^dag sigma u, and
    its weights are (lam t, t): the pair record's spectral_test, whose
    classical Renyi value d_hat_alpha is, bit for bit, at every order.
    """
    rho, sigma = as_operator(rho), as_operator(sigma)
    if not support_leq(rho, sigma):
        raise SupportViolationError("support of rho leaks outside sigma")
    roots, p, t = _checked_pair(rho, sigma).spectral_test
    return ReverseTest(_rank_one_columns(roots), WeightVector(p), WeightVector(t))


def split_eigen_reverse_test(rho, sigma) -> ReverseTest:
    """Fallback test from the separate eigenbases of rho and sigma.

    Always valid, no support condition; its classical supports are
    disjoint, so the certificate is vacuous above alpha = 1 and only
    meaningful structurally (it feeds reduction, not tight bounds).  The
    columns are rho's kept eigenvectors, then sigma's.
    """
    pair = _checked_pair(rho, sigma)
    (a, v, ka), (b, w, kb) = pair.rho_cut, pair.sigma_cut
    p = np.concatenate([a[ka], np.zeros(np.count_nonzero(kb))])
    q = np.concatenate([np.zeros(np.count_nonzero(ka)), b[kb]])
    columns = _rank_one_columns(np.hstack([v[:, ka], w[:, kb]]))
    return ReverseTest(columns, WeightVector(p), WeightVector(q))


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


def maximal_divergence_upper(rho, sigma, alpha: float) -> MaximalDivergenceResult:
    """Certificate for the maximal Renyi divergence of a pair.

    The value is the perspective closed form d_hat_alpha and the
    certificate the spectral reverse test, whose classical value it is.
    Up to alpha = 2 the closed form is the exact infimum over reverse
    tests (exact is True); above 2 it is only an upper bound.  Where rho
    leaks out of sigma's support (alpha < 1 only, else a
    SupportViolationError) the split-eigenbasis test stands in.  d_hat_alpha
    rejects an alpha outside (0, 1) and (1, inf).
    """
    rho, sigma = as_operator(rho), as_operator(sigma)
    try:
        rt = spectral_reverse_test(rho, sigma)
    except SupportViolationError:
        if alpha > 1.0:
            raise
        rt = split_eigen_reverse_test(rho, sigma)
    return MaximalDivergenceResult(value=d_hat_alpha(rho, sigma, alpha), rt=rt, exact=alpha <= 2.0)
