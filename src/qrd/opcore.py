"""Hermitian operator algebra at desk scale.

The one support decision of the package (which eigenvalues count as
zero, and whether rho leaks out of supp sigma), the block decision
(which eigenvalues count as equal) and the pair record built on them,
which every divergence of a pair reads; supported real powers, logs on
the support and support projections (all one spectral map), projection
meet, PSD order checks, the pinched exponential of the large-z
divergence limit and its gradient, divided differences of spectral
functions (Daleckii-Krein gradients), and the one optimizer of the
package: gradient ascent on the complex Stiefel manifold (the
channel-input and POVM searches) or in a box (the measured divergence's
variational formula).  Everything runs on exact eigendecompositions of
d x d Hermitian matrices with a relative cutoff standing in for exact
spectral projections.  All logs are natural, so values are in nats.
"""

from __future__ import annotations

import math
import weakref
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import (
    DimMismatchError,
    DimTooLargeError,
    GenericityUndeterminedError,
    MalformedInputError,
    NotPSDError,
    ZeroOperatorError,
    check_alpha,
)

#: absolute tolerance for the hermiticity check on construction
HERMITICITY_ATOL = 1e-10

#: a matrix is rejected as not PSD when min eig < -PSD_REJECT_RTOL * max eig
PSD_REJECT_RTOL = 1e-8

#: eigenvalues at most SUPPORT_RTOL * max eig count as exact zeros
SUPPORT_RTOL = 1e-12

#: adjacent-eigenvalue gaps between these relative thresholds make the
#: block clustering ambiguous
CLUSTER_TOL = 1e-10
CLUSTER_AMBIGUOUS = 1e-8

#: slack used by support-inclusion tests (rho^0 <= sigma^0 and friends)
SUPPORT_TEST_SLACK = 1e-8

#: support-inclusion defects between the strict cutoff and the test slack
#: mark a borderline branch choice
BORDERLINE_BAND = (1e-12, SUPPORT_TEST_SLACK)

#: eigenvalues of P+Q within this distance of 2 span the meet of P and Q
MEET_EIGENVALUE_TOL = 1e-8

MAX_DIM = 64

#: eigenvalues this close (relative) share a divided difference: the mean
#: derivative, whose error ~gap^2 balances the quotient's rounding ~eps/gap
DIVIDED_DIFFERENCE_RTOL = 1e-5

#: stiefel_ascent: sufficient-increase constant of the Armijo test, the
#: length of the first trial move and of any move, the projected-gradient
#: norm at which it stops, the halvings before a step counts as failed,
#: the Stiefel geometry's L-BFGS memory (past steps its directions use),
#: and the predicted gain, relative to max(1, |f|), below which the Armijo
#: test meets f's rounding
ARMIJO_C = 1e-4
ASCENT_FIRST_MOVE = 0.1
ASCENT_MAX_MOVE = 1.0
ASCENT_GTOL = 1e-10
ASCENT_HALVINGS = 30
ASCENT_MEMORY = 8
ASCENT_ROUNDING = 4.0 * float(np.finfo(float).eps)


class HermitianOperator:
    """A square complex Hermitian matrix with a cached eigendecomposition.

    Eigenvalues are stored descending; the decomposition is computed once
    and reused by every operation, which keeps repeated divergence
    evaluations on the same pair cheap and reproducible.  The operator
    also holds the pair records (_checked_pair) in which it is rho, keyed
    weakly by sigma, so the entries must not be changed after the first
    use.
    """

    def __init__(self, entries) -> None:
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise MalformedInputError(f"expected a non-empty square matrix, got shape {m.shape}")
        if m.shape[0] > MAX_DIM:
            raise DimTooLargeError(
                f"dimension {m.shape[0]} exceeds the supported maximum {MAX_DIM}"
            )
        if not np.isfinite(m).all():
            raise MalformedInputError("matrix has non-finite entries")
        mh = np.ascontiguousarray(m.conj().T)  # contiguous, so that neither sum below mixes layouts
        gap = float(np.abs(m - mh).max())
        if gap > HERMITICITY_ATOL:
            raise MalformedInputError(f"matrix is not Hermitian (deviation {gap:.3e})")
        # symmetrize away the sub-tolerance residue so eigh sees an exact input
        self.entries = 0.5 * (m + mh)
        self.dim = int(m.shape[0])

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        return _eigh_descending(self.entries)

    @cached_property
    def _pairs(self) -> weakref.WeakKeyDictionary:
        return weakref.WeakKeyDictionary()

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eig[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self.eig[1]

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.entries)))

    @property
    def spectral_norm(self) -> float:
        w = self.eigenvalues
        return float(max(abs(w[0]), abs(w[-1])))

    def __repr__(self) -> str:  # pragma: no cover
        return f"HermitianOperator(dim={self.dim}, trace={self.trace:.6g})"


class Projection(HermitianOperator):
    """Hermitian idempotent; rank counts eigenvalues at 1."""

    def __init__(self, entries, rank: int | None = None) -> None:
        super().__init__(entries)
        p = self.entries
        if not np.allclose(p @ p, p, rtol=0.0, atol=1e-10):
            raise MalformedInputError("matrix is not idempotent within 1e-10")
        self.rank = int(round(self.trace)) if rank is None else int(rank)


def _eigh_descending(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh with the eigenvalues descending; a stack of matrices gives a stack of eigensystems."""
    w, v = np.linalg.eigh(m)
    return np.ascontiguousarray(w[..., ::-1]), np.ascontiguousarray(v[..., ::-1])


def as_operator(x) -> HermitianOperator:
    """Coerce a matrix-like into a HermitianOperator (no-op if it is one)."""
    return x if isinstance(x, HermitianOperator) else HermitianOperator(x)


def _cut_spectrum(w: np.ndarray, v, rtol: float = SUPPORT_RTOL):
    """The support decision on an eigensystem (w, v): (w, v, kept).

    Rejects a matrix whose most negative eigenvalue is below
    -PSD_REJECT_RTOL times the largest, clamps smaller negative dust to
    0, and keeps the eigenvalues above rtol (by default SUPPORT_RTOL)
    times the largest.  w is sorted either way (eigh's ascending order or
    the operators' descending one), so its extremes are its ends.  Every
    module decides supports and thresholds through this function.
    """
    top, bottom = (w[0], w[-1]) if w[0] >= w[-1] else (w[-1], w[0])
    lam_max = max(float(top), 0.0)
    if float(bottom) < -PSD_REJECT_RTOL * lam_max:
        raise NotPSDError(
            f"min eigenvalue {bottom:.3e} below -{PSD_REJECT_RTOL:g} * {lam_max:.3e}"
        )
    w = np.maximum(w, 0.0)
    return w, v, w > rtol * lam_max


def _cluster_bounds(values: np.ndarray) -> tuple[int, ...]:
    """Blocks of a sorted, nonnegative (cut) spectrum: bounds (0, k1, ..., d), block one [0, k1)."""
    values = values.tolist()
    scale = max(values[0], values[-1], 1e-300)
    bounds = [0]
    for k in range(1, len(values)):
        gap = abs(values[k - 1] - values[k])
        if CLUSTER_TOL * scale < gap < CLUSTER_AMBIGUOUS * scale:
            raise GenericityUndeterminedError(
                f"near-degenerate spectrum: gap {gap:.3e} at position {k}"
            )
        if gap >= CLUSTER_AMBIGUOUS * scale:
            bounds.append(k)
    bounds.append(len(values))
    return tuple(bounds)


def spectral_map(A, fn) -> tuple[np.ndarray, int]:
    """fn on the eigenvalues above the cutoff, zero on the rest.

    Returns the matrix as a plain array together with the number of kept
    eigenvalues (the support rank).  supported_power, logn and
    support_projection wrap this in an operator; callers that only need
    the entries use the array directly.
    """
    cut = _cut_spectrum(*as_operator(A).eig)
    return _rebuild(cut, fn), int(np.count_nonzero(cut[2]))


def _rebuild(cut, fn) -> np.ndarray:
    """fn on the kept eigenvalues of a cut eigensystem (w, v, kept), zero on the rest; stacked ones stack."""
    w, v, kept = cut
    vals = np.zeros_like(w)
    vals[kept] = fn(w[kept])
    m = (v * vals[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return 0.5 * (m + np.ascontiguousarray(m.conj().swapaxes(-1, -2)))


def supported_power(A, x: float) -> HermitianOperator:
    """Real power taken on the support only: sum of s^x P_s over s > cutoff.

    For x = 0 this is the support projection; negative powers invert on the
    support and vanish on the kernel, so A^-x A^x equals the support
    projection rather than the identity.
    """
    return HermitianOperator(spectral_map(A, lambda w: w ** float(x))[0])


def support_projection(A) -> Projection:
    """Projection onto the span of eigenvectors above the cutoff."""
    return Projection(*spectral_map(A, np.ones_like))


def support_defect(rho: np.ndarray, tr: float, kernel: np.ndarray) -> float:
    """Relative mass of rho on the orthonormal columns of kernel.

    With kernel sigma's cut-off eigenvectors this is the support-inclusion
    test of the divergence family: rho^0 <= sigma^0 holds when it is at
    most SUPPORT_TEST_SLACK.  Summed over the kernel directly, it builds
    no support projection and avoids the cancellation of tr - Tr P rho P.
    A projector eigenvalue gap would scale like an amplitude for low-rank
    rho and misread harmless perturbations as violations; the mass does
    not.
    """
    return float(np.real(np.sum(kernel.conj() * (rho @ kernel)))) / tr


@dataclass(frozen=True)
class _Pair:
    """A validated pair as the divergence kernels read it (see _pair).

    rho and sigma hold the symmetrized entries, the cuts the descending
    eigensystems (a, V, kept) and (b, W, kept) from _cut_spectrum, and
    overlap the matrix U = V^dag W, so that rho = V diag(a) V^dag and sigma
    = V U diag(b) U^dag V^dag: in rho's eigenbasis every function of the pair
    is a function of a, b and U.  Three arrays derived from U are built on
    first use and kept with the record: weights, rho_in_sigma, and
    ratio_cut, the cut eigensystem of the ratio operator sigma^-1/2 rho
    sigma^-1/2 on sigma's kept block; so are spectral_test, its reverse
    test, i_bounds and j_bounds, the blocks of equal eigenvalues of a and b
    (_cluster_bounds) that the z -> 0 limit reads, rank, 0 on orthogonal
    supports, and roots, the supported square roots of rho and sigma that
    the measured searches read.  Kernels never write them.
    """

    rho: np.ndarray
    sigma: np.ndarray
    rho_cut: tuple[np.ndarray, np.ndarray, np.ndarray]
    sigma_cut: tuple[np.ndarray, np.ndarray, np.ndarray]
    overlap: np.ndarray
    tr: float
    included: bool
    borderline: bool

    @cached_property
    def weights(self) -> np.ndarray:
        """|U_ij|^2 over rho's kept (rows) and sigma's kept (columns) eigenvalues."""
        return np.abs(self.overlap[self.rho_cut[2]][:, self.sigma_cut[2]]) ** 2

    @cached_property
    def rank(self) -> int:
        """Rank of U_kept, so of every finite-z kernel's inner matrix: 0 on orthogonal supports."""
        ka, kb = self.rho_cut[2], self.sigma_cut[2]
        if ka[-1] or kb[-1]:  # a cut keeps a prefix: U_kept's rows or columns are orthonormal
            return int(min(np.count_nonzero(ka), np.count_nonzero(kb)))
        return int(np.sum(np.linalg.svd(self.overlap[ka][:, kb], compute_uv=False) > SUPPORT_RTOL))

    @cached_property
    def rho_in_sigma(self) -> np.ndarray:
        """rho / a_max in sigma's eigenbasis on the kept block: U_k^dag diag(a_k / a_max) U_k."""
        (a, _, ka), kb = self.rho_cut, self.sigma_cut[2]
        u = self.overlap[ka][:, kb]
        return u.conj().T @ ((a[ka] / a[0])[:, None] * u)

    @cached_property
    def ratio_cut(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ratio operator's ascending cut eigensystem (lam, Q, kept), with eigenvectors W_kept Q.

        In sigma's eigenbasis, on the kept eigenvalues, sigma^-1/2 rho
        sigma^-1/2 is diag(s) R diag(s) for R = rho_in_sigma (rho / a_max)
        and s = (a_max / b)^1/2: no matrix product once R is built.  The cut
        sits at its rounding level, 16 eps times its largest eigenvalue, not
        at SUPPORT_RTOL: on an ill-conditioned sigma that largest grows like
        1 / b_min, and a relative cut of 1e-12 would drop real eigenvalues
        far above rounding.  The eigenvalues that eigh leaves on rho's
        kernel stay below it (at most 3.8 eps times the largest on random
        rank-deficient pairs up to d = 64).
        """
        (a, _, _), (b, _, kb) = self.rho_cut, self.sigma_cut
        s = np.sqrt(a[0] / b[kb])
        x = s[:, None] * self.rho_in_sigma * s
        return _cut_spectrum(*np.linalg.eigh(0.5 * (x + x.conj().T)), rtol=16.0 * float(np.finfo(float).eps))

    @cached_property
    def spectral_test(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The spectral reverse test: vectors sigma^1/2 u_k, u_k = W_kept Q e_k, and weights (lam_k t_k, t_k).

        t_k = |sigma^1/2 u_k|^2 = sum_j b_j |Q_jk|^2 and lam is 0 off ratio_cut's kept set; where rho
        fails the support test an outcome (rho's mass off sigma's support, 0) follows the weights.
        """
        lam, q, on = self.ratio_cut
        b, w, kb = self.sigma_cut
        roots = w[:, kb] @ (np.sqrt(b[kb])[:, None] * q)
        t = np.sum(np.abs(roots) ** 2, axis=0)
        p = np.where(on, lam, 0.0) * t
        if not self.included:
            p, t = np.append(p, support_defect(self.rho, self.tr, w[:, ~kb]) * self.tr), np.append(t, 0.0)
        return roots, p, t

    @cached_property
    def roots(self) -> np.ndarray:
        """The supported square roots of rho and sigma, stacked, from the cut eigensystems."""
        return _rebuild([np.array(cuts) for cuts in zip(self.rho_cut, self.sigma_cut)], np.sqrt)

    @cached_property
    def i_bounds(self) -> tuple[int, ...]:
        """Block boundaries of rho's cut spectrum a; raises on a near-degenerate one."""
        return _cluster_bounds(self.rho_cut[0])

    @cached_property
    def j_bounds(self) -> tuple[int, ...]:
        """Block boundaries of sigma's cut spectrum b; raises on a near-degenerate one."""
        return _cluster_bounds(self.sigma_cut[0])


def _pair(rho, rho_eig, sigma, sigma_eig) -> _Pair:
    """The pair record; raises on mismatched dimensions, a non-PSD or zero operator.

    included is the support_defect test of rho^0 <= sigma^0 on sigma's cut-off
    eigenvectors; borderline marks a defect between the cutoff and the slack.
    Both eigensystems are descending, so a cut keeps a prefix (all of it: no defect).
    """
    if len(rho_eig[0]) != len(sigma_eig[0]):
        raise DimMismatchError(f"dim {len(rho_eig[0])} vs {len(sigma_eig[0])}")
    rho_cut = _cut_spectrum(*rho_eig)
    if not rho_cut[2][0]:
        raise ZeroOperatorError("rho is (numerically) zero")
    sigma_cut = _cut_spectrum(*sigma_eig)
    _, w, kept = sigma_cut
    if not kept[0]:
        raise ZeroOperatorError("sigma is (numerically) zero")
    tr = float(rho.trace().real)
    defect = 0.0 if kept[-1] else support_defect(rho, tr, w[:, ~kept])
    included = defect <= SUPPORT_TEST_SLACK
    borderline = included and defect > BORDERLINE_BAND[0]
    overlap = rho_cut[1].conj().T @ w
    return _Pair(rho, sigma, rho_cut, sigma_cut, overlap, tr, included, borderline)


def _stack_pair(m: np.ndarray) -> _Pair:
    """The pair record of a (2, d, d) stack of rho and sigma: symmetrized as by HermitianOperator, one eigh."""
    m = 0.5 * (m + m.conj().swapaxes(1, 2))
    w, v = _eigh_descending(m)
    return _pair(m[0], (w[0], v[0]), m[1], (w[1], v[1]))


def _checked_pair(rho, sigma) -> _Pair:
    """Validate a pair once: its record, from the operators' cached eigensystems.

    Every public pair entry point calls this exactly once and hands the
    record to its kernels.  Between two operators it is cached on rho,
    keyed weakly by sigma, so repeated calls (an alpha or z sweep) build it
    once and do not keep sigma alive.  Two arrays that pass the operator
    checks on their stack build it uncached by _stack_pair; other pairs go
    through HermitianOperator, which raises rho's failure first.
    """
    if isinstance(rho, HermitianOperator) and isinstance(sigma, HermitianOperator):
        pair = rho._pairs.get(sigma)
        if pair is None:
            pair = rho._pairs[sigma] = _pair(rho.entries, rho.eig, sigma.entries, sigma.eig)
        return pair
    if not (isinstance(rho, HermitianOperator) or isinstance(sigma, HermitianOperator)):
        try:
            m = np.array((rho, sigma), dtype=complex)
        except (TypeError, ValueError):  # not numeric, or ragged: the per-matrix path says which
            m = np.zeros(0)
        # square, of one size in 1..MAX_DIM, and Hermitian: a non-finite entry's deviation is NaN or inf
        if (m.ndim == 3 and m.shape[1] == m.shape[2] and 0 < m.shape[1] <= MAX_DIM
                and np.abs(m - m.conj().swapaxes(1, 2)).max() <= HERMITICITY_ATOL):
            return _stack_pair(m)
    rho, sigma = as_operator(rho), as_operator(sigma)
    return _pair(rho.entries, rho.eig, sigma.entries, sigma.eig)


def _array_pair(rho: np.ndarray, sigma: np.ndarray) -> _Pair:
    """The pair record of two PSD arrays of one shape, without the operator checks.

    _checked_pair builds two arrays' record the same way, so the kernels
    give the public functions' values on them bit for bit.
    """
    return _stack_pair(np.array((rho, sigma), dtype=complex))


def _meet(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning range(p) intersect range(q), p and q projections."""
    w, v = np.linalg.eigh(p + q)
    return v[:, np.abs(w - 2.0) <= MEET_EIGENVALUE_TOL]


def psd_leq(A, B, slack: float | None = None) -> bool:
    """PSD-order test A <= B, true when min eig of B-A >= -slack."""
    A = as_operator(A)
    B = as_operator(B)
    if A.dim != B.dim:
        raise DimMismatchError(f"dim {A.dim} vs {B.dim}")
    if slack is None:
        slack = 1e-10 * B.spectral_norm
    w = np.linalg.eigvalsh(B.entries - A.entries)
    return bool(w[0] >= -slack)


def support_leq(A, B) -> bool:
    """Support inclusion A^0 <= B^0 as a projector order test.

    Stricter than support_defect for low-rank A: a leak of amplitude t
    fails here once t exceeds the slack, there only once t^2 does.  It
    stays a separate test because its callers (the reverse tests) need
    A reproduced exactly on B's support, which a leak mass below the
    slack does not guarantee.
    """
    return psd_leq(support_projection(A), support_projection(B), SUPPORT_TEST_SLACK)


def logn(A) -> HermitianOperator:
    """Natural log on the support, zero on the kernel."""
    return HermitianOperator(spectral_map(A, np.log)[0])


def pinch_exp(rho, sigma, alpha: float) -> float:
    """Large-z limit kernel: Tr P exp(alpha P L_rho P + (1-alpha) P L_sigma P).

    P is the meet of the two supports and L denotes the log on the support.
    Returns +inf when alpha > 1 and the support of rho is not contained in
    that of sigma by the support_defect test, or when the trace leaves the
    float range.  When the supports are disjoint (P = 0, possible only for
    alpha < 1 here) the trace is empty and the value is 0.
    """
    check_alpha(alpha)
    return _exp_or_inf(_log_pinch_exp(_checked_pair(rho, sigma), alpha))


def _exp_or_inf(x: float) -> float:
    """math.exp, +inf where the value leaves the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _pinch_sum(pair: _Pair, alpha: float):
    """The log-sum H in rho's eigenbasis, the meet's basis (None if both supports are whole) and the shift.

    H = alpha diag(log a) + (1 - alpha) U diag(log b) U^dag on the kept eigenvalues of a / a_max and
    b / b_max; the shift is (alpha log a_max, (1 - alpha) log b_max), which H leaves out.
    """
    (a, _, ka), (b, _, kb) = pair.rho_cut, pair.sigma_cut
    sigma_cut = (b, pair.overlap, kb)  # sigma's cut eigensystem in rho's eigenbasis
    h = (1.0 - alpha) * _rebuild(sigma_cut, lambda w: np.log(w / b[0]))
    on = np.flatnonzero(ka)
    h[on, on] += alpha * np.log(a[on] / a[0])
    basis = None if ka.all() and kb.all() else _meet(np.diag(1.0 * ka), _rebuild(sigma_cut, np.ones_like))
    return h, basis, (alpha * math.log(a[0]), (1.0 - alpha) * math.log(b[0]))


def _log_pinch_exp(pair: _Pair, alpha: float) -> float:
    """log pinch_exp on a pair record: log-sum-exp of _pinch_sum's H on the meet, plus the shift."""
    if alpha > 1.0 and not pair.included:
        return math.inf
    h, basis, (shift_a, shift_b) = _pinch_sum(pair, alpha)
    if basis is not None:
        if basis.shape[1] == 0:
            return -math.inf
        h = basis.conj().T @ h @ basis
    lse = float(np.logaddexp.reduce(np.linalg.eigvalsh(0.5 * (h + h.conj().T))))
    return lse + shift_a + shift_b


def _pinch_grad(pair: _Pair, alpha: float):
    """Gradients in rho and sigma of log pinch_exp, in matrix form, from _pinch_sum.

    alpha DK_log[E] and (1 - alpha) DK_log[E] for E = P exp(P H P) P / Tr (...), normalized in the
    exponent, plus Tr (H E + E H) dP for the whole log-sum, _pinch_sum's H plus its shift: P moves
    with the smaller support when one holds the other, as 1(A) does.  In rho's eigenbasis E is
    rho's Daleckii-Krein C, and sigma's is U^dag E U.
    """
    h, basis, shift = _pinch_sum(pair, alpha)
    m = h if basis is None else basis.conj().T @ h @ basis
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    v = v if basis is None else basis @ v
    x = np.exp(w - w[-1])
    e, u = (v * (x / x.sum())) @ v.conj().T, pair.overlap
    g_rho = alpha * _dk_grad(pair.rho_cut, np.log, np.reciprocal, e)
    g_sigma = (1.0 - alpha) * _dk_grad(pair.sigma_cut, np.log, np.reciprocal, u.conj().T @ e @ u)
    if basis is not None:
        c = h @ e + e @ h + 2.0 * sum(shift) * e
        if basis.shape[1] == np.count_nonzero(pair.rho_cut[2]):
            g_rho = g_rho + _dk_grad(pair.rho_cut, np.ones_like, np.zeros_like, c)
        elif basis.shape[1] == np.count_nonzero(pair.sigma_cut[2]):
            g_sigma = g_sigma + _dk_grad(pair.sigma_cut, np.ones_like, np.zeros_like, u.conj().T @ c @ u)
    return g_rho, g_sigma


def divided_differences(w: np.ndarray, f: np.ndarray, df: np.ndarray) -> np.ndarray:
    """First divided differences (f_i - f_j) / (w_i - w_j) of a spectral function.

    f and df are the function and its derivative at the eigenvalues w;
    where two eigenvalues agree to DIVIDED_DIFFERENCE_RTOL the mean of the
    derivatives stands in for the quotient.  By the Daleckii-Krein formula
    the derivative of A -> g(A) in direction H is V (Gamma o V^dag H V) V^dag
    for A = V diag(w) V^dag, and the gradient of A -> Tr C g(A) is the
    same map applied to C.
    """
    gap = w[:, None] - w[None, :]
    scale = np.maximum(np.abs(w[:, None]), np.abs(w[None, :]))
    close = np.abs(gap) <= DIVIDED_DIFFERENCE_RTOL * scale
    quotient = (f[:, None] - f[None, :]) / np.where(close, 1.0, gap)
    return np.where(close, 0.5 * (df[:, None] + df[None, :]), quotient)


def _dk_grad(cut, fn, dfn, c: np.ndarray) -> np.ndarray:
    """Gradient of A -> Tr C fn(A) at A's cut eigensystem (w, V, kept), fn on the kept part; c = V^dag C V."""
    w, v, kept = cut
    f, df = np.zeros_like(w), np.zeros_like(w)
    f[kept], df[kept] = fn(w[kept]), dfn(w[kept])
    gamma = divided_differences(np.where(kept, w, 0.0), f, df)
    return v @ (gamma * c) @ v.conj().T


def _tangent(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Projection of g onto the tangent space of the Stiefel manifold at x."""
    xg = x.conj().T @ g
    return g - x @ (0.5 * (xg + xg.conj().T))


def _polar(x: np.ndarray) -> np.ndarray:
    """Nearest matrix with orthonormal columns (the polar retraction)."""
    u, _, vh = np.linalg.svd(x, full_matrices=False)
    return u @ vh


def _ip(a: np.ndarray, b: np.ndarray) -> float:
    """Real inner product Re Tr a^dag b of the ascent's metric."""
    return float(np.vdot(a, b).real)


#: where stiefel_ascent moves: retract(X) maps a trial point onto the set;
#: tangent(X, G) returns G projected onto the directions open at X and that
#: projection, which every search direction there passes; memory is the
#: number of past steps the L-BFGS directions use
Geometry = namedtuple("Geometry", "retract tangent memory")

#: the complex Stiefel manifold {X : X^dag X = I}, retracted by polar decomposition
STIEFEL = Geometry(_polar, lambda x, g: (_tangent(x, g), partial(_tangent, x)), ASCENT_MEMORY)


def box_geometry(bound: float, memory: int) -> Geometry:
    """C-contiguous complex matrices with real and imaginary parts in [-bound, bound].

    Trial points are clipped; a part on a face that the gradient pushes
    outward is blocked (zeroed in the gradient, the stopping test and every
    direction), as in L-BFGS-B's projected gradient.  Hermitian starts and
    gradients keep every point Hermitian.
    """

    def tangent(x, g):
        x, g = x.view(float), g.view(float)  # the real and imaginary parts
        free = ~(((x <= -bound) & (g < 0.0)) | ((x >= bound) & (g > 0.0)))
        return np.where(free, g, 0.0).view(complex), (
            lambda v: np.where(free, v.view(float), 0.0).view(complex)
        )

    def retract(x):
        return np.clip(x.view(float), -bound, bound).view(complex)

    return Geometry(retract, tangent, memory)


def stiefel_ascent(value_grad, x0: np.ndarray, iters: int, geometry: Geometry = STIEFEL):
    """Maximize f from x0 over the geometry's set, by default the Stiefel manifold.

    value_grad(X) returns (f, G), G the Euclidean gradient, so that
    f(X + dX) = f(X) + Re Tr G^dag dX to first order; G may be None when
    f is +inf.  A third item, when returned, is a preconditioner P: a map
    approximating the inverse Hessian of -f at X.  Each step projects G
    by the geometry's tangent map, turns it into a search direction by
    the L-BFGS two-loop recursion over the geometry's last memory steps
    (the initial matrix is P scaled by s.y / y.P(y), P the identity when
    not given; without memory the first move is P of the projected
    gradient, or without P has length ASCENT_FIRST_MOVE), halves the step
    until the Armijo test accepts it, and retracts.  Stored steps are
    used without transport and the direction is projected at the current
    point.  A value of +inf ends the ascent (the supremum is attained),
    as does a trial step whose predicted gain t * slope is at most
    ASCENT_ROUNDING * max(1, |f|), below f's rounding.  Returns (X, f,
    converged): converged is False only when the iters steps ran out
    before the projected gradient vanished or no step could raise f.
    """
    x = geometry.retract(x0)
    f, g, *pre = value_grad(x)
    if f == math.inf:
        return x, f, True
    xi, project = geometry.tangent(x, g)
    memory: list[tuple[np.ndarray, np.ndarray, float]] = []  # (s, y, 1 / s.y)
    for _ in range(iters):
        gn = math.sqrt(_ip(xi, xi))
        if gn <= ASCENT_GTOL:
            return x, f, True
        d = xi
        if memory:
            coefs = []
            for s, y, r in reversed(memory):
                c = r * _ip(s, d)
                coefs.append(c)
                d = d - c * y
            s, y, _ = memory[-1]
            py, d = (pre[0](y), pre[0](d)) if pre else (y, d)
            d = (_ip(s, y) / _ip(y, py)) * d
            for (s, y, r), c in zip(memory, reversed(coefs)):
                d = d + (c - r * _ip(y, d)) * s
            d = project(d)
        slope = _ip(d, xi)
        if not memory or slope <= 0.0:
            memory.clear()
            d = project(pre[0](xi)) if pre else xi
            if not pre or _ip(d, xi) <= 0.0:
                d = (ASCENT_FIRST_MOVE / gn) * xi
            slope = _ip(d, xi)
        t = min(1.0, ASCENT_MAX_MOVE / math.sqrt(_ip(d, d)))
        for _ in range(ASCENT_HALVINGS):
            if t * slope <= ASCENT_ROUNDING * max(1.0, abs(f)):
                return x, f, True
            cand = geometry.retract(x + t * d)
            f_new, g_new, *pre_new = value_grad(cand)
            if f_new >= f + ARMIJO_C * t * slope:
                break
            t *= 0.5
        else:
            return x, f, True
        if f_new == math.inf:
            return cand, f_new, True
        xi_new, project = geometry.tangent(cand, g_new)
        # a step and the change of the gradient of -f along it
        s, y = cand - x, xi - xi_new
        sy = _ip(s, y)
        if sy > 0.0:
            memory.append((s, y, 1.0 / sy))
            del memory[:-geometry.memory]
        x, f, xi, pre = cand, f_new, xi_new, pre_new
    return x, f, False


def commutator_spectral_norm(A, B) -> float:
    """Spectral norm of [A, B]; zero exactly when the pair commutes."""
    A = as_operator(A)
    B = as_operator(B)
    c = A.entries @ B.entries - B.entries @ A.entries
    return float(np.linalg.norm(c, 2))
