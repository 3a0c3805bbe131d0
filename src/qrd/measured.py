"""Measured and test-measured Renyi divergences via measurement optimization.

For alpha >= 1/2 the measured divergence is the optimum of the convex
variational formula of Berta, Fawzi and Tomamichel (2017,
arXiv:1512.02615); its optimum is attained by the projective measurement
in the eigenbasis of the optimal omega, so the returned value is the
global optimum up to solver tolerance.  Below 1/2 a POVM search runs
and global optimality is not claimed; commuting pairs are covered by
always seeding a joint eigenbasis measurement.  The two-outcome test
variant is a one-dimensional search over Neyman-Pearson projections
{rho - t sigma > 0}, which contain the optimal test, so its value is
the optimum up to the angle search's resolution.

All output is a certified lower bound: any feasible POVM certifies its
own classical divergence, and returned values are always recomputed
exactly from the returned POVM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import WeightVector, classical_renyi
from .errors import BadAlphaError, DimMismatchError, DimTooLargeError, ZeroOperatorError
from .opcore import (
    SUPPORT_TEST_SLACK,
    HermitianOperator,
    as_operator,
    spectral_map,
    support_defect,
)

#: ridge added to each raw POVM factor so the normalization is always
#: invertible and iterates stay exactly feasible
POVM_RIDGE = 1e-10

#: central-difference step on raw optimizer parameters
GRAD_H = 1e-6

#: an infinite divergence is only trusted when some outcome carries at
#: least this much mass on one side and exactly none on the other
INF_CERT_TOL = 1e-8

#: stand-in for infinities that fail certification; finite so that the
#: optimizers step away from rounding cliffs instead of chasing them
DEMOTED = -1e18

#: irrational mixing weight for the joint-eigenbasis seed; avoids the
#: rho + sigma = multiple-of-identity trap that an equal-weight sum hits
EIGENBASIS_MIX = 0.6180339887498949

MAX_TENSOR_DIM = 64

#: lowest order at which the variational formula is a convex program;
#: below it the POVM ascent runs
CONVEX_ALPHA_MIN = 0.5

#: box on the entries of the log-ratio matrix K (omega = exp(alpha K)); on
#: rank-deficient pairs the optimum lies at infinity and the box keeps
#: every iterate finite
LOG_RATIO_BOX = 30.0

#: iteration cap of each L-BFGS solve
LBFGS_MAXITER = 500

#: grid angles per interval of test_measured's Neyman-Pearson search
NP_GRID = 16

#: bracket width (radians) at which the golden-section refinement stops
NP_ANGLE_TOL = 1e-9

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class POVM:
    """Finite POVM; elements sum to the identity."""

    elements: tuple[HermitianOperator, ...]

    def __post_init__(self):
        if not self.elements:
            raise DimMismatchError("POVM needs at least one element")
        d = self.elements[0].dim
        total = np.zeros((d, d), dtype=complex)
        for el in self.elements:
            if el.dim != d:
                raise DimMismatchError("POVM elements on different dimensions")
            if float(el.eigenvalues[-1]) < -1e-10:
                raise ValueError(f"POVM element has eigenvalue {el.eigenvalues[-1]:.3e}")
            total += el.entries
        if not np.allclose(total, np.eye(d), rtol=0.0, atol=1e-9):
            gap = float(np.max(np.abs(total - np.eye(d))))
            raise ValueError(f"POVM completeness violated by {gap:.3e}")

    @property
    def dim(self) -> int:
        return self.elements[0].dim


@dataclass(frozen=True)
class MeasuredResult:
    value: float
    povm: POVM
    restarts_used: int
    converged: bool


def apply_povm(povm: POVM, rho) -> WeightVector:
    """Outcome weights (Tr M_i rho)_i of a measurement."""
    rho = as_operator(rho)
    if rho.dim != povm.dim:
        raise DimMismatchError(f"dim {rho.dim} vs POVM dim {povm.dim}")
    vals = np.array(
        [float(np.real(np.trace(el.entries @ rho.entries))) for el in povm.elements]
    )
    if np.any(vals < -1e-12):
        raise ValueError(f"measurement produced weight {vals.min():.3e}")
    return WeightVector(np.clip(vals, 0.0, None))


def _normalizer_inverse_root(factors: np.ndarray):
    """Scaled factors, their Gram blocks G_k and the inverse root of sum G_k.

    Factors are rescaled to unit mean Frobenius norm first (the POVM is
    invariant under a common rescaling) so the ridge keeps a stable
    relative size and the normalizer never loses rank.
    """
    k, d, _ = factors.shape
    scale2 = float(np.sum(np.abs(factors) ** 2)) / k
    if scale2 > 0.0:
        factors = factors / math.sqrt(scale2)
    g = np.einsum("kij,klj->kil", factors, factors.conj())
    g = g + POVM_RIDGE * np.eye(d)[None, :, :]
    s = g.sum(axis=0)
    w, v = np.linalg.eigh(0.5 * (s + s.conj().T))
    w = np.clip(w, 0.5 * k * POVM_RIDGE, None)
    s_inv = (v / np.sqrt(w)) @ v.conj().T
    return g, s_inv


def _povm_from_factors(factors: np.ndarray) -> POVM:
    """Normalize raw factors A_k into M_k = S^-1/2 (A_k A_k^dag + ridge) S^-1/2."""
    k = factors.shape[0]
    g, s_inv = _normalizer_inverse_root(factors)
    m = np.einsum("ij,kjl,lm->kim", s_inv, g, s_inv)
    m = 0.5 * (m + np.conj(np.transpose(m, (0, 2, 1))))
    return POVM(tuple(HermitianOperator(m[i]) for i in range(k)))


def _certified_value(p: WeightVector, q: WeightVector, alpha: float) -> float:
    """Classical divergence with floating-point infinities demoted.

    Rounding can zero out an outcome weight on one side while dust
    survives on the other, which reads as a support violation and an
    infinite value.  Only infinities carried by macroscopic mass (an
    outcome with weight above INF_CERT_TOL facing an exact zero) are
    kept; the rest become DEMOTED so search moves away from the cliff.
    """
    val = classical_renyi(p, q, alpha)
    if not math.isinf(val):
        return val
    certified = bool(np.any((q.values == 0.0) & (p.values >= INF_CERT_TOL)))
    return math.inf if certified else DEMOTED


def _factor_weights(factors, rho_entries, sigma_entries):
    """Outcome weight pair of the normalized POVM, without building it."""
    g, s_inv = _normalizer_inverse_root(factors)
    rho_t = s_inv @ rho_entries @ s_inv
    sig_t = s_inv @ sigma_entries @ s_inv
    p = np.einsum("kij,ji->k", g, rho_t).real
    q = np.einsum("kij,ji->k", g, sig_t).real
    return np.clip(p, 0.0, None), np.clip(q, 0.0, None)


def _ascend(objective, x0: np.ndarray, iters: int, step0: float = 0.05):
    """Gradient ascent with central differences and adaptive step size.

    The objective is a function of a flat real vector and may return +inf;
    hitting +inf stops the climb (the supremum is attained).
    """
    x = x0.copy()
    best = objective(x)
    if math.isinf(best):
        return x, best, True
    step = step0
    stalls = 0
    for _ in range(iters):
        g = np.zeros_like(x)
        for i in range(len(x)):
            xp = x.copy()
            xp[i] += GRAD_H
            fp = objective(xp)
            xm = x.copy()
            xm[i] -= GRAD_H
            fm = objective(xm)
            if math.isinf(fp):
                return xp, math.inf, True
            if math.isinf(fm):
                return xm, math.inf, True
            g[i] = (fp - fm) / (2.0 * GRAD_H)
        gn = float(np.linalg.norm(g))
        if gn < 1e-12:
            return x, best, True
        moved = False
        for _ in range(12):
            cand = x + step * g / gn
            val = objective(cand)
            if math.isinf(val):
                return cand, math.inf, True
            if val > best + 1e-11:
                x, best = cand, val
                step *= 1.6
                moved = True
                break
            step *= 0.5
        if not moved:
            stalls += 1
            if stalls >= 3:
                return x, best, True
        else:
            stalls = 0
    return x, best, False


def _eigenbasis_factors(basis: np.ndarray, n_outcomes: int) -> np.ndarray:
    d = basis.shape[0]
    factors = np.zeros((n_outcomes, d, d), dtype=complex)
    for i in range(min(d, n_outcomes)):
        v = basis[:, i]
        factors[i] = np.outer(v, v.conj())
    return factors


def _seed_bases(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    """The joint eigenbasis and the eigenbasis of sigma^-1/2 rho sigma^-1/2."""
    joint = np.linalg.eigh(rho.entries + EIGENBASIS_MIX * sigma.entries)[1]
    s_inv = spectral_map(sigma, lambda w: w ** -0.5)[0]
    x = s_inv @ rho.entries @ s_inv
    ratio_basis = np.linalg.eigh(0.5 * (x + x.conj().T))[1]
    return joint, ratio_basis


def _seed_factor_list(rho, sigma, n_outcomes, restarts, rng, extra=()):
    """Deterministic structured seeds first, then random ones."""
    d = rho.dim
    seeds = list(extra)
    seeds.extend(_eigenbasis_factors(basis, n_outcomes) for basis in _seed_bases(rho, sigma))
    floor = len(seeds)
    while len(seeds) < restarts:
        seeds.append(
            rng.normal(size=(n_outcomes, d, d)) + 1j * rng.normal(size=(n_outcomes, d, d))
        )
    return seeds[: max(restarts, floor)]


def _ascent_povm(rho, sigma, alpha, restarts, seed, iters, extra):
    """Best POVM of the d^2-outcome ascent: (povm, restarts used, converged)."""
    n_outcomes = rho.dim ** 2
    shape = (n_outcomes, rho.dim, rho.dim)
    size = int(np.prod(shape))
    rho_e, sig_e = rho.entries, sigma.entries

    def objective(xflat):
        factors = xflat[:size].reshape(shape) + 1j * xflat[size:].reshape(shape)
        p, q = _factor_weights(factors, rho_e, sig_e)
        return _certified_value(WeightVector(p), WeightVector(q), alpha)

    best_val = -math.inf
    best_x = None
    converged = False
    rng = np.random.default_rng([seed, 0x6D65])
    seeds = _seed_factor_list(rho, sigma, n_outcomes, restarts, rng, extra)
    for factors in seeds:
        x0 = np.concatenate([factors.real.ravel(), factors.imag.ravel()])
        x, val, conv = _ascend(objective, x0, iters)
        if best_x is None or val > best_val:
            best_val, best_x, converged = val, x, conv
    factors = best_x[:size].reshape(shape) + 1j * best_x[size:].reshape(shape)
    return _povm_from_factors(factors), len(seeds), converged


def _projective(basis: np.ndarray) -> POVM:
    """Projectors onto the orthonormal columns of basis.

    When the columns span less than the whole space, the projector onto
    the rest joins the first outcome.
    """
    elements = [np.outer(v, v.conj()) for v in basis.T]
    d, k = basis.shape
    if k < d:
        elements[0] = elements[0] + np.eye(d) - basis @ basis.conj().T
    return POVM(tuple(HermitianOperator(m) for m in elements))


def _log_trace_exp(a_t: np.ndarray, h: np.ndarray, s: float):
    """phi_s(K) = (1/s) log Tr A exp(sK) and its gradient, in K's eigenbasis.

    a_t is A in the eigenbasis of K, whose eigenvalues are h.  By the
    Daleckii-Krein formula the gradient is (Gamma o a_t) / Tr A exp(sK),
    Gamma being the divided differences of exp(s x) / s; s = 0 is the
    limit Tr A K of a unit-trace A.  Exponents are shifted by their
    maximum, which cancels in both outputs.
    """
    weights = np.real(np.diag(a_t))
    if s == 0.0:
        return float(weights @ h), a_t
    e = s * h
    shift = float(e.max())
    e = np.exp(e - shift)
    x = 0.5 * s * (h[:, None] - h[None, :])
    small = np.abs(x) < 1e-2
    # (e_i - e_j) / (2x), and its series sqrt(e_i e_j) sinh(x)/x where that cancels
    ratio = (e[:, None] - e[None, :]) / np.where(small, 1.0, 2.0 * x)
    x2 = x * x
    series = np.sqrt(np.outer(e, e)) * (1.0 + x2 / 6.0 + x2 * x2 / 120.0)
    gamma = np.where(small, series, ratio)
    total = max(float(weights @ e), np.finfo(float).tiny)
    return (math.log(total) + shift) / s, gamma * a_t / total


def _variational_povms(rho, sigma, alpha, extra):
    """Candidate measurements of the variational formula: (povms, starts, converged).

    Berta, Fawzi and Tomamichel: Q_M is the supremum (alpha > 1) or
    infimum (1/2 <= alpha < 1) over omega > 0 of
    alpha Tr rho omega^(1-1/alpha) + (1-alpha) Tr sigma omega, and
    D_M = sup_omega Tr rho log omega + Tr rho - Tr sigma omega at alpha = 1.
    With the scale of omega = exp(alpha K) optimized out and rho of unit
    trace, L-BFGS-B maximizes over the entries of K

        D(K) = alpha/(alpha-1) log Tr rho exp((alpha-1) K) - log Tr sigma exp(alpha K)

    (Tr rho K - log Tr sigma exp(K) at alpha = 1), from each seed basis
    with the seed's log outcome ratios as eigenvalues.  Every stationary
    point is a global optimum, the exponential map being a diffeomorphism
    onto omega > 0.  K lives in sigma's eigenbasis, cut to sigma's support
    for alpha >= 1, where rho^0 <= sigma^0 holds.  The candidates are the
    seed measurements, the extra seed factors and each final K's eigenbasis.
    """
    from scipy.optimize import minimize  # deferred: slow to import, only the search needs it

    w, v = sigma.eig
    n = spectral_map(sigma, np.ones_like)[1] if alpha >= 1.0 else rho.dim
    iso = v[:, :n]
    # square roots: sigma is diag(w) in these coordinates, rho is rho_root rho_root^dag
    sig_root = np.sqrt(np.maximum(w[:n], 0.0))
    a, b = rho.eig
    rho_root = iso.conj().T @ (b * np.sqrt(np.maximum(a, 0.0) / rho.trace))
    iu = np.triu_indices(n, 1)
    n_off = len(iu[0])

    def unpack(x):
        k = np.zeros((n, n), dtype=complex)
        k[iu] = x[n : n + n_off] + 1j * x[n + n_off :]
        k = k + k.conj().T
        k[np.diag_indices(n)] = x[:n]
        return k

    def pack(m, off_weight=1.0):
        return np.concatenate(
            [np.real(np.diag(m)), off_weight * m[iu].real, off_weight * m[iu].imag]
        )

    def neg_objective(x):
        h, u = np.linalg.eigh(unpack(x))
        uh = u.conj().T
        r_t = uh @ rho_root
        s_t = uh * sig_root
        f_rho, g_rho = _log_trace_exp(r_t @ r_t.conj().T, h, alpha - 1.0)
        f_sig, g_sig = _log_trace_exp(s_t @ s_t.conj().T, h, alpha)
        grad = alpha * (u @ (g_rho - g_sig) @ uh)
        # an off-diagonal entry and its conjugate move together: weight 2
        return -alpha * (f_rho - f_sig), -pack(grad, 2.0)

    bases = _seed_bases(rho, sigma)
    povms = [_projective(basis) for basis in bases]
    povms.extend(_povm_from_factors(factors) for factors in extra)
    bounds = [(-LOG_RATIO_BOX, LOG_RATIO_BOX)] * (n * n)
    converged = False
    tiny = np.finfo(float).tiny
    for basis in bases:
        p = np.real(np.einsum("ji,jk,ki->i", basis.conj(), rho.entries, basis)) / rho.trace
        q = np.real(np.einsum("ji,jk,ki->i", basis.conj(), sigma.entries, basis))
        ratio = np.log(np.maximum(p, tiny)) - np.log(np.maximum(q, tiny))
        seed = iso.conj().T @ basis
        k0 = (seed * np.clip(ratio, -LOG_RATIO_BOX, LOG_RATIO_BOX)) @ seed.conj().T
        res = minimize(
            neg_objective, pack(k0), jac=True, method="L-BFGS-B", bounds=bounds,
            options={"maxiter": LBFGS_MAXITER, "ftol": 1e-15, "gtol": 1e-11},
        )
        converged = converged or bool(res.success)
        povms.append(_projective(iso @ np.linalg.eigh(unpack(res.x))[1]))
    return povms, len(bases), converged


def _structural_infinity(rho, sigma, alpha) -> POVM | None:
    """Support-projector POVM certifying an infinite measured divergence.

    The optimizer cannot certify exact zeros through the ridge, so the
    two genuine infinite regimes are recognized at the operator level:
    rho leaking outside the support of sigma (alpha >= 1), and fully
    disjoint supports (alpha < 1).  Inclusion is the leak-mass test of
    the divergence family, so a value stays finite wherever the
    sandwiched divergence it bounds from below is.
    """
    d = rho.dim
    p_sig = spectral_map(sigma, np.ones_like)[0]
    if alpha >= 1.0:
        if support_defect(rho, p_sig) <= SUPPORT_TEST_SLACK:
            return None
        complement = np.eye(d) - p_sig
        return POVM((HermitianOperator(complement), HermitianOperator(p_sig)))
    p_rho = spectral_map(rho, np.ones_like)[0]
    overlap = float(np.linalg.norm(p_rho @ p_sig, 2))
    if overlap > 1e-8:
        return None
    return POVM((HermitianOperator(p_rho), HermitianOperator(np.eye(d) - p_rho)))


def measured_renyi_lower(
    rho,
    sigma,
    alpha: float,
    restarts: int = 6,
    seed: int = 0,
    iters: int = 60,
    extra_seed_factors=(),
) -> MeasuredResult:
    """Certified lower bound on the measured Renyi divergence.

    For alpha >= 1/2 the convex variational formula is optimized (see
    _variational_povms) and the value is the global optimum up to
    solver tolerance; restarts and iters are not used there, and
    restarts_used counts the L-BFGS starts, converged reports whether
    one of them met its stopping test.  Below 1/2, projected gradient
    ascent over d^2-outcome POVMs runs on raw factor parameters; the
    factor normalization keeps every iterate a feasible POVM.  Either
    way the value is recomputed exactly from the best candidate
    measurement, seed measurements included.  Deterministic for fixed
    (seed, restarts).  Infinite values are returned only on
    operator-level support violations, with the separating projective
    measurement attached.
    """
    if not alpha > 0.0:
        raise BadAlphaError(f"alpha must be positive, got {alpha}")
    rho = as_operator(rho)
    sigma = as_operator(sigma)
    if rho.dim != sigma.dim:
        raise DimMismatchError(f"dim {rho.dim} vs {sigma.dim}")
    if not rho.trace > 0.0:
        raise ZeroOperatorError("rho is (numerically) zero")
    d = rho.dim
    witness = _structural_infinity(rho, sigma, alpha)
    if witness is not None:
        return MeasuredResult(
            value=math.inf, povm=witness, restarts_used=0, converged=True
        )
    if alpha >= CONVEX_ALPHA_MIN:
        povms, starts, converged = _variational_povms(rho, sigma, alpha, extra_seed_factors)
    else:
        povm, starts, converged = _ascent_povm(
            rho, sigma, alpha, restarts, seed, iters, extra_seed_factors
        )
        povms = [povm]
    povm, exact = None, -math.inf
    for cand in povms:
        val = _certified_value(apply_povm(cand, rho), apply_povm(cand, sigma), alpha)
        if povm is None or val > exact:
            povm, exact = cand, val
    if exact == DEMOTED:
        # every candidate ended on a rounding cliff; certify the trivial
        # measurement instead, whose value log(tr rho / tr sigma) is always clean
        povm = POVM((HermitianOperator(np.eye(d)),))
        exact = classical_renyi(apply_povm(povm, rho), apply_povm(povm, sigma), alpha)
    return MeasuredResult(
        value=exact, povm=povm, restarts_used=starts, converged=converged
    )


def _binary_values(p1, q1, tr_rho: float, tr_sigma: float, alpha: float) -> np.ndarray:
    """Renyi divergences of the tests with first-outcome weights p1, q1, elementwise.

    Infinite values rank last as DEMOTED: in _np_search every outcome
    has sigma-weight for alpha >= 1, and only disjoint supports, caught
    earlier, give +inf below 1, so an infinity is a rounding cliff.
    """
    p = np.clip(np.stack([p1, tr_rho - p1]), 0.0, None)
    q = np.clip(np.stack([q1, tr_sigma - q1]), 0.0, None)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lp, lq = np.log(p), np.log(q)
        if alpha == 1.0:
            vals = np.sum(np.where(p > 0.0, p * (lp - lq), 0.0), axis=0) / p.sum(axis=0)
        else:
            qq = np.sum(np.exp(alpha * lp + (1.0 - alpha) * lq), axis=0)
            vals = (np.log(qq) - np.log(p.sum(axis=0))) / (alpha - 1.0)
    return np.where(np.isfinite(vals), vals, DEMOTED)


def _np_search(rho, sigma, alpha):
    """Best test of test_measured's angle search: (top eigenvectors, intervals).

    The tests are spans of the top r < n eigenvectors of
    cos(phi) rho - sin(phi) sigma in sigma's eigenbasis, cut to its n
    support vectors for alpha >= 1.  The eigenvectors come back in the
    original coordinates, or None when every test sits on a rounding
    cliff or none exists (n < 2).
    """
    w, v = sigma.eig
    n = spectral_map(sigma, np.ones_like)[1] if alpha >= 1.0 else rho.dim
    if n < 2:
        return None, 0
    iso = v[:, :n]
    rho_s = iso.conj().T @ rho.entries @ iso
    sig_w = np.maximum(w[:n], 0.0)  # sigma is diag(sig_w) in these coordinates
    sig_s = np.diag(sig_w)
    s_inv = spectral_map(sigma, lambda x: x ** -0.5)[0]
    ratios = np.linalg.eigvalsh(s_inv @ rho.entries @ s_inv)
    edges = np.unique(np.concatenate([[0.0, 0.5 * math.pi], np.arctan(np.maximum(ratios, 0.0))]))
    totals = rho.trace, sigma.trace
    best_val, best_top = DEMOTED, None

    def scored(phis):
        """Value of every top-r test at each angle; keeps the best seen."""
        nonlocal best_val, best_top
        m = np.cos(phis)[:, None, None] * rho_s - np.sin(phis)[:, None, None] * sig_s
        u = np.linalg.eigh(m)[1][:, :, ::-1]
        p_top = np.cumsum(np.real(np.einsum("aji,jk,aki->ai", u.conj(), rho_s, u)), axis=1)
        q_top = np.cumsum(np.einsum("j,aji->ai", sig_w, np.abs(u) ** 2), axis=1)
        vals = _binary_values(p_top[:, :-1], q_top[:, :-1], *totals, alpha)
        a, k = np.unravel_index(np.argmax(vals), vals.shape)
        if vals[a, k] > best_val:
            best_val, best_top = vals[a, k], u[a, :, : k + 1]
        return vals

    n_int = len(edges) - 1
    angles = np.append(np.linspace(edges[:-1], edges[1:], NP_GRID, endpoint=False).T, edges[-1])
    # interval j holds grid angles j * NP_GRID ... (j + 1) * NP_GRID, its end included
    first = np.arange(n_int) * NP_GRID
    blocks = scored(angles)[first[:, None] + np.arange(NP_GRID + 1)]
    i, k = np.divmod(np.argmax(blocks.reshape(n_int, -1), axis=1), n - 1)
    i = i + first
    lo = angles[np.maximum(i - 1, first)]
    hi = angles[np.minimum(i + 1, first + NP_GRID)]
    # golden section on each interval's best rank, all intervals per batch
    pick = np.arange(n_int), k
    x1, x2 = hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)
    f1, f2 = scored(x1)[pick], scored(x2)[pick]
    width = max(float(np.max(hi - lo)), NP_ANGLE_TOL)
    steps = math.ceil(math.log(width / NP_ANGLE_TOL) / -math.log(GOLDEN))
    for _ in range(steps):
        left = f1 >= f2  # the maximum lies in [lo, x2]
        lo, hi = np.where(left, lo, x1), np.where(left, x2, hi)
        x_in, f_in = np.where(left, x1, x2), np.where(left, f1, f2)
        x_new = np.where(left, hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo))
        f_new = scored(x_new)[pick]
        x1, f1 = np.where(left, x_new, x_in), np.where(left, f_new, f_in)
        x2, f2 = np.where(left, x_in, x_new), np.where(left, f_in, f_new)
    return (None if best_top is None else iso @ best_top), n_int


def test_measured(
    rho, sigma, alpha: float, restarts: int = 4, seed: int = 0
) -> MeasuredResult:
    """Two-outcome (test-measured) Renyi divergence by a Neyman-Pearson search.

    The binary Renyi divergence is jointly quasi-convex in (P, Q) (van
    Erven and Harremoes 2014, Thm 13) and T -> (Tr T rho, Tr T sigma) is
    affine, so the supremum over tests 0 <= T <= I is reached at an
    extreme point of the planar testing region: a projection
    {rho - t sigma > 0} or {rho - t sigma >= 0} with t = tan(phi) in
    [0, inf]; complements give the same value.  The rank of the
    projection changes only at phi = arctan(lambda_k), lambda_k the
    eigenvalues of sigma^-1/2 rho sigma^-1/2.  On each interval between
    those angles, NP_GRID angles and the interval's end are scored from
    one batched eigh of cos(phi) rho - sin(phi) sigma, taking the span of
    the top r eigenvectors for every rank r (so both limit projections at
    each end are among them), and the best is refined by golden section
    down to NP_ANGLE_TOL.  For alpha >= 1 the tests live on sigma's
    support, where rho^0 <= sigma^0 holds.

    restarts and seed are not used; restarts_used counts the searched
    intervals and converged is True.  The value is recomputed exactly
    from the returned projector pair.  Infinite values are returned only
    on operator-level support violations, with the separating projective
    measurement attached.
    """
    if not alpha > 0.0:
        raise BadAlphaError(f"alpha must be positive, got {alpha}")
    rho = as_operator(rho)
    sigma = as_operator(sigma)
    if rho.dim != sigma.dim:
        raise DimMismatchError(f"dim {rho.dim} vs {sigma.dim}")
    if not rho.trace > 0.0:
        raise ZeroOperatorError("rho is (numerically) zero")
    d = rho.dim
    witness = _structural_infinity(rho, sigma, alpha)
    if witness is not None:
        return MeasuredResult(
            value=math.inf, povm=witness, restarts_used=0, converged=True
        )

    top, intervals = _np_search(rho, sigma, alpha)
    # T = I when no test clears the rounding cliffs
    proj = np.eye(d, dtype=complex) if top is None else top @ top.conj().T
    povm = POVM((HermitianOperator(proj), HermitianOperator(np.eye(d) - proj)))
    exact = classical_renyi(apply_povm(povm, rho), apply_povm(povm, sigma), alpha)
    return MeasuredResult(
        value=exact, povm=povm, restarts_used=intervals, converged=True
    )


def regularized_measured_estimate(
    rho, sigma, alpha: float, max_n: int = 2, restarts: int = 3, seed: int = 0
) -> list[tuple[int, float]]:
    """Per-copy measured lower bounds on explicit tensor powers, n <= 3.

    Returns (n, value/n) pairs; below alpha = 1/2 the ascent iterations
    shrink with n to keep the largest power affordable.
    """
    rho = as_operator(rho)
    sigma = as_operator(sigma)
    if not 1 <= max_n <= 3:
        raise DimTooLargeError(f"max_n must be in 1..3, got {max_n}")
    if rho.dim ** max_n > MAX_TENSOR_DIM:
        raise DimTooLargeError(
            f"dim^max_n = {rho.dim ** max_n} exceeds {MAX_TENSOR_DIM}"
        )
    out = []
    rho_n = np.eye(1, dtype=complex)
    sigma_n = np.eye(1, dtype=complex)
    prev_povm = None
    single_povm = None
    for n in range(1, max_n + 1):
        rho_n = np.kron(rho_n, rho.entries)
        sigma_n = np.kron(sigma_n, sigma.entries)
        iters = {1: 60, 2: 20, 3: 5}[n]
        extra = ()
        if prev_povm is not None:
            # products of the best lower-power measurements reproduce
            # n times the single-copy value at the seed, so the per-copy
            # sequence never regresses
            factors = [
                np.kron(_psd_root(a.entries), _psd_root(b.entries))
                for a in prev_povm.elements
                for b in single_povm.elements
            ]
            extra = (np.stack(factors),)
        res = measured_renyi_lower(
            HermitianOperator(rho_n),
            HermitianOperator(sigma_n),
            alpha,
            restarts=restarts,
            seed=seed + n,
            iters=iters,
            extra_seed_factors=extra,
        )
        if math.isinf(res.value):
            out.append((n, math.inf))
            continue
        if prev_povm is None:
            single_povm = res.povm
        prev_povm = res.povm
        out.append((n, res.value / n))
    return out


def _psd_root(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
