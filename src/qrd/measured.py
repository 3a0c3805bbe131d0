"""Measured and test-measured Renyi divergences via measurement optimization.

Above alpha = 1/2 the measured divergence is the optimum of the convex
variational formula of Berta, Fawzi and Tomamichel (2017,
arXiv:1512.02615); its optimum is attained by the projective measurement
in the eigenbasis of the optimal omega, so the returned value is the
global optimum up to solver tolerance.  At alpha = 1/2 it is -log F,
attained by the Fuchs-Caves measurement.  Below 1/2 a Riemannian ascent
over rank-one d^2-outcome POVMs runs (opcore.stiefel_ascent, exact
gradient) and global optimality is not claimed; seeding it with the
Neyman-Pearson test and the joint and ratio eigenbases keeps it at or
above the test-measured value and exact on commuting pairs.  The
two-outcome test variant is a one-dimensional search over
Neyman-Pearson projections {rho - t sigma > 0}, which contain the
optimal test: a grid of angles t = tan(phi), refined by a secant on the
first-order condition of the binary divergence along the projections,
so its value is the optimum up to the angle search's resolution.  For
both, a qubit with invertible sigma runs none of these searches: its
best test lies on a great circle of the Bloch sphere with closed-form
weights, a grid and a secant on the slope find it to an ulp of its
angle, and it is the optimum above 1/2, the best projective one below.

The searches read the pair record itself (_measured_pair): its roots, the
supported roots of rho and sigma cached on it, sigma's eigensystem, Tr rho
and the eigensystem of sigma^-1/2 rho sigma^-1/2.  Candidates are tuples
of factors F_k (M_k = F_k F_k^dag); only the winner becomes a POVM.  All
output is a certified lower bound: any POVM certifies its own classical
divergence, and each weight ||rho^1/2 F_k||^2 is computed from the
record's roots, bit for bit as apply_povm computes it from the returned
POVM on rho (for alpha >= 1, on rho compressed to sigma's support).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .classical import WeightVector, _renyi
from .errors import DimMismatchError, check_alpha
from .opcore import (
    HermitianOperator,
    _Pair,
    _checked_pair,
    _cut_spectrum,
    _eigh_descending,
    _pair,
    _rebuild,
    ASCENT_MEMORY,
    as_operator,
    box_geometry,
    spectral_map,
    stiefel_ascent,
)

#: irrational mixing weight for the joint-eigenbasis seed; avoids the
#: rho + sigma = multiple-of-identity trap that an equal-weight sum hits
EIGENBASIS_MIX = 0.6180339887498949

#: lowest order at which the variational formula is a convex program;
#: below it the POVM ascent runs, at it the Fuchs-Caves closed form
CONVEX_ALPHA_MIN = 0.5

#: size of the random rows mixed into each seed isometry of the POVM
#: ascent: a seed's empty outcomes have zero gradient and would stay empty
SEED_SPREAD = 0.1

#: box on the entries of the log-ratio matrix K (omega = exp(alpha K)); on
#: rank-deficient pairs the optimum lies at infinity and the box keeps
#: every iterate finite
LOG_RATIO_BOX = 30.0

#: step cap of each ascent of the variational formula; L-BFGS memory of the
#: unpreconditioned ascent (with less, d = 4 solves at large alpha hit the cap
#: short of the optimum); smallest K, above alpha = 1, whose ascent is
#: preconditioned (on qubits and qutrits it costs more per step than it
#: saves); floor of the preconditioner's curvatures relative to the largest
#: (lower floors let starts run off to plateaus)
BFT_ITERS = 500
BFT_MEMORY = 30
BFT_PRECONDITION_DIM = 4
BFT_CURVATURE_FLOOR = 1e-6
#: |alpha - 1| below which the variational objective takes its log1p form and
#: the test search's slope its expm1 form
LOG_TRACE_SERIES = 1e-3

#: grid angles per interval of test_measured's Neyman-Pearson search
NP_GRID = 16

#: step (radians) at which the secant refinement of a test's angle stops
NP_ANGLE_TOL = 1e-9

#: octaves of a qubit's test-curve grid on either side of sqrt(b1/b0), sigma's
#: eigenvalue ratio, where an ill-conditioned sigma puts the best test's angle
QUBIT_OCTAVES = 8

#: fixed parts of the qubit grid: its even steps (one past each end of the period) and octaves 2^k
_QUBIT_EVEN_STEPS = 0.25 * math.pi / NP_GRID * np.arange(-NP_GRID - 1, NP_GRID + 2)
_QUBIT_OCTAVE_STEPS = 2.0 ** np.arange(-QUBIT_OCTAVES, QUBIT_OCTAVES + 1)


@dataclass(frozen=True)
class POVM:
    """Finite POVM; elements sum to the identity within 1e-9 in every entry.

    factors, when given, are matrices F_k, one per element, with F_k F_k^dag
    within 1e-9 of M_k in every entry; the elements are then PSD and
    apply_povm takes each weight as the squared norm of a factor.
    """

    elements: tuple[HermitianOperator, ...]
    factors: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if not self.elements:
            raise DimMismatchError("POVM needs at least one element")
        if self.factors is not None and len(self.factors) != len(self.elements):
            raise DimMismatchError(f"{len(self.factors)} factors for {len(self.elements)} elements")
        d = self.elements[0].dim
        total = np.zeros((d, d), dtype=complex)
        for k, el in enumerate(self.elements):
            if el.dim != d:
                raise DimMismatchError("POVM elements on different dimensions")
            if self.factors is None and float(el.eigenvalues[-1]) < -1e-10:
                raise ValueError(f"POVM element has eigenvalue {el.eigenvalues[-1]:.3e}")
            if self.factors is not None:
                f = self.factors[k]
                gap = float(np.abs(f @ f.conj().T - el.entries).max())
                if not gap <= 1e-9:
                    raise ValueError(f"POVM factor {k} is off its element by {gap:.3e}")
            total += el.entries
        total.flat[:: d + 1] -= 1.0  # total - I, whose largest entry np.allclose would test
        gap = float(np.abs(total).max())
        if not gap <= 1e-9:
            raise ValueError(f"POVM completeness violated by {gap:.3e}")

    @property
    def dim(self) -> int:
        return self.elements[0].dim


def _povm(factors) -> POVM:
    """The POVM with elements F_k F_k^dag."""
    factors = tuple(factors)
    return POVM(tuple(HermitianOperator(f @ f.conj().T) for f in factors), factors)


@dataclass(frozen=True)
class MeasuredResult:
    """A measured lower bound and the measurement that certifies it.

    value is the classical Renyi divergence of the povm's outcome
    weights.  For alpha >= 1 the certificate is for rho compressed to
    sigma's support: the povm applied to P rho P, P = support_projection
    (sigma), reproduces value, while on the uncompressed rho an outcome
    that catches rho's leak out of that support can read far higher.
    """

    value: float
    povm: POVM
    restarts_used: int
    converged: bool


def apply_povm(povm: POVM, rho) -> WeightVector:
    """Outcome weights (Tr M_i rho)_i of a measurement.

    With factors, each weight is ||rho^1/2 F_i||^2 from one supported
    square root of rho: accurate to relative precision, so an outcome
    that rho does not reach gets no rounding dust, which a power below 1
    would magnify.
    """
    rho = as_operator(rho)
    if rho.dim != povm.dim:
        raise DimMismatchError(f"dim {rho.dim} vs POVM dim {povm.dim}")
    if povm.factors is not None:
        root = spectral_map(rho, np.sqrt)[0]
        return WeightVector(np.array([np.sum(np.abs(root @ f) ** 2) for f in povm.factors]))
    vals = np.array(
        [float(np.real(np.trace(el.entries @ rho.entries))) for el in povm.elements]
    )
    if np.any(vals < -1e-12):
        raise ValueError(f"measurement produced weight {vals.min():.3e}")
    return WeightVector(np.clip(vals, 0.0, None))


def _classical_value_grad(p: np.ndarray, q: np.ndarray, alpha: float):
    """Classical Renyi divergence of weights p, q with its partial derivatives.

    Returns (value, dD/dp, dD/dq), or (+inf, None, None) when the weights
    give an infinite value.  D is the kernel's (classical._renyi).  With
    y = (alpha-1)(log(p/q) - D) the normalized terms of sum p^alpha
    q^(1-alpha) are w exp(y), w = p / sum p, so dD/dp = (1 + alpha
    expm1(y)/(alpha-1)) / sum p, the quotient read as log(p/q) - D at
    alpha = 1, and dD/dq = -w exp(y) / q.  A derivative that is infinite
    at an empty weight (a power below 0) drops that part, the spectral
    maps' cutoff convention, so the gradient stays finite on measurements
    with empty outcomes.
    """
    val = float(_renyi(p, q, alpha))
    if math.isinf(val):
        return val, None, None
    total, on = float(p.sum()), p > 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        shifted = np.log(p) - np.log(q) - val  # +inf on q's zeros, below alpha = 1 only
        y = (alpha - 1.0) * shifted
        rel = shifted if alpha == 1.0 else np.expm1(y) / (alpha - 1.0)
        empty = 0.0 if alpha == 1.0 else -1.0 / (alpha - 1.0)
        dp = np.where(on, 1.0 + alpha * rel, empty) / total
        dq = np.where(on & (q > 0.0), -p * np.exp(y) / (q * total), 0.0)
    return val, dp, dq


def _sigma_rank(pair: _Pair) -> int:
    """Rank of sigma's support, whose eigenvectors come first; not pair.rank, the overlap's."""
    return int(np.count_nonzero(pair.sigma_cut[2]))


def _seed_bases(pair: _Pair) -> tuple[np.ndarray, np.ndarray]:
    """The eigenbases of rho + EIGENBASIS_MIX sigma and of sigma^-1/2 rho sigma^-1/2.

    The second is the ratio operator's ascending eigenbasis on sigma's
    support, after sigma's kernel.
    """
    u, n = pair.sigma_cut[1], _sigma_rank(pair)
    ratio = np.hstack([u[:, n:], u[:, :n] @ pair.ratio_cut[1]])
    return np.linalg.eigh(pair.rho + EIGENBASIS_MIX * pair.sigma)[1], ratio


def _measured_pair(pair: _Pair, alpha: float):
    """The record the searches read and the witness of an infinite value: (record, witness).

    The searches never certify an infinity, so the two genuine infinite
    regimes are recognized here, each with a separating support-projector
    measurement (its factors) as witness and no record: rho failing the
    divergence family's support test (alpha >= 1), so that a value stays
    finite wherever the sandwiched divergence it bounds is, and the
    record's orthogonal supports (rank 0, alpha < 1).  For alpha >= 1 a
    rho that passed is compressed to sigma's support, as the kernels do:
    its leak of at most SUPPORT_TEST_SLACK would otherwise face
    sigma-weights that the cutoff set to zero, and an outcome catching it
    would certify a value far above the sandwiched divergence.  The
    record is then that of (P rho P, sigma), built from sigma's cut
    eigensystem, so every sigma-side array equals the caller's.  A
    non-positive or non-finite alpha raises BadAlphaError.
    """
    check_alpha(alpha)
    (_, v, kept), (w, u, _), n = pair.rho_cut, pair.sigma_cut, _sigma_rank(pair)
    if alpha < 1.0 and not pair.rank:
        return None, (v[:, kept], v[:, ~kept])
    if alpha >= 1.0 and not pair.included:
        return None, (u[:, n:], u[:, :n])
    if alpha >= 1.0 and n < len(w):
        m = u[:, :n] @ (u[:, :n].conj().T @ pair.rho @ u[:, :n]) @ u[:, :n].conj().T
        rho = 0.5 * (m + m.conj().T)
        pair = _pair(rho, _eigh_descending(rho), pair.sigma, (w, u))
    return pair, None


def _scored(pair: _Pair, cands, alpha: float):
    """The first best of candidate factor tuples: (value, factors, p, q).

    Ranked by the classical value of the weights p_k = ||rho^1/2 F_k||^2,
    q_k = ||sigma^1/2 F_k||^2, an infinity as -inf: a rounding cliff, since
    _measured_pair returns every genuine infinity first.  The weights come from
    one batched product of the record's roots with the factors of each
    column count, bit for bit as apply_povm takes them from the returned POVM.
    """
    flat = [f for factors in cands for f in factors]
    roots = pair.roots[:, None]
    norms = np.empty((2, len(flat)))
    for k in {f.shape[1] for f in flat}:
        at = [i for i, f in enumerate(flat) if f.shape[1] == k]
        sq = np.abs(roots @ np.array([flat[i] for i in at])) ** 2
        norms[:, at] = sq.reshape(2, len(at), len(pair.rho) * k).sum(axis=2)
    ends = itertools.accumulate(map(len, cands))
    weights = [norms[:, end - len(factors) : end] for factors, end in zip(cands, ends)]
    values = [float(_renyi(p, q, alpha)) for p, q in weights]
    best = max(range(len(values)), key=lambda i: -math.inf if math.isinf(values[i]) else values[i])
    return (values[best], cands[best], *weights[best])


def _projective(basis: np.ndarray, rest: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Factors of the projectors onto the orthonormal columns of basis.

    rest, orthonormal columns spanning the rest of the space when basis
    does not, joins the first outcome.
    """
    factors = [basis[:, k : k + 1] for k in range(basis.shape[1])]
    if rest is not None and rest.shape[1]:
        factors[0] = np.hstack([factors[0], rest])
    return tuple(factors)


def _povm_objective(pair: _Pair, alpha: float):
    """value_grad(V) of the rank-one POVM whose row k is v_k^dag, on rho / Tr rho.

    With M_k = v_k v_k^dag the weights are p_k = ||rho^1/2 v_k||^2 and
    q_k = ||sigma^1/2 v_k||^2, and the gradient of the classical value
    is 2 [diag(dD/dp) V rho + diag(dD/dq) V sigma].  Normalizing rho
    shifts the value by log Tr rho, moving no maximizer, and keeps the
    gradient, which scales as 1 / Tr rho, finite on a tiny trace.
    """
    rho_e, rho_root = pair.rho / pair.tr, pair.roots[0] / math.sqrt(pair.tr)
    sig_e, sig_root = pair.sigma, pair.roots[1]

    def value_grad(v):
        p = np.sum(np.abs(v @ rho_root) ** 2, axis=1)
        q = np.sum(np.abs(v @ sig_root) ** 2, axis=1)
        val, dp, dq = _classical_value_grad(p, q, alpha)
        if dp is None:
            return val, None
        return val, 2.0 * (dp[:, None] * (v @ rho_e) + dq[:, None] * (v @ sig_e))

    return value_grad


def _stiefel_povms(pair: _Pair, alpha, restarts, seed, iters):
    """Candidate measurements of the rank-one POVM ascent: (candidates, starts, converged).

    A rank-one POVM with n = d^2 outcomes is an isometry V in C^(n x d),
    ascended by opcore.stiefel_ascent on _povm_objective.  The seeds are
    the Neyman-Pearson test of _np_test and the joint and ratio
    eigenbases, each split into its rank-one pieces, padded to n rows and
    mixed with SEED_SPREAD random rows; random isometries follow up to
    restarts starts.  The candidates are the seed measurements themselves
    and the best ascent's end point.
    """
    d, n = len(pair.rho), len(pair.rho) ** 2
    value_grad = _povm_objective(pair, alpha)
    cands = [_np_test(pair, alpha)[0], *map(_projective, _seed_bases(pair))]
    rng = np.random.default_rng([seed, 0x6D65])

    def scatter(rows):
        noise = rng.normal(size=rows.shape) + 1j * rng.normal(size=rows.shape)
        return rows + SEED_SPREAD * noise

    starts = []
    for factors in cands:
        cols = np.hstack(factors)
        if cols.shape[1] <= n:
            starts.append(scatter(np.vstack([cols.conj().T, np.zeros((n - cols.shape[1], d))])))
    while len(starts) < restarts:
        starts.append(scatter(np.zeros((n, d))))
    best_val, best_v, converged = -math.inf, None, False
    for v0 in starts:
        v, val, conv = stiefel_ascent(value_grad, v0, iters)
        if best_v is None or val > best_val:
            best_val, best_v, converged = val, v, conv
    cands.append(tuple(best_v[k : k + 1].conj().T for k in range(n)))
    return cands, len(starts), converged


def _fuchs_caves(pair: _Pair) -> tuple[np.ndarray, ...]:
    """Projective measurement attaining D_M = -log F at alpha = 1/2.

    On sigma's support, with M = sigma^-1/2 (sigma^1/2 rho sigma^1/2)^1/2
    sigma^-1/2, the compression of rho is M sigma M, so each eigenvector
    of M has p_k = m_k^2 q_k and the classical fidelity is Tr M sigma,
    the quantum one (Fuchs and Caves 1995).  sigma's kernel is one more
    outcome: sigma gives it no weight, so it adds nothing to the fidelity.
    """
    (w, v, _), n = pair.sigma_cut, _sigma_rank(pair)
    iso = v[:, :n]
    s = np.sqrt(w[:n])
    a = s[:, None] * (iso.conj().T @ pair.rho @ iso) * s[None, :]
    # the supported root: a root of rounding dust would tilt M's eigenvectors
    m = _rebuild(_cut_spectrum(*_eigh_descending(0.5 * (a + a.conj().T))), np.sqrt)
    m = m / np.outer(s, s)
    basis = iso @ np.linalg.eigh(0.5 * (m + m.conj().T))[1]
    return _projective(basis) + ((v[:, n:],) if n < len(w) else ())


def _log_trace_exp(a_t: np.ndarray, h: np.ndarray, s: float, curvature: bool = False):
    """phi_s(K) = (1/s) log (Tr A exp(sK) / Tr A) and its gradient, in K's eigenbasis.

    a_t is A in the eigenbasis of K, whose eigenvalues are h.  By the
    Daleckii-Krein formula the gradient is (Gamma o a_t) / Tr A exp(sK),
    Gamma the divided differences of exp(s x) / s, taken as max(e_i, e_j)
    (1 - exp(-x)) / x, e = exp(s h), x = |s (h_i - h_j)|, free of
    cancellation and overflow; s = 0 is the limit Tr A K / Tr A.  For
    |s| < LOG_TRACE_SERIES the value is (1/s) log1p(sum w expm1(s h) /
    sum w), w A's diagonal, so 1/s magnifies no rounding of Tr A; further
    out exponents are shifted by their maximum.  With curvature (s != 0)
    a third output holds, in its real and imaginary parts at (i, j), the
    second derivatives of phi_s along the unit Hermitian directions of
    K_ij's real and imaginary parts, from the second divided differences
    (Gamma_ij - e_i) / (s (h_j - h_i)).
    """
    w = a_t.diagonal().real
    mass = float(w.sum())
    if s == 0.0:
        return float(w @ h) / mass, a_t / mass
    near = abs(s) < LOG_TRACE_SERIES
    sh = s * h
    shift = 0.0 if near else float(sh.max())
    e = np.exp(sh - shift)
    x = np.abs(s * (h[:, None] - h[None, :]))
    gamma = np.maximum.outer(e, e) * np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x > 0)
    if near:
        rel = float(w @ np.expm1(sh)) / mass
        value, total = math.log1p(rel) / s, mass * (1.0 + rel)
    else:
        total = max(float(w @ e), np.finfo(float).tiny)
        value = (math.log(total / mass) + shift) / s
    grad = gamma * a_t / total
    if not curvature:
        return value, grad
    y = s * (h - h[:, None])
    div = 0.5 * gamma  # the limit at h_i = h_j
    np.divide(gamma - e[:, None], y, out=div, where=np.abs(y) > 1e-6)
    div *= w[:, None] * (s / total)
    sq = (2.0 * s) * (grad.real**2 + 1j * grad.imag**2)
    sq.flat[:: len(h) + 1] *= 0.5
    return value, grad, (div + div.T) * (1.0 + 1j) - sq


def _variational_povms(pair: _Pair, alpha):
    """Candidate measurements of the variational formula: (candidates, starts, converged).

    Berta, Fawzi and Tomamichel: Q_M is the supremum (alpha > 1) or
    infimum (1/2 <= alpha < 1) over omega > 0 of
    alpha Tr rho omega^(1-1/alpha) + (1-alpha) Tr sigma omega, and
    D_M = sup_omega Tr rho log omega + Tr rho - Tr sigma omega at alpha = 1.
    With the scale of omega = exp(alpha K) optimized out and rho of unit
    trace, opcore.stiefel_ascent maximizes over Hermitian K in the box
    |Re K_ij|, |Im K_ij| <= LOG_RATIO_BOX, from each seed basis with the
    seed's log outcome ratios as eigenvalues,

        D(K) = alpha/(alpha-1) log Tr rho exp((alpha-1) K) - log Tr sigma exp(alpha K)

    (Tr rho K - log Tr sigma exp(K) at alpha = 1).  Every stationary
    point is a global optimum, the exponential map being a diffeomorphism
    onto omega > 0.  K lives in sigma's eigenbasis, cut to sigma's support
    for alpha >= 1, where rho^0 <= sigma^0 holds (sigma's kernel then
    joins the first outcome).  Above alpha = 1, where D(K) is a difference
    of convex functions whose curvature spans orders of magnitude across
    K's eigenbasis, an ascent over K of size n >= BFT_PRECONDITION_DIM is
    preconditioned by the diagonal of that curvature in K's eigenbasis
    (see _log_trace_exp), floored at BFT_CURVATURE_FLOOR of its largest
    entry; otherwise (at alpha <= 1 D(K) is concave) the plain ascent
    runs with BFT_MEMORY steps of memory.  The candidates are the seed
    measurements and each final K's eigenbasis; converged reports whether
    an ascent stopped before its step cap.
    """
    w, v, _ = pair.sigma_cut
    n = _sigma_rank(pair) if alpha >= 1.0 else len(w)
    iso = v[:, :n]
    # square roots: sigma is diag(w) in these coordinates, rho is rho_root rho_root^dag
    sig_root = np.sqrt(w[:n])
    a, b, _ = pair.rho_cut
    rho_root = iso.conj().T @ (b * np.sqrt(a / pair.tr))
    tiny, pre = np.finfo(float).tiny, alpha > 1.0 and n >= BFT_PRECONDITION_DIM

    def value_grad(k):
        h, u = np.linalg.eigh(k)
        uh = u.conj().T
        r_t = uh @ rho_root
        s_t = uh * sig_root
        f_rho, g_rho, *c_rho = _log_trace_exp(r_t @ r_t.conj().T, h, alpha - 1.0, pre)
        f_sig, g_sig, *c_sig = _log_trace_exp(s_t @ s_t.conj().T, h, alpha, pre)
        grad = u @ (g_rho - g_sig) @ uh
        # Hermitian to the last bit, so that every iterate stays Hermitian
        value, grad = alpha * (f_rho - f_sig), (0.5 * alpha) * (grad + grad.conj().T)
        if not pre:
            return value, grad
        c = alpha * (c_sig[0] - c_rho[0])
        floor = BFT_CURVATURE_FLOOR * max(c.real.max(), c.imag.max(), tiny)
        c_re, c_im = np.maximum(c.real, floor), np.maximum(c.imag, floor)

        def precondition(m):
            m = uh @ m @ u
            m = u @ (m.real / c_re + 1j * (m.imag / c_im)) @ uh
            return 0.5 * (m + m.conj().T)

        return value, grad, precondition

    bases = _seed_bases(pair)
    cands = list(map(_projective, bases))
    box, converged = box_geometry(LOG_RATIO_BOX, ASCENT_MEMORY if pre else BFT_MEMORY), False
    for basis in bases:
        p = np.real(np.einsum("ji,jk,ki->i", basis.conj(), pair.rho, basis)) / pair.tr
        q = np.real(np.einsum("ji,jk,ki->i", basis.conj(), pair.sigma, basis))
        ratio = np.log(np.maximum(p, tiny)) - np.log(np.maximum(q, tiny))
        seed = iso.conj().T @ basis
        k0 = (seed * np.clip(ratio, -LOG_RATIO_BOX, LOG_RATIO_BOX)) @ seed.conj().T
        k, _, conv = stiefel_ascent(value_grad, 0.5 * (k0 + k0.conj().T), BFT_ITERS, box)
        converged = converged or conv
        cands.append(_projective(iso @ np.linalg.eigh(k)[1], v[:, n:]))
    return cands, len(bases), converged


def _lower_bound(pair, alpha, restarts, seed, iters):
    """measured_renyi_lower on a pair record: (value, factors, p, q, starts, converged).

    factors is the best candidate measurement and p, q its weights (None
    with an infinite value's witness).
    """
    pair, witness = _measured_pair(pair, alpha)
    if witness is not None:
        return math.inf, witness, None, None, 0, True
    if alpha == CONVEX_ALPHA_MIN:
        cands, starts, converged = [_fuchs_caves(pair)], 0, True
    elif _sigma_rank(pair) == 2 == len(pair.rho):
        (cands, converged), starts = _qubit_tests(pair, alpha), 1
    elif alpha > CONVEX_ALPHA_MIN:
        cands, starts, converged = _variational_povms(pair, alpha)
    else:
        cands, starts, converged = _stiefel_povms(pair, alpha, restarts, seed, iters)
    # last, the trivial measurement: its value log(tr rho / tr sigma) is always
    # clean, so it wins when every other candidate ended on a rounding cliff
    return (*_scored(pair, [*cands, (np.eye(len(pair.rho)),)], alpha), starts, converged)


def measured_renyi_lower(
    rho,
    sigma,
    alpha: float,
    restarts: int = 6,
    seed: int = 0,
    iters: int = 60,
) -> MeasuredResult:
    """Certified lower bound on the measured Renyi divergence.

    Above alpha = 1/2 the convex variational formula is optimized (see
    _variational_povms) and the value is the global optimum up to
    solver tolerance; restarts and iters are not used there, and
    restarts_used counts the ascent's starts, converged reports whether
    one of them stopped before its step cap.  At alpha = 1/2 the Fuchs-Caves
    measurement gives -log F in closed form (restarts_used 0).  A qubit
    with invertible sigma takes neither path (see _qubit_tests): its best
    test, found by a closed-form angle search on one great circle of the
    Bloch sphere, is the global optimum above 1/2 and the best projective
    measurement below; restarts and iters are not used, restarts_used is
    1 and converged reports whether the angle refinement met its
    tolerance.  Otherwise below
    1/2 a Riemannian ascent over rank-one d^2-outcome POVMs runs from
    restarts starts (at least the structured seeds) with at most iters
    steps each (see _stiefel_povms); converged reports whether the best
    start stopped before its step cap.  That value is a capped local
    ascent, not a global optimum: which local maximum it ends on depends
    on rounding in its seeds, so a change of the last bits of a seed
    basis can move it.  Either way the value is the exact classical
    divergence of the best candidate measurement, seed measurements
    included.  Deterministic for fixed (seed, restarts).  The pair is
    validated at entry as by every divergence (opcore._checked_pair):
    mismatched dimensions, a non-PSD or a zero rho or sigma raise before
    any search.  Infinite values are returned only on operator-level
    support violations, with the separating projective measurement
    attached.  For alpha >= 1 the certificate is for rho compressed to
    sigma's support (see MeasuredResult).
    """
    value, factors, _, _, starts, converged = _lower_bound(
        _checked_pair(rho, sigma), alpha, restarts, seed, iters
    )
    return MeasuredResult(value, _povm(factors), starts, converged)


def _binary_values(p: np.ndarray, q: np.ndarray, alpha: float) -> np.ndarray:
    """Renyi divergences of two-outcome weights p, q (outcomes on axis 0), elementwise.

    Infinite values rank last as -inf: in _np_test every outcome has
    sigma-weight for alpha >= 1, and only disjoint supports, caught
    earlier, give +inf below 1, so an infinity is a rounding cliff.
    """
    vals = _renyi(p, q, alpha)
    return np.where(np.isfinite(vals), vals, -np.inf)


def _binary_rates(p: np.ndarray, q: np.ndarray, alpha: float, dp, dq) -> np.ndarray:
    """dp dD/dp + dq dD/dq of two-outcome weights, up to a positive factor.

    p, q are as in _binary_values, (dp, dq) a move of the first outcome's
    weights that the second's mirrors.  With x_k = p_k / q_k the
    outcomes' likelihood ratios, D's partial derivatives in the first
    outcome's weights are alpha/(alpha-1) (x_0^(alpha-1) - x_1^(alpha-1)) / S
    and -(x_0^alpha - x_1^alpha) / S, S = sum p^alpha q^(1-alpha) > 0 (the
    log-ratio and ratio differences at alpha = 1).  For |alpha - 1| <
    LOG_TRACE_SERIES the powers x^(alpha-1) are taken as expm1((alpha-1)
    log x), so that their difference does not cancel.  NaN where the
    ratios give no sign (an empty outcome on both sides).  Scalar weights
    give a scalar.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x0, x1 = np.divide(p[0], q[0]), np.divide(p[1], q[1])
        if alpha == 1.0:
            return dp * (np.log(x0) - np.log(x1)) - dq * (x0 - x1)
        ratio, e = alpha / (alpha - 1.0), alpha - 1.0
        near = abs(e) < LOG_TRACE_SERIES
        x0_e, x1_e = (np.expm1(e * np.log(x)) if near else x**e for x in (x0, x1))
        return dp * ratio * (x0_e - x1_e) - dq * (x0**alpha - x1**alpha)


def _binary_slope(p, q, alpha: float, dp: float, dq: float) -> float:
    """_binary_rates of scalar weights in Python floats, bit for bit: numpy's scalar path runs at and near
    alpha = 1 (its log and expm1 are not libm's) and where Python raises on a zero or an overflow."""
    if abs(alpha - 1.0) >= LOG_TRACE_SERIES:
        try:
            x0, x1, e = p[0] / q[0], p[1] / q[1], alpha - 1.0
            return dp * (alpha / e) * (x0**e - x1**e) - dq * (x0**alpha - x1**alpha)
        except (ZeroDivisionError, OverflowError):
            pass
    return float(_binary_rates(p, q, alpha, dp, dq))


def _split(w: np.ndarray) -> np.ndarray:
    """(top, rest) sums of weights w[a, i] at every split point 1 ... n-1."""
    top = np.cumsum(w, axis=1)[:, :-1]
    rest = np.cumsum(w[:, ::-1], axis=1)[:, ::-1][:, 1:]
    return np.stack([top, rest])


def _np_test(pair: _Pair, alpha):
    """Best test of test_measured's angle search: (factors (T, I - T), intervals).

    The tests are spans of the top r < n eigenvectors of A(phi) =
    cos(phi) rho - sin(phi) sigma in sigma's eigenbasis, cut to its n =
    rank support vectors for alpha >= 1; sigma's kernel vectors outside
    those n join the complement.  rho is normalized to unit trace, which
    shifts every value by log Tr rho, and sigma's eigenvalues are cut as
    for the record's root.  Along phi the top-r projector P has Tr A dP = 0,
    so its weights move as cos(phi) dp = sin(phi) dq with dq <= 0, and
    dD/dphi is a non-positive multiple of g = sin(phi) dD/dp + cos(phi)
    dD/dq (_binary_rates): a maximum is a root where g turns from
    negative to positive.  From the best grid angle of each interval and
    rank the neighbour on the side where D rises brackets one, and an
    Illinois secant on g, all intervals per batch, runs until its next
    step would be at most NP_ANGLE_TOL (a bisection step where a slope is
    infinite).  Where no neighbour brackets a root (D still rising at the
    interval's end, or a zero or NaN slope), the grid angle stands.  Every
    scored test competes: T = I when every test sits on a rounding cliff
    or none exists (n < 2).
    """
    (w, v, on), d = pair.sigma_cut, len(pair.rho)
    n = _sigma_rank(pair) if alpha >= 1.0 else d
    if n < 2:
        return (np.eye(d), np.eye(d)[:, :0]), 0
    iso = v[:, :n]
    rho_s = iso.conj().T @ pair.rho @ iso / pair.tr
    # sigma, cut as for the record's root, is diag(sig_w) in these coordinates
    sig_w = np.where(on[:n], w[:n], 0.0)
    sig_s = np.diag(sig_w)
    # rho / Tr rho = root root^dag: the weight of a vector u is ||root^dag iso u||^2
    root = pair.roots[0] @ iso / math.sqrt(pair.tr)
    # the ratio operator's eigenvalues, rounding dust of rho's kernel at 0
    lam, _, kept = pair.ratio_cut
    ratios = np.where(kept, lam, 0.0) / pair.tr
    # np.unique's result, without the numpy.ma import its first call makes
    edges = np.sort(np.concatenate([[0.0, 0.5 * math.pi], np.arctan(ratios)]))
    edges = edges[np.append(True, edges[1:] != edges[:-1])]
    best_val, best_u, best_rank = -math.inf, None, 0

    def scored(phis):
        """Values and slopes g of every top-r test at each angle; keeps the best seen."""
        nonlocal best_val, best_u, best_rank
        m = np.cos(phis)[:, None, None] * rho_s - np.sin(phis)[:, None, None] * sig_s
        u = np.linalg.eigh(m)[1][:, :, ::-1]
        # weights of the top r eigenvectors and of the rest, r = 1 ... n-1,
        # summed from squared norms so that an empty outcome gets no dust
        p = _split(np.sum(np.abs(root @ u) ** 2, axis=1))
        q = _split(np.einsum("j,aji->ai", sig_w, np.abs(u) ** 2))
        vals = _binary_values(p, q, alpha)
        a, k = np.unravel_index(np.argmax(vals), vals.shape)
        if vals[a, k] > best_val:
            best_val, best_u, best_rank = vals[a, k], u[a], k + 1
        return vals, _binary_rates(p, q, alpha, np.sin(phis)[:, None], np.cos(phis)[:, None])

    n_int = len(edges) - 1
    angles = np.append(np.linspace(edges[:-1], edges[1:], NP_GRID, endpoint=False).T, edges[-1])
    # interval j holds grid angles j * NP_GRID ... (j + 1) * NP_GRID, its end included
    first = np.arange(n_int) * NP_GRID
    vals, slopes = scored(angles)
    blocks = vals[first[:, None] + np.arange(NP_GRID + 1)]
    i, k = np.divmod(np.argmax(blocks.reshape(n_int, -1), axis=1), n - 1)
    i = i + first
    # D rises to the right of the best angle where g < 0, to its left where g > 0
    g_i = slopes[i, k]
    j = np.clip(np.where(g_i < 0.0, i + 1, i - 1), first, first + NP_GRID)
    g_j = slopes[j, k]
    alive = np.where(g_i < 0.0, g_j > 0.0, (g_i > 0.0) & (g_j < 0.0))  # a bracketed root
    lo, hi = angles[np.minimum(i, j)], angles[np.maximum(i, j)]
    g_lo, g_hi = np.minimum(g_i, g_j), np.maximum(g_i, g_j)
    x = angles[i]
    side = np.zeros(n_int)  # the end replaced last: -1 lo, +1 hi
    # at most as many rounds as a bisection down to NP_ANGLE_TOL takes
    width = max(float(np.max((hi - lo)[alive], initial=0.0)), NP_ANGLE_TOL)
    for _ in range(math.ceil(math.log2(width / NP_ANGLE_TOL))):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x_new = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        # an infinite slope gives NaN: bisect
        x_new = np.clip(np.where(np.isnan(x_new), 0.5 * (lo + hi), x_new), lo, hi)
        go = alive & (np.abs(x_new - x) > NP_ANGLE_TOL)
        lo, hi, g_lo, g_hi, k, x, side = (a[go] for a in (lo, hi, g_lo, g_hi, k, x_new, side))
        if not len(k):
            break
        g = scored(x)[1][np.arange(len(k)), k]
        up, down = g < 0.0, g > 0.0
        # Illinois: the end kept twice in a row has its slope halved
        g_lo = np.where(down & (side > 0), 0.5 * g_lo, g_lo)
        g_hi = np.where(up & (side < 0), 0.5 * g_hi, g_hi)
        lo, g_lo = np.where(up, x, lo), np.where(up, g, g_lo)
        hi, g_hi = np.where(down, x, hi), np.where(down, g, g_hi)
        side = np.where(up, -1.0, 1.0)
        alive = up | down  # a zero or NaN slope ends the search: a root, or a rounding cliff
    basis = np.eye(d) if best_u is None else np.hstack([iso @ best_u, v[:, n:]])
    r = d if best_u is None else best_rank
    return (basis[:, :r], basis[:, r:]), n_int


def _qubit_tests(pair: _Pair, alpha):
    """Candidate tests of an invertible-sigma qubit: (tests, converged).

    In sigma's eigenbasis (b0 >= b1 > 0), with R = rho^1/2 / sqrt(Tr rho) and
    chi = -arg (R^dag R)_01, the tests' weights fill an ellipse, and by the
    quasi-convexity of test_measured the best lies on its boundary: the tests
    psi_1 = (cos t, e^(i chi) sin t), psi_2 = (-sin t, e^(i chi) cos t), t in
    [-pi/4, pi/4).  There p_k = ||R psi_k||^2 and q_1 = b0 cos^2 t + b1 sin^2 t
    (q_2 likewise) keep relative precision, and dD/dt is a positive multiple
    of _binary_rates at dp_1/dt = 2 Re <R psi_1, R psi_2>, dq_1/dt = (b1 - b0)
    sin 2t.  2 NP_GRID steps over the period and sqrt(b1/b0) 2^k, |k| <=
    QUBIT_OCTAVES, where an ill-conditioned sigma puts the optimum, bracket
    each local maximum, which an Illinois secant on the slope refines to an
    ulp (converged: every one within twice a bisection's steps).  The tests
    are the grid's best and the refined ones; on a rank-deficient rho below
    1/2 also rho's eigenbasis, from its eigensystem and from an eigh in
    sigma's eigenbasis, as the Neyman-Pearson search takes it: there ~1e-32
    rounding dust on rho's kernel outcome, raised to alpha, decides.
    """
    (b0, b1), v = map(float, pair.sigma_cut[0]), pair.sigma_cut[1]
    r = pair.roots[0] @ v / math.sqrt(pair.tr)
    phase = np.exp(-1j * np.angle(np.vdot(r[:, 0], r[:, 1])))  # e^(i chi)
    (a0, c0), (a1, c1) = (r * [1.0, phase]).tolist()

    def slope(x):
        """The slope at angle x: weights p, q and their move (dp_1/dt, dq_1/dt) in Python scalars."""
        cos, sin = math.cos(x), math.sin(x)
        ra0, ra1 = cos * a0 + sin * c0, cos * a1 + sin * c1  # R psi_1
        rb0, rb1 = cos * c0 - sin * a0, cos * c1 - sin * a1  # R psi_2
        p = (abs(ra0) ** 2 + abs(ra1) ** 2, abs(rb0) ** 2 + abs(rb1) ** 2)
        q = (b0 * cos * cos + b1 * sin * sin, b0 * sin * sin + b1 * cos * cos)
        dp = 2.0 * (ra0.conjugate() * rb0 + ra1.conjugate() * rb1).real
        return _binary_slope(p, q, alpha, dp, 2.0 * (b1 - b0) * sin * cos)

    def refine(lo, hi, g_lo, g_hi):
        """Illinois secant on the slope in [lo, hi], g_lo > 0 > g_hi: (angle, converged)."""
        x, side = math.inf, 0
        for _ in range(2 * 53):  # a bisection takes 53 halvings from one grid step to an ulp
            x_new = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
            x_new = x_new if lo <= x_new <= hi else 0.5 * (lo + hi)  # NaN: an infinite slope
            if abs(x_new - x) <= math.ulp(x_new):
                return x_new, True
            x, g = x_new, slope(x_new)
            if not (g > 0.0 or g < 0.0):  # a root, or a rounding cliff
                return x, True
            if g > 0.0:  # Illinois: the end kept twice in a row has its slope halved
                lo, g_lo, g_hi, side = x, g, 0.5 * g_hi if side < 0 else g_hi, -1
            else:
                hi, g_hi, g_lo, side = x, g, 0.5 * g_lo if side > 0 else g_lo, 1
        return x, False

    near = math.sqrt(b1 / b0) * _QUBIT_OCTAVE_STEPS
    near = near[near < 0.25 * math.pi]
    t = np.sort(np.concatenate([_QUBIT_EVEN_STEPS, near, -near]))
    cos, sin = np.cos(t), np.sin(t)
    # slope's quantities on the whole grid, with R psi_1 and R psi_2 stacked
    by_cos, by_sin = np.array([a0, a1, c0, c1, c0, c1, -a0, -a1]).reshape(2, 4, 1)
    r_psi = cos * by_cos + sin * by_sin
    sq, cs = np.abs(r_psi) ** 2, np.array([cos, sin])
    p, q = sq[::2] + sq[1::2], b0 * cs * cs + b1 * cs[::-1] * cs[::-1]
    dp = r_psi[:2].conjugate() * r_psi[2:]
    slopes = _binary_rates(p, q, alpha, 2.0 * (dp[0] + dp[1]).real, 2.0 * (b1 - b0) * sin * cos).tolist()
    vals = _binary_values(p, q, alpha)
    top, angles, converged = int(np.argmax(vals)), [], True
    t = t.tolist()
    for i in (np.flatnonzero((vals[1:-1] > vals[:-2]) & (vals[1:-1] >= vals[2:])) + 1).tolist():
        lo, hi = (i, i + 1) if slopes[i] > 0.0 else (i - 1, i)
        if slopes[lo] > 0.0 > slopes[hi]:
            x, conv = refine(t[lo], t[hi], slopes[lo], slopes[hi])
            angles, converged = angles + [x], converged and conv
            top = -1 if i == top else top  # refined, so the grid's best need not compete
    angles += [t[top]] if top >= 0 else []
    cos, sin = np.cos(angles), np.sin(angles)
    tests = [_projective(v @ np.array([[c, -s], [phase * s, phase * c]])) for c, s in zip(cos, sin)]
    if alpha < CONVEX_ALPHA_MIN and not pair.rho_cut[2].all():
        rho_s = np.linalg.eigh(v.conj().T @ pair.rho @ v / pair.tr)[1]
        tests += [_projective(pair.rho_cut[1]), _projective(v @ rho_s)]
    return tests, converged


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
    each end are among them).  The best angle of each interval is then
    refined to a root of the stationarity condition sin(phi) dD/dp +
    cos(phi) dD/dq = 0, which the same eigh's weights give, by a
    bracketed Illinois secant with steps down to NP_ANGLE_TOL, all
    intervals in one batched eigh per round (see _np_test).  For
    alpha >= 1 the tests live on sigma's support, where rho^0 <= sigma^0
    holds.

    A qubit with invertible sigma takes measured_renyi_lower's closed-form
    angle search instead (see _qubit_tests).  restarts and seed are not
    used; restarts_used counts the searched intervals (1 on such a qubit)
    and converged is True (on such a qubit, whether the angle refinement
    met its tolerance).  The value is the classical divergence of the
    winner's weights as _scored ranked them, bit for bit the weights
    apply_povm takes from the returned projector pair.  The pair is
    validated as in measured_renyi_lower: a zero or non-PSD rho or sigma
    raises.
    Infinite values are returned only on operator-level support
    violations, with the separating projective measurement attached.
    For alpha >= 1 the certificate is for rho compressed to sigma's
    support (see MeasuredResult).
    """
    pair, witness = _measured_pair(_checked_pair(rho, sigma), alpha)
    if witness is not None:
        return MeasuredResult(math.inf, _povm(witness), 0, True)
    if _sigma_rank(pair) == 2 == len(pair.rho):
        (tests, converged), intervals = _qubit_tests(pair, alpha), 1
    else:
        (test, intervals), converged = _np_test(pair, alpha), True
        tests = [test]
    value, factors, *_ = _scored(pair, tests, alpha)
    return MeasuredResult(value, _povm(factors), intervals, converged)

