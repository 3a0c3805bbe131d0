"""Quantum Renyi divergence families on operator pairs.

Covers the two-parameter (alpha, z) family including its z -> infinity
and z -> 0 endpoints, Umegaki relative entropy, max-relative entropy,
the perspective-based upper family, Nussbaum-Szkola distributions, the
variational formula for alpha in (1, 2], the Araki-Lieb-Thirring chain,
the max-relative-entropy domination check, and epsilon-smoothing curves.

Conventions: all values are in nats; divergences are normalized by Tr rho
so subnormalized first arguments obey the scaling law; +inf is IEEE inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import WeightVector, _renyi
from .errors import BadAlphaError, BadParamsError, SupportViolationError, check_alpha
from .opcore import (
    SUPPORT_RTOL,
    HermitianOperator,
    _array_pair,
    _checked_pair,
    _cut_spectrum,
    _dk_grad,
    _exp_or_inf,
    _log_pinch_exp,
    _pair,
    _pinch_grad,
    _rebuild,
    as_operator,
)

#: relative slack for the self-check inequalities (ALT chain, domination)
REL_SLACK = 1e-9

#: largest log of a power of sigma's eigenvalue ratios that _log_q forms as is
LOG_POWER_MAX = 0.5 * math.log(np.finfo(float).max)


@dataclass(frozen=True)
class DivergenceParams:
    """Order pair (alpha, z); z = 0.0 means the z -> 0 limit, inf allowed."""

    alpha: float
    z: float

    def __post_init__(self):
        check_alpha(self.alpha)
        if self.z < 0.0 or math.isnan(self.z):
            raise BadParamsError(f"z must be in [0, inf], got {self.z}")
        if self.alpha == 1.0 and self.z == 0.0:
            raise BadParamsError("the (alpha, z) = (1, 0) corner has no defined value")


@dataclass(frozen=True)
class DivergenceValue:
    """Q, D and psi = (alpha - 1) D + log Tr rho for one evaluation."""

    q_value: float
    d_value: float
    psi_value: float
    notes: tuple[str, ...] = ()


def _log_sum_powers(values: np.ndarray, expo: float) -> float:
    """log of the sum of expo-th powers of eigenvalues or singular values; negative ones count as 0.

    The values are divided by the largest, so no power under- or overflows;
    -inf when they are all 0 or none is given.
    """
    w = values.tolist()
    top = max(w, default=0.0)
    if not top > 0.0:
        return -math.inf
    return math.log(math.fsum((x / top) ** expo for x in w if x > 0.0)) + expo * math.log(top)


def _log_q(pair, alpha: float, z: float) -> float:
    """log Q_{alpha,z} on a pair record at finite z; +inf on a support leak above alpha = 1.

    On the kept eigenvalues, divided by their largest a_max and b_max
    (alpha log a_max + (1 - alpha) log b_max is added back), Q is at z = 1
    sum_ij a_i^alpha |U_ij|^2 b_j^(1-alpha), with no eigensolve; at z =
    alpha >= 1/2 the alpha-th power sum of the eigenvalues of diag(b^y) R
    diag(b^y), y = (1-alpha)/2alpha, R the record's rho_in_sigma; at any
    other z the 2z-th power sum of the singular values of M =
    diag(a^(alpha/2z)) U diag(b^((1-alpha)/2z)), where M M^dag = A S A for
    A = rho^(alpha/2z) and S = sigma^((1-alpha)/z) in rho's eigenbasis, M
    divided (in logs) by its largest power on U's support where b's in M
    M^dag pass LOG_POWER_MAX, z = 1 included.  The singular values keep the
    small ones that the eigenvalues of M M^dag would square into rounding,
    and s^2z lifts to O(1) at small z.  Each inner matrix has the record's
    rank: its rank largest values are summed, with no cut of their own,
    and log Q is -inf where the rank is 0 (orthogonal supports, Q = 0).
    """
    if alpha > 1.0 and not pair.included:
        return math.inf
    if not pair.rank:
        return -math.inf
    (a, _, ka), (b, _, kb) = pair.rho_cut, pair.sigma_cut
    bn = b[kb] / b[0]
    if z == alpha >= 0.5:
        s = bn ** ((1.0 - alpha) / (2.0 * alpha))
        w = np.linalg.eigvalsh(s[:, None] * pair.rho_in_sigma * s)
        log_q = _log_sum_powers(w[-pair.rank:], z)
    elif z == 1.0 and (1.0 - alpha) * math.log(bn[-1]) <= LOG_POWER_MAX:
        c = (a[ka] / a[0]) ** alpha @ pair.weights
        on = c > 0.0  # a zero column must not meet a b_j^(1-alpha) that overflows
        q = float(c[on] @ bn[on] ** (1.0 - alpha))
        log_q = math.log(q) if q > 0.0 else -math.inf
    else:
        x, y = alpha / (2.0 * z), (1.0 - alpha) / (2.0 * z)
        u, shift = pair.overlap[ka][:, kb], 0.0
        if 2.0 * y * math.log(bn[-1]) > LOG_POWER_MAX:  # M M^dag's scale would overflow
            e = x * np.log(a[ka] / a[0])[:, None] + y * np.log(bn)
            shift = float(e[u != 0.0].max())
            m = u * np.exp(np.minimum(e - shift, 0.0))
        else:
            m = ((a[ka] / a[0]) ** x)[:, None] * u * bn**y
        s = np.linalg.svd(m, compute_uv=False)
        log_q = _log_sum_powers(s[:pair.rank], 2.0 * z) + 2.0 * z * shift
    return log_q + alpha * math.log(a[0]) + (1.0 - alpha) * math.log(b[0])


def _renyi_grad(rho: np.ndarray, sigma: np.ndarray, alpha: float, z: float):
    """D_{alpha,z}, alpha != 1, on arrays: d_alpha_z's value and its gradients (None at +inf).

    The value is the kernels' (_log_q, _log_pinch_exp); the gradients are
    built in matrix form.  At finite z, dQ = z Tr Y^(z-1) dY for Y = A S A gives
    grad_rho Q = z DK_A[S A Y^(z-1) + Y^(z-1) A S] and grad_sigma Q =
    z DK_S[A Y^(z-1) A], built in rho's eigenbasis from the record, with
    Y^(z-1) = P diag(s^(2(z-1))) P^dag on the positive ones of the rank
    largest singular values of _log_q's M = P diag(s) Q^dag, unscaled, as
    Y = M M^dag on rho's kept block (the identity at z = 1, where Q is
    linear in Y).
    """
    pair = _array_pair(rho, sigma)
    log_q = _log_pinch_exp(pair, alpha) if math.isinf(z) else _log_q(pair, alpha, z)
    value = _value_from_log_q(alpha, pair.tr, log_q).d_value
    if math.isinf(value):
        return value, None, None
    if math.isinf(z):
        (gr, gs), q = _pinch_grad(pair, alpha), 1.0  # already the gradients of log Q
    else:
        q = _exp_or_inf(log_q)
        (a, _, ka), (b, _, kb), u = pair.rho_cut, pair.sigma_cut, pair.overlap
        pa, ps = alpha / (2.0 * z), (1.0 - alpha) / z
        av = np.where(ka, a, 0.0) ** pa  # A's eigenvalues
        ymat = np.eye(len(a))
        if z != 1.0:
            m = av[ka][:, None] * u[ka][:, kb] * b[kb] ** (ps / 2.0)
            p, s, _ = np.linalg.svd(m, full_matrices=False)
            n = np.count_nonzero(s[:pair.rank] > 0.0)
            ymat = np.zeros((len(a), len(a)), dtype=complex)
            ymat[np.ix_(ka, ka)] = (p[:, :n] * s[:n] ** (2.0 * (z - 1.0))) @ p[:, :n].conj().T
        t = (u[:, kb] * b[kb] ** ps) @ u[:, kb].conj().T @ (av[:, None] * ymat)  # S A Y^(z-1)
        cs = u.conj().T @ (av[:, None] * ymat * av) @ u
        gr = z * _dk_grad(pair.rho_cut, lambda w: w**pa, lambda w: pa * w ** (pa - 1), t + t.conj().T)
        gs = z * _dk_grad(pair.sigma_cut, lambda w: w**ps, lambda w: ps * w ** (ps - 1), cs)
    g_rho = (gr / q - np.eye(len(pair.rho)) / pair.tr) / (alpha - 1.0)
    return value, g_rho, gs / (q * (alpha - 1.0))


def q_alpha_z(rho, sigma, params: DivergenceParams) -> float:
    """Trace functional Q_{alpha,z} = Tr (rho^{a/2z} sigma^{(1-a)/z} rho^{a/2z})^z.

    Finite z only; +inf when alpha > 1 and the support of rho leaks out
    of the support of sigma, or when Q leaves the float range.
    """
    alpha, z = params.alpha, params.z
    if not (z > 0.0 and math.isfinite(z)):
        raise BadParamsError(f"q_alpha_z needs finite z > 0, got {z}")
    return _exp_or_inf(_log_q(_checked_pair(rho, sigma), alpha, z))


def _value_from_log_q(alpha: float, tr_rho: float, psi: float, notes=()) -> DivergenceValue:
    if psi == math.inf:
        return DivergenceValue(math.inf, math.inf, math.inf, tuple(notes))
    if psi == -math.inf:
        # alpha < 1 here: log Q = -inf over a negative denominator
        return DivergenceValue(0.0, math.inf, -math.inf, tuple(notes))
    d = (psi - math.log(tr_rho)) / (alpha - 1.0)
    return DivergenceValue(_exp_or_inf(psi), d, psi, tuple(notes))


def _value_from_d(alpha: float, tr_rho: float, d: float, notes=()) -> DivergenceValue:
    log_tr = math.log(tr_rho)
    if alpha == 1.0:
        # (alpha - 1) * d = 0 even when d = +inf, by the 0 * inf = 0 convention
        return DivergenceValue(tr_rho, d, log_tr, tuple(notes))
    if math.isinf(d):
        if alpha > 1.0:
            return DivergenceValue(math.inf, math.inf, math.inf, tuple(notes))
        return DivergenceValue(0.0, math.inf, -math.inf, tuple(notes))
    psi = (alpha - 1.0) * d + log_tr
    return DivergenceValue(_exp_or_inf(psi), d, psi, tuple(notes))


def _d_alpha_z(pair, params) -> DivergenceValue:
    """d_alpha_z on a pair record."""
    alpha, z = params.alpha, params.z
    tr_rho = pair.tr
    notes = ["support_borderline"] if pair.borderline else []
    if alpha == 1.0:
        return _value_from_d(alpha, tr_rho, _umegaki(pair), notes)
    if math.isinf(z):
        log_q = _log_pinch_exp(pair, alpha)
        if log_q == -math.inf:
            notes.append("degenerate_support")
        return _value_from_log_q(alpha, tr_rho, log_q, notes)
    if z == 0.0:
        from .zlimits import _zero_z_divergence

        rec = _zero_z_divergence(pair, alpha)
        if rec.used_fallback:
            notes.append("zero_z_nongeneric")
        return _value_from_d(alpha, tr_rho, rec.value, notes)
    return _value_from_log_q(alpha, tr_rho, _log_q(pair, alpha, z), notes)


def d_alpha_z(rho, sigma, params: DivergenceParams) -> DivergenceValue:
    """Renyi (alpha, z)-divergence with its Q and psi companions.

    alpha = 1 is Umegaki relative entropy for every z; z = inf uses the
    pinched exponential; z = 0 is the exact spectral limit for every pair
    (zlimits.zero_z_divergence), noted zero_z_nongeneric where the closed
    form a_i^alpha b_i^(1-alpha) does not apply.
    """
    return _d_alpha_z(_checked_pair(rho, sigma), params)


def _umegaki(pair) -> float:
    """Umegaki relative entropy on a pair record.

    (sum_i a_i log a_i - sum_ij a_i |U_ij|^2 log b_j) / Tr rho over the
    kept eigenvalues: Tr rho log sigma in rho's eigenbasis.
    """
    if not pair.included:
        return math.inf
    (a, _, ka), (b, _, kb) = pair.rho_cut, pair.sigma_cut
    a = a[ka]
    return float(a @ np.log(a) - a @ (pair.weights @ np.log(b[kb]))) / pair.tr


def _umegaki_grad(rho: np.ndarray, sigma: np.ndarray):
    """Umegaki relative entropy D on arrays, umegaki's value, with its gradients.

    (L_rho - L_sigma + P_rho - D I) / Tr rho in rho, -DK_log(sigma)[rho] / Tr rho in sigma.
    """
    pair = _array_pair(rho, sigma)
    value = _umegaki(pair)
    if math.isinf(value):
        return value, None, None
    diff = _rebuild(pair.rho_cut, np.log) - _rebuild(pair.sigma_cut, np.log)
    g_rho = (diff + _rebuild(pair.rho_cut, np.ones_like) - value * np.eye(len(diff))) / pair.tr
    w = pair.sigma_cut[1]
    return value, g_rho, -_dk_grad(pair.sigma_cut, np.log, np.reciprocal, w.conj().T @ pair.rho @ w) / pair.tr


def umegaki(rho, sigma) -> float:
    """Umegaki relative entropy Tr rho (log rho - log sigma) / Tr rho."""
    return _umegaki(_checked_pair(rho, sigma))


def _d_max(pair) -> float:
    return math.log(pair.ratio_cut[0][-1]) if pair.included else math.inf


def d_max(rho, sigma) -> float:
    """Max-relative entropy log || sigma^-1/2 rho sigma^-1/2 ||_inf.

    Normalization by Tr rho is deliberately absent: this is the optimal
    log lambda with rho <= lambda sigma, matching the divergence family
    at its z = alpha - 1, alpha -> inf corner.
    """
    return _d_max(_checked_pair(rho, sigma))


def d_hat_alpha(rho, sigma, alpha: float) -> float:
    """Perspective-based divergence log Tr sigma^1/2 (sigma^-1/2 rho sigma^-1/2)^alpha sigma^1/2.

    Equals the maximal Renyi divergence for alpha in (0,1) union (1,2];
    for alpha > 2 it is only an upper bound on it.  It is _renyi of the
    record's spectral_test weights (lam t, t), as Tr sigma X^alpha = sum_k
    lam_k^alpha t_k, normalized by their sum: Tr rho where rho fails the
    support test (alpha < 1), and rho's mass on sigma's support where not.
    """
    check_alpha(alpha, one=False)
    pair = _checked_pair(rho, sigma)
    if (not pair.rank if alpha < 1.0 else not pair.included):
        return math.inf
    _, p, t = pair.spectral_test
    return float(_renyi(p, t, alpha))


def d_alpha_zero(rho, sigma, alpha: float) -> float:
    """z -> 0 limit divergence; see zlimits for the spectral machinery."""
    from .zlimits import zero_z_divergence

    return zero_z_divergence(rho, sigma, alpha).value


def nussbaum_szkola(rho, sigma) -> tuple[WeightVector, WeightVector]:
    """Classical pair p(i,j) = a_i |<v_i|w_j>|^2, q(i,j) = b_j |<v_i|w_j>|^2.

    Reproduces Q_{alpha,1} of the operator pair exactly, which makes it
    the bridge between quantum z = 1 divergences and classical ones.
    """
    pair = _checked_pair(rho, sigma)
    # eigenvalue and overlap dust below the support cutoff must become an
    # exact zero, or the two sides would disagree about infinities: the
    # quantum Q tests support inclusion, the classical one exact zeros
    (a, _, ka), (b, _, kb) = pair.rho_cut, pair.sigma_cut
    a, b = np.where(ka, a, 0.0), np.where(kb, b, 0.0)
    overlap = np.abs(pair.overlap) ** 2
    overlap[overlap <= SUPPORT_RTOL**2] = 0.0
    p = a[:, None] * overlap
    q = b[None, :] * overlap
    return WeightVector(p.ravel()), WeightVector(q.ravel())


def _variational_guard(rho, sigma, params: DivergenceParams):
    alpha, z = params.alpha, params.z
    if not (1.0 < alpha <= 2.0):
        raise BadAlphaError(f"variational formula needs alpha in (1, 2], got {alpha}")
    if not (z > 0.0 and math.isfinite(z)):
        raise BadParamsError(f"variational formula needs finite z > 0, got {z}")
    pair = _checked_pair(rho, sigma)
    if not pair.included:
        raise SupportViolationError(
            "rho^{a/z} <= lambda sigma^{a/z} fails for every finite lambda"
        )
    return pair


def variational_objective(rho, sigma, params: DivergenceParams, H) -> float:
    """Lower-bound objective whose sup over PSD H equals Q_{alpha,z}; NotPSDError if H is not PSD.

    alpha Tr(rho^{a/2z} H rho^{a/2z})^{z/a} + (1 - alpha) Tr(sigma^{(a-1)/2z} H
    sigma^{(a-1)/2z})^{z/(a-1)}, each summed over every eigenvalue, uncut, of H
    compressed to the kept eigenvectors: diag(a^{a/2z}) V_k^dag H V_k diag(a^{a/2z}).

    Known limit: at small z on non-commuting pairs it can be far off Q at its
    own maximizer (up to 0.39 relative at (alpha, z) = (2, 0.1), d <= 4), as H*
    spans about cond(sigma)^((alpha-1)/z) and its compressions lose their small
    eigenvalues; on a rank-deficient H the power lifts rounding ((1e-16)^0.25 = 1e-4).
    """
    pair = _variational_guard(rho, sigma, params)
    alpha, z = params.alpha, params.z
    h = as_operator(H).entries
    _cut_spectrum(np.linalg.eigvalsh(h), None)  # on H: at small z its compressions round below 0

    def log_trace(cut, x, p):
        w, v, k = cut
        c = (w[k] ** x)[:, None] * (v[:, k].conj().T @ h @ v[:, k]) * w[k] ** x
        return _log_sum_powers(np.linalg.eigvalsh(c), p)

    t1 = log_trace(pair.rho_cut, alpha / (2.0 * z), z / alpha)
    t2 = log_trace(pair.sigma_cut, (alpha - 1.0) / (2.0 * z), z / (alpha - 1.0))
    return alpha * _exp_or_inf(t1) + (1.0 - alpha) * _exp_or_inf(t2)


def variational_optimizer_H(rho, sigma, params: DivergenceParams) -> HermitianOperator:
    """The maximizer sigma^{(1-a)/2z} (sigma^{(1-a)/2z} rho^{a/z} sigma^{(1-a)/2z})^{a-1} sigma^{(1-a)/2z}.

    W_k diag(b^y) Q diag(s^(2(a-1))) Q^dag diag(b^y) W_k^dag, y = (1-a)/2z, on the record's rank
    largest singular values of _log_q's M = P diag(s) Q^dag, unscaled: the inner operator is M^dag M.
    """
    pair = _variational_guard(rho, sigma, params)
    alpha, z = params.alpha, params.z
    (a, _, ka), (b, w, kb), r = pair.rho_cut, pair.sigma_cut, pair.rank
    by = b[kb] ** ((1.0 - alpha) / (2.0 * z))
    m = (a[ka] ** (alpha / (2.0 * z)))[:, None] * pair.overlap[ka][:, kb] * by
    _, s, qh = np.linalg.svd(m, full_matrices=False)
    x = (w[:, kb] * by) @ (qh[:r].conj().T * s[:r] ** (alpha - 1.0))
    h = x @ x.conj().T
    return HermitianOperator(0.5 * (h + h.conj().T))


def _le_rel(a: float, b: float, rel: float = REL_SLACK) -> bool:
    """a <= b up to relative slack, with +inf handled as absorbing."""
    if math.isinf(b):
        return True
    if math.isinf(a):
        return False
    return a <= b + rel * max(abs(a), abs(b), 1.0)


@dataclass(frozen=True)
class AltChainResult:
    q_z2: float
    q_z1: float
    upper: float
    ok_lower: bool
    ok_upper: bool


def alt_chain(rho, sigma, alpha: float, z1: float, z2: float) -> AltChainResult:
    """Araki-Lieb-Thirring chain Q_{a,z2} <= Q_{a,z1} <= upper for z1 <= z2.

    upper = Q_{a,z2}^{z1/z2} ||rho||_inf^{a (1 - z1/z2)} (Tr sigma^{1-a})^{1 - z1/z2}.
    The two ok flags report whether each inequality holds within relative
    slack; callers assert them.
    """
    if not (0.0 < z1 <= z2 and math.isfinite(z2)):
        raise BadParamsError(f"need 0 < z1 <= z2 finite, got ({z1}, {z2})")
    check_alpha(alpha)
    pair = _checked_pair(rho, sigma)
    qz1 = _exp_or_inf(_log_q(pair, alpha, z1))
    qz2 = _exp_or_inf(_log_q(pair, alpha, z2))
    ratio = z1 / z2
    rho_norm = float(pair.rho_cut[0][0])
    b, _, kept = pair.sigma_cut
    tr_sig_pow = float(np.sum(b[kept] ** (1.0 - alpha)))
    if math.isinf(qz2):
        upper = math.inf
    else:
        upper = (
            qz2 ** ratio
            * rho_norm ** (alpha * (1.0 - ratio))
            * tr_sig_pow ** (1.0 - ratio)
        )
    return AltChainResult(
        q_z2=qz2,
        q_z1=qz1,
        upper=upper,
        ok_lower=_le_rel(qz2, qz1),
        ok_upper=_le_rel(qz1, upper),
    )


@dataclass(frozen=True)
class DmaxDominationResult:
    d_az: float
    d_max: float
    dominated: bool


def dmax_domination_check(rho, sigma, params: DivergenceParams) -> DmaxDominationResult:
    """Compare D_{alpha,z} against D_max; dominated within relative slack.

    Domination is guaranteed for alpha < 1 (any z), alpha = 1, and
    alpha > 1 with z >= alpha - 1; it fails strictly for pure rho whose
    vector is not a sigma-eigenvector once z < alpha - 1.
    """
    pair = _checked_pair(rho, sigma)
    val = _d_alpha_z(pair, params).d_value
    dm = _d_max(pair)
    if math.isinf(val):
        dominated = math.isinf(dm)
    else:
        dominated = _le_rel(val, dm)
    return DmaxDominationResult(d_az=val, d_max=dm, dominated=dominated)


def epsilon_smoothing_curve(rho, sigma, params: DivergenceParams, eps_grid) -> list[float]:
    """D_{alpha,z}(rho || sigma + eps I) along a positive descending grid.

    Monotone nonincreasing in eps; converges to the unsmoothed value when
    that is finite and diverges when the support condition fails.
    sigma + eps I has sigma's eigenvectors W and eigenvalues b + eps, so
    each point's pair record reuses both operators' cached spectra: no
    operator is built and nothing is decomposed per eps.
    """
    eps = [float(e) for e in eps_grid]
    if any(e <= 0.0 for e in eps) or any(b >= a for a, b in zip(eps, eps[1:])):
        raise BadParamsError("eps_grid must be positive and strictly descending")
    rho, sigma = as_operator(rho), as_operator(sigma)
    (b, w), eye = sigma.eig, np.eye(sigma.dim)
    pairs = (_pair(rho.entries, rho.eig, sigma.entries + e * eye, (b + e, w)) for e in eps)
    return [_d_alpha_z(pair, params).d_value for pair in pairs]
