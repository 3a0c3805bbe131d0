"""Channel divergences: Choi matrices, CP order tests and input optimization.

A channel divergence here is the supremum of a state divergence over
pure bipartite inputs with an auxiliary system of the input dimension.
The max-relative entropy collapses to an exact Choi computation; the
other whitelisted kinds run a seeded Riemannian ascent on the unit
sphere of inputs (opcore.stiefel_ascent with one column) driven by the
exact gradient of the output divergence, and report certified lower
bounds.  Where the output divergence is concave in the input's reduced
state (Umegaki and sandwiched alpha > 1 between channels), a Frank-Wolfe
bound closes the bracket from above and stops the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .classical import WeightVector, _renyi
from .divergences import _renyi_grad, _umegaki_grad, d_max
from .errors import (
    BadParamsError,
    DimMismatchError,
    KindNotWhitelistedError,
    MalformedInputError,
    ZeroOperatorError,
    check_alpha,
)
from .opcore import HermitianOperator, _array_pair, as_operator, stiefel_ascent
from .serialize import CHANNEL_KINDS

#: spectral slack for the completely-positive order test
CP_ORDER_SLACK = 1e-9
#: relative bracket width at which a concave channel search stops
GAP_RTOL = 1e-7


class Channel:
    """Completely positive map given by Kraus operators, Choi cached.

    The Choi matrix uses the unnormalized maximally entangled vector in
    the computational basis, first tensor factor carrying the input
    index.
    """

    def __init__(self, kraus):
        mats = [np.asarray(k, dtype=complex) for k in kraus]
        if not mats or any(k.ndim != 2 or not np.all(np.isfinite(k)) for k in mats):
            raise MalformedInputError("a channel needs one or more finite Kraus matrices")
        d_out, d_in = mats[0].shape
        for k in mats:
            if k.shape != (d_out, d_in):
                raise MalformedInputError(
                    f"Kraus shapes disagree: {k.shape} vs {(d_out, d_in)}"
                )
        self.kraus = tuple(mats)
        self.d_in = d_in
        self.d_out = d_out

    @cached_property
    def choi(self) -> HermitianOperator:
        d_in, d_out = self.d_in, self.d_out
        c = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
        for k in self.kraus:
            v = k.T.reshape(-1)  # component (i*d_out + m) is K[m, i]
            c += np.outer(v, v.conj())
        return HermitianOperator(c)

    @cached_property
    def kraus_gram(self) -> np.ndarray:
        return sum(k.conj().T @ k for k in self.kraus)

    @cached_property
    def trace_preserving(self) -> bool:
        gap = np.linalg.norm(self.kraus_gram - np.eye(self.d_in), 2)
        return bool(gap <= 1e-9)

    @property
    def cp_plus(self) -> bool:
        """No nonzero PSD input is annihilated.

        Tr N(X) = Tr(X sum K^dag K), so the sampled-input criterion is
        equivalent to the Kraus gram operator being positive definite.
        """
        w = np.linalg.eigvalsh(0.5 * (self.kraus_gram + self.kraus_gram.conj().T))
        return bool(w[0] > 1e-12 * max(w[-1], 1.0))

    @classmethod
    def from_choi(cls, choi, d_in: int, d_out: int) -> "Channel":
        op = as_operator(choi)
        if op.dim != d_in * d_out:
            raise DimMismatchError(
                f"Choi dim {op.dim} is not d_in*d_out = {d_in * d_out}"
            )
        vals, vecs = op.eig
        if vals[-1] < -1e-10 * max(vals[0], 1.0):
            raise MalformedInputError(f"Choi has eigenvalue {vals[-1]:.3e}")
        kraus = []
        for i, lam in enumerate(vals):
            if lam <= 1e-14 * max(vals[0], 1.0):
                continue
            v = math.sqrt(lam) * vecs[:, i]
            kraus.append(v.reshape(d_in, d_out).T)
        if not kraus:
            raise MalformedInputError("Choi matrix is zero")
        return cls(kraus)

    def apply(self, rho) -> HermitianOperator:
        rho = as_operator(rho)
        if rho.dim != self.d_in:
            raise DimMismatchError(f"input dim {rho.dim} vs {self.d_in}")
        out = np.zeros((self.d_out, self.d_out), dtype=complex)
        for k in self.kraus:
            out += k @ rho.entries @ k.conj().T
        return HermitianOperator(out)


def identity_channel(d: int) -> Channel:
    return Channel([np.eye(d)])


def depolarizing_channel(p: float) -> Channel:
    """Qubit depolarizing channel mixing toward I/2 with weight p."""
    if not 0.0 <= p <= 1.0:
        raise BadParamsError(f"p must sit in [0,1], got {p}")
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    return Channel(
        [
            math.sqrt(1.0 - 0.75 * p) * np.eye(2),
            math.sqrt(p / 4.0) * x,
            math.sqrt(p / 4.0) * y,
            math.sqrt(p / 4.0) * z,
        ]
    )


def classical_channel(t: np.ndarray) -> Channel:
    """Channel of a column-stochastic matrix t[y, x] in the computational basis."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or np.any(t < -1e-12):
        raise MalformedInputError("need a nonnegative matrix of transition weights")
    sums = t.sum(axis=0)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise MalformedInputError(
            f"columns must each sum to 1, got {np.array2string(sums, precision=6)}"
        )
    d_out, d_in = t.shape
    kraus = []
    for y in range(d_out):
        for x in range(d_in):
            if t[y, x] <= 0.0:
                continue
            k = np.zeros((d_out, d_in), dtype=complex)
            k[y, x] = math.sqrt(t[y, x])
            kraus.append(k)
    return Channel(kraus)


def apply_extended(channel: Channel, rho_bip) -> HermitianOperator:
    """(id (x) N) acting on an operator over H_in (x) H_in."""
    rho_bip = as_operator(rho_bip)
    d = channel.d_in
    if rho_bip.dim != d * d:
        raise DimMismatchError(f"bipartite dim {rho_bip.dim} vs {d * d}")
    out = np.zeros((d * channel.d_out,) * 2, dtype=complex)
    eye = np.eye(d)
    for k in channel.kraus:
        big = np.kron(eye, k)
        out += big @ rho_bip.entries @ big.conj().T
    return HermitianOperator(out)


def cp_order_check(n1: Channel, n2: Channel, lam: float) -> bool:
    """Whether lam * n2 - n1 is completely positive (Choi PSD within slack)."""
    if (n1.d_in, n1.d_out) != (n2.d_in, n2.d_out):
        raise DimMismatchError("channels act between different spaces")
    diff = lam * n2.choi.entries - n1.choi.entries
    w = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
    return bool(w[0] >= -CP_ORDER_SLACK * max(1.0, w[-1]))


def channel_dmax(n1: Channel, n2: Channel) -> float:
    """Max-relative entropy between channels, exactly the Choi value."""
    if (n1.d_in, n1.d_out) != (n2.d_in, n2.d_out):
        raise DimMismatchError("channels act between different spaces")
    return d_max(n1.choi, n2.choi)


def channel_dmax_bisection(n1: Channel, n2: Channel, iters: int = 60) -> float:
    """Cross-check for channel_dmax: bisect the CP order threshold.

    The bracket of log lam is [0, 60], or [-60, 0] where lam = 1 already
    dominates, as for a trace-decreasing n1.
    """
    if cp_order_check(n1, n2, 1e26):
        lo, hi = (-60.0, 0.0) if cp_order_check(n1, n2, 1.0) else (0.0, 60.0)
        if not cp_order_check(n1, n2, math.exp(hi)):
            return math.inf
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if cp_order_check(n1, n2, math.exp(mid)):
                hi = mid
            else:
                lo = mid
        return hi
    return math.inf


def _kind_z(kind: str, alpha, z):
    """The z of a kind's (alpha, z) divergence: alpha for sandwiched, 1 for Petz, else z."""
    return {"sandwiched": alpha, "petz": 1.0}.get(kind, z)


def kind_whitelisted(kind: str, alpha: float | None = None, z: float | None = None) -> bool:
    """Monotonicity whitelist for channel optimization.

    The two-parameter family is admitted only in its data-processing
    region: z between max(alpha/2, alpha-1) and alpha above 1, z at
    least max(alpha, 1-alpha) below 1.  A bad alpha raises BadAlphaError.
    """
    if kind in ("umegaki", "dmax", "measured"):
        return True
    if kind not in ("daz", "sandwiched", "petz") or alpha is None:
        return False
    check_alpha(alpha)
    z = _kind_z(kind, alpha, z)
    if z is None:
        return False
    if alpha == 1.0:
        return z > 0.0
    if alpha > 1.0:
        return max(alpha / 2.0, alpha - 1.0) <= z <= alpha
    return z >= max(alpha, 1.0 - alpha)


@dataclass(frozen=True)
class ChannelDivergenceResult:
    """value is a certified lower bound (exact for dmax) and upper an upper
    bound, +inf where no concavity theorem supplies one."""

    value: float
    argmax_state: np.ndarray
    restarts_used: int
    converged: bool
    upper: float


def _state_grad(kind: str, alpha, z, seed: int):
    """(value, grad_rho, grad_sigma) of the kind's divergence on output arrays.

    The measured kind's gradient is Danskin's: the classical value's
    derivatives at the returned certificate, sum_k (dD/dp_k) M_k in rho
    and sum_k (dD/dq_k) M_k in sigma.
    """
    if kind == "measured":
        from .measured import _classical_value_grad, _lower_bound

        def measured(rho, sigma):
            # at alpha >= 1/2 the convex program runs and ignores the budget;
            # below 1/2 the small fixed ascent budget keeps the outer search
            # affordable.  The certificate stays a true lower bound either way
            value, factors, p, q, _, _ = _lower_bound(
                _array_pair(rho, sigma), alpha, restarts=2, seed=seed, iters=8
            )
            _, dp, dq = (value, None, None) if p is None else _classical_value_grad(p, q, alpha)
            if math.isinf(value) or dp is None:
                return value, None, None
            cols = np.hstack(factors)
            reps = [f.shape[1] for f in factors]
            g_rho = (cols * np.repeat(dp, reps)) @ cols.conj().T
            return value, g_rho, (cols * np.repeat(dq, reps)) @ cols.conj().T

        return measured
    if kind == "umegaki" or alpha == 1.0:
        return _umegaki_grad
    z = _kind_z(kind, alpha, z)
    return lambda rho, sigma: _renyi_grad(rho, sigma, alpha, z)


def _input_objective(n1: Channel, n2: Channel, kind: str, alpha, z, seed: int):
    """value_grad(psi) of the output divergence for a unit input column psi.

    phi_k = (I (x) K_k) psi and rho = sum_k phi_k phi_k^dag, built from the
    stacked Kraus operators without forming I (x) K_k.  The outputs are
    linear in psi psi^dag, so the gradient is
    2 [(id (x) N1)^dag(grad_rho D) + (id (x) N2)^dag(grad_sigma D)] psi.
    """
    d = n1.d_in
    state_grad = _state_grad(kind, alpha, z, seed)
    k1, k2 = np.stack(n1.kraus), np.stack(n2.kraus)

    def outputs(kraus, psi):
        phi = np.einsum("ij,kmj->kim", psi.reshape(d, d), kraus).reshape(len(kraus), -1)
        return phi, phi.T @ phi.conj()

    def pullback(kraus, g, phi):
        w = (phi @ g.T).reshape(len(kraus), d, -1)
        return np.einsum("kim,kmj->ij", w, kraus.conj()).reshape(-1, 1)

    def value_grad(psi):
        phi1, rho = outputs(k1, psi)
        phi2, sigma = outputs(k2, psi)
        value, g_rho, g_sigma = state_grad(rho, sigma)
        if g_rho is None:
            return value, None
        return value, 2.0 * (pullback(k1, g_rho, phi1) + pullback(k2, g_sigma, phi2))

    return value_grad


def _concave_in_input(n1: Channel, n2: Channel, kind: str, alpha, z) -> bool:
    """Whether the output divergence is a concave function of the input's reduced state.

    The sandwiched divergence is, for alpha > 1 between channels
    (Cooney-Mosonyi-Wilde, arXiv:1408.3373), and so is its alpha -> 1
    limit, Umegaki's; the theorem is stated for trace-preserving maps.
    """
    if kind == "measured" or not (n1.trace_preserving and n2.trace_preserving):
        return False
    if kind == "umegaki" or alpha == 1.0:
        return True
    return _kind_z(kind, alpha, z) == alpha > 1.0


def _frank_wolfe_upper(value_grad, psi: np.ndarray) -> float:
    """f(rho) + lambda_max(G) - Tr rho G, an upper bound on a concave f's maximum.

    f is the output divergence as a function of the reduced state rho of
    the unit input psi = vec(X) on the input factor, rho = conj(X^dag X),
    and G its gradient: for concave f every state rho* has f(rho*) <=
    f(rho) + Tr (rho* - rho) G, and the largest Tr rho* G is lambda_max(G).
    A rho with an eigenvalue below GAP_RTOL is first mixed with I/d at
    weight GAP_RTOL, so that G stays finite.  At X = diag(w)^1/2 V^dag, where
    X^dag X = V diag(w) V^dag, the sphere gradient is 2 X conj(G): row k
    of it is 2 w_k^1/2 (V^dag conj(G))_k, so V^dag conj(G) V is read off
    row by row with each row's own rounding, and lambda_max and Tr rho G
    are taken in that basis.
    """
    d = math.isqrt(len(psi))
    x = psi.reshape(d, d)
    w, v = np.linalg.eigh(x.conj().T @ x)
    w = np.maximum(w, 0.0)
    if w[0] < GAP_RTOL:
        w = (1.0 - GAP_RTOL) * w + GAP_RTOL / d
    root = np.sqrt(w)
    value, g = value_grad((root[:, None] * v.conj().T).reshape(-1))
    if g is None:
        return math.inf
    h = (g.reshape(d, d) @ v) / (2.0 * root[:, None])
    h = 0.5 * (h + h.conj().T)
    return value + float(np.linalg.eigvalsh(h)[-1]) - float(w @ np.diag(h).real)


def _seed_states(d: int, restarts: int, rng) -> list[np.ndarray]:
    seeds = []
    omega = np.eye(d).reshape(-1) / math.sqrt(d)
    seeds.append(omega.astype(complex))
    for j in range(d):
        e = np.zeros(d * d, dtype=complex)
        e[j * d + j] = 1.0
        seeds.append(e)
    while len(seeds) < restarts:
        v = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
        seeds.append(v / np.linalg.norm(v))
    return seeds[: max(restarts, d + 1)]


def channel_divergence(
    n1: Channel,
    n2: Channel,
    kind: str,
    alpha: float | None = None,
    z: float | None = None,
    restarts: int = 32,
    seed: int = 0,
    iters: int = 60,
) -> ChannelDivergenceResult:
    """Certified lower bound on a channel divergence, a bracket where concave, exact for dmax.

    Maximizes the state divergence of (id (x) N_i) outputs over pure
    bipartite inputs by Riemannian gradient ascent on the unit sphere
    (see _input_objective) from the maximally entangled input, the d
    product inputs |jj> and random inputs, at most max(restarts, d + 1)
    starts of at most iters steps each; converged reports whether the
    best start stopped before its step cap.  A start on which either
    channel's output is zero is skipped; ZeroOperatorError is raised only
    when every start is.  The value is the ascent's best, which is the
    library's divergence of that input's outputs (the same kernels on the
    same arrays).  Non-whitelisted parameter choices are rejected rather
    than silently under-optimized.

    The output divergence depends on the input only through its reduced
    state rho.  Between trace-preserving channels, Umegaki's and the
    sandwiched divergence's at alpha > 1 (also as daz with z = alpha) are
    concave in rho (Cooney-Mosonyi-Wilde, arXiv:1408.3373; Umegaki's as
    the alpha -> 1 limit), so every local maximum is global and the
    Frank-Wolfe bound of _frank_wolfe_upper at the best input caps the
    supremum: upper.  After each start that raises the best value the
    bound is taken again, and the search stops once upper - value <=
    GAP_RTOL max(1, |value|); restarts is then a cap, and restarts_used
    counts the starts run.  Every other kind runs every start and reports
    upper = +inf.  A search that reaches +inf stops there, with upper =
    +inf and restarts_used counting the starts run.
    """
    if (n1.d_in, n1.d_out) != (n2.d_in, n2.d_out):
        raise DimMismatchError("channels act between different spaces")
    if kind not in CHANNEL_KINDS:
        raise KindNotWhitelistedError(f"kind {kind!r} not in {CHANNEL_KINDS}")
    if kind == "dmax":
        d = n1.d_in
        omega = np.eye(d).reshape(-1).astype(complex) / math.sqrt(d)
        value = channel_dmax(n1, n2)
        return ChannelDivergenceResult(
            value=value,
            argmax_state=omega,
            restarts_used=0,
            converged=True,
            upper=value,
        )
    if not kind_whitelisted(kind, alpha, z):
        raise KindNotWhitelistedError(
            f"kind {kind!r} lacks the monotonicity whitelist at alpha={alpha}, z={z}"
        )
    d = n1.d_in
    value_grad = _input_objective(n1, n2, kind, alpha, z, seed)
    bracketed = _concave_in_input(n1, n2, kind, alpha, z)
    best_val, upper = -math.inf, math.inf
    best_psi = None
    converged = False
    rng = np.random.default_rng([seed, 0x6368])
    seeds = _seed_states(d, restarts, rng)
    used = len(seeds)
    zero_output = None
    for k, psi in enumerate(seeds, 1):
        try:
            x, val, conv = stiefel_ascent(value_grad, psi.reshape(-1, 1), iters)
        except ZeroOperatorError as exc:
            zero_output = exc
            continue
        if best_psi is None or val > best_val:
            best_val, best_psi, converged = val, x[:, 0], conv
            if bracketed and math.isfinite(best_val):
                upper = min(upper, _frank_wolfe_upper(value_grad, best_psi))
        if best_val == math.inf or upper - best_val <= GAP_RTOL * max(1.0, abs(best_val)):
            used = k
            break
    if best_psi is None:
        raise zero_output
    return ChannelDivergenceResult(
        value=best_val,
        argmax_state=best_psi,
        restarts_used=used,
        converged=converged,
        upper=max(upper, best_val),  # rounding can put the bound an ulp below the value
    )


def classical_joint_weights(t: np.ndarray, r: np.ndarray) -> WeightVector:
    """Joint weights r(x) t[y, x] flattened over (x, y)."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    return WeightVector((r[None, :] * t).T.reshape(-1))


def classical_channel_divergence_grid(
    t1: np.ndarray, t2: np.ndarray, alpha: float, grid_step: float = 1e-3
) -> tuple[float, float]:
    """Brute-force oracle for binary-input classical channel divergences.

    Scans input distributions (r, 1-r) on a grid and maximizes the
    classical Renyi divergence of the joint distributions, every grid
    point's joint weights a column of one batched kernel call.  Returns
    (value, argmax r), the first r of the maximum.
    """
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    if t1.shape != t2.shape or t1.shape[1] != 2:
        raise DimMismatchError("the oracle needs two binary-input channels")
    if min(t1.min(), t2.min()) < 0.0 or min(t1.sum(axis=0).min(), t2.sum(axis=0).min()) <= 0.0:
        raise BadParamsError("the oracle needs nonnegative transition matrices, no column zero")
    check_alpha(alpha)
    r = np.arange(0.0, 1.0 + grid_step / 2, grid_step)
    inputs = np.stack([r, 1.0 - r])
    # column k of each holds classical_joint_weights(t, inputs[:, k])
    p, q = ((t.T[:, :, None] * inputs[:, None, :]).reshape(-1, len(r)) for t in (t1, t2))
    vals = _renyi(p, q, alpha)
    best = int(np.argmax(vals))
    return float(vals[best]), float(r[best])
