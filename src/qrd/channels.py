"""Channel divergences: Choi matrices, CP order tests and input optimization.

A channel divergence here is the supremum of a state divergence over
pure bipartite inputs with an auxiliary system of the input dimension.
The max-relative entropy collapses to an exact Choi computation; the
other whitelisted kinds run seeded sphere ascent and report certified
lower bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .classical import WeightVector, classical_renyi
from .divergences import DivergenceParams, d_alpha_z, d_max, umegaki
from .errors import (
    BadParamsError,
    DimMismatchError,
    KindNotWhitelistedError,
    MalformedInputError,
)
from .measured import measured_renyi_lower
from .opcore import HermitianOperator, as_operator

#: spectral slack for the completely-positive order test
CP_ORDER_SLACK = 1e-9

#: kinds that channel optimization accepts
CHANNEL_KINDS = ("daz", "sandwiched", "petz", "umegaki", "measured", "dmax")

#: central-difference step for the sphere ascent
SPHERE_GRAD_H = 1e-6


class Channel:
    """Completely positive map given by Kraus operators, Choi cached.

    The Choi matrix uses the unnormalized maximally entangled vector in
    the computational basis, first tensor factor carrying the input
    index.
    """

    def __init__(self, kraus):
        mats = [np.asarray(k, dtype=complex) for k in kraus]
        if not mats:
            raise MalformedInputError("channel needs at least one Kraus operator")
        d_out, d_in = mats[0].shape
        for k in mats:
            if k.ndim != 2 or k.shape != (d_out, d_in):
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

    @property
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
    """Cross-check for channel_dmax: bisect the CP order threshold."""
    if cp_order_check(n1, n2, 1e26):
        lo, hi = 0.0, 60.0
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


def kind_whitelisted(kind: str, alpha: float | None = None, z: float | None = None) -> bool:
    """Monotonicity whitelist for channel optimization.

    The two-parameter family is admitted only in its data-processing
    region: z between max(alpha/2, alpha-1) and alpha above 1, z at
    least max(alpha, 1-alpha) below 1.
    """
    if kind in ("umegaki", "dmax", "measured"):
        return True
    if kind not in ("daz", "sandwiched", "petz"):
        return False
    if alpha is None or not alpha > 0.0:
        return False
    if kind == "sandwiched":
        z = alpha
    elif kind == "petz":
        z = 1.0
    if z is None:
        return False
    if alpha == 1.0:
        return z > 0.0
    if alpha > 1.0:
        return max(alpha / 2.0, alpha - 1.0) <= z <= alpha
    return z >= max(alpha, 1.0 - alpha)


@dataclass(frozen=True)
class ChannelDivergenceResult:
    value: float
    argmax_state: np.ndarray
    restarts_used: int
    converged: bool


def _state_objective(kind: str, alpha, z, seed: int):
    if kind == "measured":
        # at alpha >= 1/2 the convex program runs and ignores the budget;
        # below 1/2 the small fixed ascent budget keeps the outer search
        # affordable.  The certificate stays a true lower bound either way
        return lambda r, s: measured_renyi_lower(
            r, s, alpha, restarts=2, seed=seed, iters=8
        ).value
    if kind == "umegaki" or alpha == 1.0:
        return lambda r, s: umegaki(r, s)
    if kind == "sandwiched":
        params = DivergenceParams(alpha, alpha)
    elif kind == "petz":
        params = DivergenceParams(alpha, 1.0)
    elif kind == "daz":
        params = DivergenceParams(alpha, z)
    else:
        raise KindNotWhitelistedError(f"unknown kind {kind!r}")
    return lambda r, s: d_alpha_z(r, s, params).d_value


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


def _sphere_ascend(objective, x0: np.ndarray, iters: int):
    """Projected gradient ascent on the unit sphere, adaptive step."""

    def norm_obj(x):
        n = np.linalg.norm(x)
        if n < 1e-12:
            return -math.inf
        return objective(x / n)

    x = x0 / np.linalg.norm(x0)
    best = norm_obj(x)
    if math.isinf(best) and best > 0:
        return x, best, True
    step = 0.1
    stalls = 0
    for _ in range(iters):
        g = np.zeros_like(x)
        for i in range(len(x)):
            xp = x.copy()
            xp[i] += SPHERE_GRAD_H
            fp = norm_obj(xp)
            xm = x.copy()
            xm[i] -= SPHERE_GRAD_H
            fm = norm_obj(xm)
            if math.isinf(fp) and fp > 0:
                return xp / np.linalg.norm(xp), math.inf, True
            if math.isinf(fm) and fm > 0:
                return xm / np.linalg.norm(xm), math.inf, True
            g[i] = (fp - fm) / (2.0 * SPHERE_GRAD_H)
        g -= np.dot(g, x) * x
        gn = float(np.linalg.norm(g))
        if gn < 1e-12:
            return x, best, True
        moved = False
        for _ in range(12):
            cand = x + step * g / gn
            cand /= np.linalg.norm(cand)
            val = norm_obj(cand)
            if math.isinf(val) and val > 0:
                return cand, math.inf, True
            if val > best + 1e-11:
                x, best = cand, val
                step = min(step * 1.6, 0.5)
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
    """Certified lower bound on a channel divergence, exact for dmax.

    Maximizes the state divergence of (id (x) N_i) outputs over pure
    bipartite inputs by sphere ascent from entangled, product and random
    seeds.  Non-whitelisted parameter choices are rejected rather than
    silently under-optimized.
    """
    if (n1.d_in, n1.d_out) != (n2.d_in, n2.d_out):
        raise DimMismatchError("channels act between different spaces")
    if kind not in CHANNEL_KINDS:
        raise KindNotWhitelistedError(f"kind {kind!r} not in {CHANNEL_KINDS}")
    if kind == "dmax":
        d = n1.d_in
        omega = np.eye(d).reshape(-1).astype(complex) / math.sqrt(d)
        return ChannelDivergenceResult(
            value=channel_dmax(n1, n2),
            argmax_state=omega,
            restarts_used=0,
            converged=True,
        )
    if not kind_whitelisted(kind, alpha, z):
        raise KindNotWhitelistedError(
            f"kind {kind!r} with alpha={alpha}, z={z} is outside the monotone range"
        )
    d = n1.d_in
    value_of = _state_objective(kind, alpha, z, seed)

    def objective(psi: np.ndarray) -> float:
        dim = len(psi) // 2 if psi.dtype == float else len(psi)
        if psi.dtype == float:
            psi = psi[:dim] + 1j * psi[dim:]
        state = HermitianOperator(np.outer(psi, psi.conj()))
        return value_of(apply_extended(n1, state), apply_extended(n2, state))

    def real_objective(x: np.ndarray) -> float:
        return objective(x)

    best_val = -math.inf
    best_x = None
    converged = False
    rng = np.random.default_rng([seed, 0x6368])
    seeds = _seed_states(d, restarts, rng)
    for psi in seeds:
        x0 = np.concatenate([psi.real, psi.imag])
        x, val, conv = _sphere_ascend(real_objective, x0, iters)
        if best_x is None or val > best_val:
            best_val, best_x, converged = val, x, conv
        if math.isinf(best_val) and best_val > 0:
            break
    psi = best_x[: d * d] + 1j * best_x[d * d :]
    psi /= np.linalg.norm(psi)
    value = objective(np.concatenate([psi.real, psi.imag]))
    return ChannelDivergenceResult(
        value=value,
        argmax_state=psi,
        restarts_used=len(seeds),
        converged=converged,
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
    classical Renyi divergence of the joint distributions.  Returns
    (value, argmax r).
    """
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    if t1.shape != t2.shape or t1.shape[1] != 2:
        raise DimMismatchError("the oracle needs two binary-input channels")
    best, best_r = -math.inf, 0.0
    for r in np.arange(0.0, 1.0 + grid_step / 2, grid_step):
        weights = np.array([r, 1.0 - r])
        val = classical_renyi(
            classical_joint_weights(t1, weights),
            classical_joint_weights(t2, weights),
            alpha,
        )
        if val > best:
            best, best_r = val, float(r)
    return best, best_r
