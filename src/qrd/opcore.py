"""Hermitian operator algebra at desk scale.

Supported real powers, logs on the support and support projections (all
one spectral map), the support-inclusion test and the pair check built on
it, projection meet, PSD order checks, and the pinched exponential needed
by the large-z divergence limit.  Everything runs on exact
eigendecompositions of d x d Hermitian matrices with a relative cutoff
standing in for exact spectral projections.  All logs are natural, so
values are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadParamsError,
    DimMismatchError,
    DimTooLargeError,
    MalformedInputError,
    NotPSDError,
    ZeroOperatorError,
)

#: absolute tolerance for the hermiticity check on construction
HERMITICITY_ATOL = 1e-10

#: a matrix is rejected as not PSD when min eig < -PSD_REJECT_RTOL * max eig
PSD_REJECT_RTOL = 1e-8

#: slack used by support-inclusion tests (rho^0 <= sigma^0 and friends)
SUPPORT_TEST_SLACK = 1e-8

#: support-inclusion defects between the strict cutoff and the test slack
#: mark a borderline branch choice
BORDERLINE_BAND = (1e-12, SUPPORT_TEST_SLACK)

#: eigenvalues of P+Q within this distance of 2 span the meet of P and Q
MEET_EIGENVALUE_TOL = 1e-8

MAX_DIM = 64


@dataclass(frozen=True)
class SupportCutoff:
    """Relative threshold below which eigenvalues count as exact zeros."""

    relative_tau: float = 1e-12

    def threshold(self, eigenvalues: np.ndarray) -> float:
        lam_max = float(np.max(eigenvalues)) if eigenvalues.size else 0.0
        return self.relative_tau * max(lam_max, 0.0)


DEFAULT_CUTOFF = SupportCutoff()


class HermitianOperator:
    """A square complex Hermitian matrix with a cached eigendecomposition.

    Eigenvalues are stored descending; the decomposition is computed once
    and reused by every operation, which keeps repeated divergence
    evaluations on the same pair cheap and reproducible.
    """

    def __init__(self, entries) -> None:
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise MalformedInputError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] > MAX_DIM:
            raise DimTooLargeError(
                f"dimension {m.shape[0]} exceeds the supported maximum {MAX_DIM}"
            )
        if not np.allclose(m, m.conj().T, rtol=0.0, atol=HERMITICITY_ATOL):
            gap = float(np.max(np.abs(m - m.conj().T)))
            raise MalformedInputError(f"matrix is not Hermitian (deviation {gap:.3e})")
        # symmetrize away the sub-tolerance residue so eigh sees an exact input
        self.entries = 0.5 * (m + m.conj().T)
        self.dim = int(m.shape[0])

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        w, v = np.linalg.eigh(self.entries)
        return np.ascontiguousarray(w[::-1]), np.ascontiguousarray(v[:, ::-1])

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
        return float(max(abs(w[0]), abs(w[-1]))) if w.size else 0.0

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


def as_operator(x) -> HermitianOperator:
    """Coerce a matrix-like into a HermitianOperator (no-op if it is one)."""
    return x if isinstance(x, HermitianOperator) else HermitianOperator(x)


def _psd_eigensystem(A: HermitianOperator):
    """Eigensystem of A with the PSD precondition enforced.

    Rejects when the most negative eigenvalue is below -PSD_REJECT_RTOL
    relative to the largest one; smaller negative dust is clamped to 0.
    """
    w, v = A.eig
    lam_max = max(float(w[0]), 0.0)
    if float(w[-1]) < -PSD_REJECT_RTOL * lam_max:
        raise NotPSDError(
            f"min eigenvalue {w[-1]:.3e} below -{PSD_REJECT_RTOL:g} * {lam_max:.3e}"
        )
    return np.maximum(w, 0.0), v


def spectral_map(A, fn, cutoff: SupportCutoff = DEFAULT_CUTOFF) -> tuple[np.ndarray, int]:
    """fn on the eigenvalues above the cutoff, zero on the rest.

    Returns the matrix as a plain array together with the number of kept
    eigenvalues (the support rank).  supported_power, logn and
    support_projection wrap this in an operator; callers that only need
    the entries use the array directly.
    """
    w, v = _psd_eigensystem(as_operator(A))
    kept = w > cutoff.threshold(w)
    vals = np.zeros_like(w)
    vals[kept] = fn(w[kept])
    m = (v * vals) @ v.conj().T
    return 0.5 * (m + m.conj().T), int(np.count_nonzero(kept))


def supported_power(A, x: float, cutoff: SupportCutoff = DEFAULT_CUTOFF) -> HermitianOperator:
    """Real power taken on the support only: sum of s^x P_s over s > cutoff.

    For x = 0 this is the support projection; negative powers invert on the
    support and vanish on the kernel, so A^-x A^x equals the support
    projection rather than the identity.
    """
    return HermitianOperator(spectral_map(A, lambda w: w ** float(x), cutoff)[0])


def support_projection(A, cutoff: SupportCutoff = DEFAULT_CUTOFF) -> Projection:
    """Projection onto the span of eigenvectors above the cutoff."""
    return Projection(*spectral_map(A, np.ones_like, cutoff))


def support_defect(rho: HermitianOperator, p_sigma: np.ndarray) -> float:
    """Relative mass of rho outside the range of the projection p_sigma.

    The support-inclusion test of the divergence family: rho^0 <= sigma^0
    holds when this is at most SUPPORT_TEST_SLACK.  A projector eigenvalue
    gap would scale like an amplitude for low-rank rho and misread
    harmless perturbations as violations; the mass does not.
    """
    leak = rho.trace - float(np.real(np.trace(p_sigma @ rho.entries @ p_sigma)))
    return max(leak, 0.0) / rho.trace


def _checked_pair(
    rho, sigma, cutoff: SupportCutoff = DEFAULT_CUTOFF
) -> tuple[HermitianOperator, HermitianOperator, bool, bool, np.ndarray]:
    """Validate a pair once: (rho, sigma, included, borderline, p_sigma).

    included is the support_defect test of rho^0 <= sigma^0; borderline
    marks a defect between the strict cutoff and the test slack; p_sigma
    is sigma's support projection the test was made with.  Every public
    pair entry point (divergences, zlimits, pinch_exp) calls this exactly
    once and hands the result to its array kernels.
    """
    rho = as_operator(rho)
    sigma = as_operator(sigma)
    if rho.dim != sigma.dim:
        raise DimMismatchError(f"dim {rho.dim} vs {sigma.dim}")
    a, _ = _psd_eigensystem(rho)
    if not np.any(a > cutoff.threshold(a)):
        raise ZeroOperatorError("rho is (numerically) zero")
    p_sigma, rank_sigma = spectral_map(sigma, np.ones_like, cutoff)
    if rank_sigma == 0:
        raise ZeroOperatorError("sigma is (numerically) zero")
    defect = support_defect(rho, p_sigma)
    included = defect <= SUPPORT_TEST_SLACK
    borderline = included and defect > BORDERLINE_BAND[0]
    return rho, sigma, included, borderline, p_sigma


def _meet(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, int]:
    w, v = np.linalg.eigh(p + q)
    kept = np.abs(w - 2.0) <= MEET_EIGENVALUE_TOL
    vk = v[:, kept]
    m = vk @ vk.conj().T
    return 0.5 * (m + m.conj().T), int(np.count_nonzero(kept))


def projection_meet(P: Projection, Q: Projection) -> Projection:
    """Projection onto range(P) intersect range(Q).

    Computed as the eigenspace of P+Q with eigenvalue within
    MEET_EIGENVALUE_TOL of 2.
    """
    if P.dim != Q.dim:
        raise DimMismatchError(f"dim {P.dim} vs {Q.dim}")
    return Projection(*_meet(P.entries, Q.entries))


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


def support_leq(A, B, cutoff: SupportCutoff = DEFAULT_CUTOFF) -> bool:
    """Support inclusion A^0 <= B^0 as a projector order test.

    Stricter than support_defect for low-rank A: a leak of amplitude t
    fails here once t exceeds the slack, there only once t^2 does.
    """
    return psd_leq(
        support_projection(A, cutoff), support_projection(B, cutoff), SUPPORT_TEST_SLACK
    )


def logn(A, cutoff: SupportCutoff = DEFAULT_CUTOFF) -> HermitianOperator:
    """Natural log on the support, zero on the kernel."""
    return HermitianOperator(spectral_map(A, np.log, cutoff)[0])


def pinch_exp(rho, sigma, alpha: float, cutoff: SupportCutoff = DEFAULT_CUTOFF) -> float:
    """Large-z limit kernel: Tr P exp(alpha P L_rho P + (1-alpha) P L_sigma P).

    P is the meet of the two supports and L denotes the log on the support.
    Returns +inf when alpha > 1 and the support of rho is not contained in
    that of sigma by the support_defect test.  When the supports are
    disjoint (P = 0, possible only for alpha < 1 here) the trace is empty
    and the value is 0.
    """
    rho, sigma, included, _, p_sigma = _checked_pair(rho, sigma, cutoff)
    return _pinch_exp(rho, sigma, included, p_sigma, alpha, cutoff)


def _pinch_exp(
    rho,
    sigma,
    included: bool,
    p_sigma: np.ndarray,
    alpha: float,
    cutoff: SupportCutoff = DEFAULT_CUTOFF,
) -> float:
    """pinch_exp on a pair already validated by _checked_pair, at its cutoff."""
    if alpha > 1.0 and not included:
        return math.inf
    p_rho = spectral_map(rho, np.ones_like, cutoff)[0]
    pm, rank = _meet(p_rho, p_sigma)
    if rank == 0:
        return 0.0
    m = alpha * (pm @ spectral_map(rho, np.log, cutoff)[0] @ pm)
    m += (1.0 - alpha) * (pm @ spectral_map(sigma, np.log, cutoff)[0] @ pm)
    m = 0.5 * (m + m.conj().T)
    w, v = np.linalg.eigh(m)
    weights = np.real(np.einsum("ij,jk,ki->i", v.conj().T, pm, v))
    return float(np.sum(np.exp(w) * np.clip(weights, 0.0, None)))


def trace_power(A, z: float, cutoff: SupportCutoff = DEFAULT_CUTOFF) -> float:
    """Sum of z-th powers of the above-cutoff eigenvalues."""
    if not z > 0.0:
        raise BadParamsError(f"trace_power needs z > 0, got {z}")
    A = as_operator(A)
    w, _ = _psd_eigensystem(A)
    kept = w > cutoff.threshold(w)
    return float(np.sum(w[kept] ** float(z)))


def commutator_spectral_norm(A, B) -> float:
    """Spectral norm of [A, B]; zero exactly when the pair commutes."""
    A = as_operator(A)
    B = as_operator(B)
    c = A.entries @ B.entries - B.entries @ A.entries
    return float(np.linalg.norm(c, 2))
