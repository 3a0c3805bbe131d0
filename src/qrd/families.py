"""Parametric state families probing continuity edges of the divergences.

Four constructions: a qubit sequence whose max-relative entropy decays
while fixed-parameter divergences blow up, a pure-state family with an
explicit max-relative entropy formula, its full-rank root-deformed
extension, and a congruence family whose max-relative entropy is a pure
matrix-norm identity.  Generators stay pure; the closed-form identities
they carry are asserted in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classical import knife_edge_family
from .errors import BadParamsError
from .opcore import HermitianOperator, spectral_map

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def default_schedule(n: int) -> float:
    """The default parameter schedule 1 - 2^-n, increasing to 1."""
    if n < 1:
        raise BadParamsError(f"index must be >= 1, got {n}")
    return 1.0 - 2.0 ** (-n)


def gen_a2(gamma: float, n: int, c: float | None = None):
    """Qubit pair with tuned Bloch vectors and a gap-power overlap.

    rho has Bloch vector (0, 0, c) and sigma has (a, 0, b) with
    b = c - (1-c)^(1+gamma) and a closing the radius to c, so both
    states keep equal purity while their small eigenvectors overlap at
    order (1-c)^(1+gamma).
    """
    if gamma <= 0.0:
        raise BadParamsError(f"gamma must be positive, got {gamma}")
    if c is None:
        c = default_schedule(n)
    if not 0.5 <= c < 1.0:
        # the default schedule starts exactly at 1/2 for n = 1
        raise BadParamsError(f"schedule value must sit in [1/2, 1), got {c}")
    delta = (1.0 - c) ** (1.0 + gamma)
    b = c - delta
    a = math.sqrt(max(c * c - b * b, 0.0))
    rho = HermitianOperator(0.5 * (np.eye(2) + c * PAULI_Z))
    sigma = HermitianOperator(0.5 * (np.eye(2) + a * PAULI_X + b * PAULI_Z))
    return rho, sigma


def a2_overlap_gap(gamma: float, n: int, c: float | None = None) -> float:
    """Deviation of |<e0|f1>|^2 from delta/(2c) for the pair above.

    e0 is the small eigenvector of rho (the south pole) and f1 the small
    eigenvector of sigma; the identity pins how fast the two kernels
    align.
    """
    rho, sigma = gen_a2(gamma, n, c)
    if c is None:
        c = default_schedule(n)
    delta = (1.0 - c) ** (1.0 + gamma)
    f1 = sigma.eigenvectors[:, 1]  # descending order: index 1 is the small one
    overlap = abs(f1[0]) ** 2  # against e0 = (1, 0), the large eigenvector of rho
    return abs(overlap - delta / (2.0 * c))


def gen_pure(c: float, eps: float):
    """Pure state against a diagonal state with matched first weight.

    The vector is (sqrt(eps), sqrt(1-eps)) and the reference state is
    diag(c*eps, 1-c*eps); for eps > 0 the max-relative entropy is
    log(1/c + (1-eps)/(1-c*eps)), which jumps at eps = 0.
    """
    if c <= 0.0:
        raise BadParamsError(f"c must be positive, got {c}")
    if not 0.0 <= eps <= 1.0 or c * eps >= 1.0:
        raise BadParamsError(f"eps={eps} outside [0,1] with c*eps < 1")
    psi = np.array([math.sqrt(eps), math.sqrt(1.0 - eps)])
    rho = HermitianOperator(np.outer(psi, psi))
    sigma = HermitianOperator(np.diag([c * eps, 1.0 - c * eps]))
    return rho, sigma


def pure_family_dmax(c: float, eps: float) -> float:
    """Closed form for the max-relative entropy of gen_pure, eps > 0."""
    if eps <= 0.0:
        raise BadParamsError("the closed form needs eps > 0")
    return math.log(1.0 / c + (1.0 - eps) / (1.0 - c * eps))


def gen_kappa(kappa: float, lam: float, eps: float, dim: int = 2):
    """Full-rank root deformation of the pure family.

    With c = 1/(lam - 1), embeds the pure pair into the target
    dimension, pads the reference with an eps-weighted complement to
    reach full rank, and replaces it by its kappa-th root state.  Along
    z = (alpha-1)/kappa the divergence approaches log(lam)/kappa as
    eps -> 0 while the max-relative entropy follows the kappa branch.
    """
    if kappa <= 0.0 or lam <= 1.0:
        raise BadParamsError(f"need kappa > 0 and lam > 1, got {kappa}, {lam}")
    if dim < 2:
        raise BadParamsError(f"dim must be >= 2, got {dim}")
    if eps <= 0.0:
        raise BadParamsError(f"eps must be positive, got {eps}")
    c = 1.0 / (lam - 1.0)
    rho2, sigma2 = gen_pure(c, eps)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[:2, :2] = rho2.entries
    tilde = np.zeros((dim, dim), dtype=complex)
    if dim == 2:
        tilde[:2, :2] = sigma2.entries
    else:
        tilde[:2, :2] = (1.0 - eps) * sigma2.entries
        for j in range(2, dim):
            tilde[j, j] = eps / (dim - 2)
    root = spectral_map(tilde, lambda w: w ** (1.0 / kappa))[0]
    sigma = HermitianOperator(root / float(np.real(np.trace(root))))
    return HermitianOperator(rho), sigma


def congruence_norm(gamma: float) -> float:
    """Spectral norm of [[1, gamma], [gamma, gamma]]."""
    return 0.5 * (1.0 + gamma + math.sqrt(1.0 - 2.0 * gamma + 5.0 * gamma * gamma))


def gen_congruence(gamma: float, eps: float, normalized: bool = True):
    """Pair conjugated through a common near-singular square root.

    With M = [[1, eps], [eps, eps]] (positive definite, so M is the
    square root of sigma = M^2) and C = [[1, gamma], [gamma, gamma]],
    the first operator is M C M.  Unnormalized, the max-relative entropy
    is exactly the log spectral norm of C at every eps; normalization
    rescales both operators to unit trace.
    """
    if not 0.0 < gamma < 1.0 or not 0.0 < eps < 1.0:
        raise BadParamsError(f"gamma and eps must sit in (0,1), got {gamma}, {eps}")
    m = np.array([[1.0, eps], [eps, eps]])
    c_mat = np.array([[1.0, gamma], [gamma, gamma]])
    sigma = m @ m
    rho = m @ c_mat @ m
    if normalized:
        rho = rho / np.trace(rho).real
        sigma = sigma / np.trace(sigma).real
    return HermitianOperator(rho), HermitianOperator(sigma)


@dataclass(frozen=True)
class FamilySpec:
    """Tagged family selector with keyword parameters, CLI and config friendly."""

    tag: str
    params: dict = field(default_factory=dict)

    KNOWN = ("a2", "pure", "kappa", "congruence", "knife")

    def __post_init__(self):
        if self.tag not in self.KNOWN:
            raise BadParamsError(f"unknown family tag {self.tag!r}, know {self.KNOWN}")


def parse_family(text: str) -> FamilySpec:
    """Parse 'tag:key=value,key=value' into a FamilySpec."""
    tag, _, rest = text.partition(":")
    params = {}
    if rest:
        for chunk in rest.split(","):
            key, sep, value = chunk.partition("=")
            if not sep or not key:
                raise BadParamsError(f"bad family parameter {chunk!r}")
            try:
                params[key.strip()] = float(value)
            except ValueError:
                raise BadParamsError(f"family parameter {chunk!r} is not a number") from None
    return FamilySpec(tag.strip(), params)


def family_pair(spec: FamilySpec):
    """Instantiate a family spec as an operator pair.

    The classical knife-edge family is embedded as diagonal operators so
    every tag produces inputs usable by the operator divergences.
    """
    p = dict(spec.params)
    try:
        if spec.tag == "a2":
            return gen_a2(p["gamma"], int(p.get("n", 1)), p.get("c"))
        if spec.tag == "pure":
            return gen_pure(p["c"], p["eps"])
        if spec.tag == "kappa":
            return gen_kappa(p["kappa"], p["lam"], p["eps"], int(p.get("dim", 2)))
        if spec.tag == "congruence":
            return gen_congruence(p["gamma"], p["eps"], bool(p.get("normalized", True)))
        pw, qw = knife_edge_family(
            p["c"], p["d"], p["beta"], p["gamma"], int(p["n"])
        )
        return (
            HermitianOperator(np.diag(pw.values.astype(complex))),
            HermitianOperator(np.diag(qw.values.astype(complex))),
        )
    except KeyError as missing:
        raise BadParamsError(f"family {spec.tag!r} missing parameter {missing}") from None
