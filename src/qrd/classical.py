"""Classical Renyi divergences, perspective functions and f-divergences.

Also hosts the two-point knife-edge family whose divergence limit flips
between 0, a finite value and +inf depending on how fast the second
entries decay relative to each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BadParamsError,
    DimMismatchError,
    ZeroOperatorError,
    check_alpha,
)

#: entries of a weight vector below this (after clamping dust) are invalid
WEIGHT_NEG_TOL = 1e-12


@dataclass(frozen=True)
class WeightVector:
    """Finite nonnegative weight vector, not identically zero."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise BadParamsError(f"weights must be a 1-d vector, got shape {v.shape}")
        if np.any(v < -WEIGHT_NEG_TOL):
            raise BadParamsError(f"negative weight {v.min():.3e}")
        v = np.clip(v, 0.0, None)
        if not np.any(v > 0.0):
            raise ZeroOperatorError("weight vector is identically zero")
        object.__setattr__(self, "values", v)

    @property
    def total(self) -> float:
        return float(self.values.sum())

    def __len__(self) -> int:
        return len(self.values)


def as_weights(x) -> WeightVector:
    return x if isinstance(x, WeightVector) else WeightVector(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ConvexFunctionSpec:
    """A convex function on (0, inf) with its boundary behavior declared.

    The two limits fix the boundary rows of the perspective: the value as
    t -> 0 handles x = 0, and the slope at infinity (lim f(t)/t) handles
    y = 0.  The signed power family carries sign -1 on alpha in (0,1) and
    +1 on alpha > 1 so that it stays convex on both ranges.
    """

    kind: str  # "power" | "eta" | "custom"
    fn: Callable[[float], float]
    limit_at_zero: float
    limit_slope_at_infinity: float
    alpha: float | None = None

    def __call__(self, t: float) -> float:
        return self.fn(t)


def power_sign(alpha: float) -> float:
    """Sign making t -> s * t^alpha convex: -1 on (0,1), +1 above 1."""
    check_alpha(alpha, one=False)
    return -1.0 if alpha < 1.0 else 1.0


def power_spec(alpha: float) -> ConvexFunctionSpec:
    """Signed power function s(alpha) * t^alpha as a ConvexFunctionSpec."""
    power_sign(alpha)  # validates the range
    if alpha < 1.0:
        # -t^alpha: both boundary limits vanish
        return ConvexFunctionSpec(
            "power", lambda t: -(t ** alpha), 0.0, 0.0, alpha=alpha
        )
    return ConvexFunctionSpec(
        "power", lambda t: t ** alpha, 0.0, math.inf, alpha=alpha
    )


def eta_spec() -> ConvexFunctionSpec:
    """t log t with the 0 log 0 = 0 convention."""
    return ConvexFunctionSpec(
        "eta", lambda t: t * math.log(t) if t > 0.0 else 0.0, 0.0, math.inf
    )


def perspective(f: ConvexFunctionSpec, x: float, y: float) -> float:
    """Perspective y f(x/y) extended to the boundary of the quadrant.

    Conventions: x = 0 uses y * lim_{t->0} f(t); y = 0 uses
    x * lim_{t->inf} f(t)/t; the product 0 * inf is 0.
    """
    if y > 0.0:
        if x > 0.0:
            return y * f(x / y)
        return 0.0 if f.limit_at_zero == 0.0 else y * f.limit_at_zero
    if x > 0.0:
        slope = f.limit_slope_at_infinity
        return slope if math.isinf(slope) else x * slope
    return 0.0


def classical_fdiv(f: ConvexFunctionSpec, p, q) -> float:
    """Sum of perspectives P_f(p_i, q_i); +inf propagates through the sum."""
    total = 0.0
    for x, y in zip(*_checked(p, q)):
        term = perspective(f, float(x), float(y))
        if math.isinf(term):
            return math.inf
        total += term
    return total


def _renyi(p: np.ndarray, q: np.ndarray, alpha: float) -> np.ndarray:
    """Classical Renyi divergences of weights p, q along axis 0, any trailing shape.

    Ratio form: D = log E / (alpha - 1), E = E_w[(p/q)^(alpha-1)] with w =
    p / sum p, taken as log1p of E - 1 = sum w expm1((alpha-1) log(p/q)) in
    one pass; alpha = 1 is E_w[log(p/q)].  Nothing cancels as alpha -> 1,
    and only ratios enter, so no power of a tiny total under- or overflows.
    Where E - 1 overflows or E < 1/100 (log1p would lose digits) a
    max-shifted log-sum-exp is taken.  The value is +inf where p meets q's
    zeros (alpha >= 1) or the supports are disjoint (alpha < 1).
    """
    on = p > 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = p / p.sum(axis=0)
        # +inf on q's zeros; 0 where p = 0, whose weight w is 0
        log_ratio = np.where(on, np.log(p) - np.log(q), 0.0)
        if alpha == 1.0:
            return (w * log_ratio).sum(axis=0)
        x = (alpha - 1.0) * log_ratio
        e_m1 = (w * np.expm1(x)).sum(axis=0)
        val = np.log1p(e_m1) / (alpha - 1.0)
        redo = (e_m1 < -0.99) | (e_m1 == np.inf)
        if np.count_nonzero(redo):
            x = np.where(on, x, -np.inf)
            top = x.max(axis=0)
            # an infinite top (a leak above 1, all ratios infinite below 1) shifts by 0
            top = np.where(np.isfinite(top), top, 0.0)
            lse = top + np.log((w * np.exp(x - top)).sum(axis=0))
            val = np.where(redo, lse / (alpha - 1.0), val)
    return val


def _checked(p, q) -> tuple[np.ndarray, np.ndarray]:
    """Validated weight arrays of equal length."""
    p, q = as_weights(p), as_weights(q)
    if len(p) != len(q):
        raise DimMismatchError(f"length {len(p)} vs {len(q)}")
    return p.values, q.values


def classical_q(p, q, alpha: float) -> float:
    """Power sum Q_alpha = sum p^alpha q^(1-alpha) with support conventions.

    For alpha > 1 the value is +inf unless p is absolutely continuous
    w.r.t. q; for alpha < 1 entries where either vector vanishes drop out.
    Taken as sum p exp((alpha-1) D_alpha) from the divergence kernel.
    """
    check_alpha(alpha, one=False)
    pv, qv = _checked(p, q)
    with np.errstate(over="ignore"):
        # overflow to +inf is a legitimate outcome at large alpha
        return float(np.exp(math.log(pv.sum()) + (alpha - 1.0) * _renyi(pv, qv, alpha)))


def classical_renyi(p, q, alpha: float) -> float:
    """Classical Renyi alpha-divergence of nonnegative vectors, in nats.

    Normalized by the total weight of p, so scaling p or q shifts the
    value by the log of the scale.  alpha = 1 is the normalized
    Kullback-Leibler divergence.  Evaluated in ratio form (_renyi), so
    it stays exact as alpha -> 1 and on tiny totals of p or q.
    """
    check_alpha(alpha)
    return float(_renyi(*_checked(p, q), alpha))


def knife_edge_family(
    c: float, d: float, beta: float, gamma: float, n: int
) -> tuple[WeightVector, WeightVector]:
    """Two-point family ((1 - c n^-beta, c n^-beta), (1 - d n^-gamma, d n^-gamma)).

    Both vectors tend to (1, 0); the divergence limit depends on the decay
    ratio beta/gamma relative to 1 - 1/alpha.
    """
    if min(c, d, beta, gamma) <= 0.0 or n < 1:
        raise BadParamsError("need c, d, beta, gamma > 0 and n >= 1")
    eps_p = c * float(n) ** (-beta)
    eps_q = d * float(n) ** (-gamma)
    if eps_p >= 1.0 or eps_q >= 1.0:
        raise BadParamsError(
            f"tail weights must stay below 1, got {eps_p:.3e} and {eps_q:.3e}"
        )
    pv = np.clip(np.array([1.0 - eps_p, eps_p]), 0.0, 1.0)
    qv = np.clip(np.array([1.0 - eps_q, eps_q]), 0.0, 1.0)
    return WeightVector(pv), WeightVector(qv)
