"""Small-z limit of the (alpha, z) family: spectral formula and checks.

The z -> 0 limit of Q_{alpha,z} has eigenvalues lambda_1 >= lambda_2 >= ...
with log(lambda_1 ... lambda_k) the largest alpha sum_I log a_i +
(1 - alpha) sum_J log b_j over |I| = |J| = k with det U[I, J] != 0, U the
eigenvector overlap (Audenaert-Hiai, "Reciprocal Lie-Trotter formula").
Every pair function here reads the pair record (opcore._Pair): cut
spectra, overlap U and blocks of equal eigenvalues.  zero_z_divergence
evaluates the limit for every pair in O(d^3): Gaussian elimination of U
pivoting on the entry of largest valuation (_limit_pivots), with the
library's minor band deciding exact zeros.
When the determinant genericity conditions (b) and (b') hold the limit
is the closed form a_i^alpha b_i^(1-alpha) (alpha < 1) or
a_i^alpha b_(d+1-i)^(1-alpha) (alpha > 1); the same elimination, with
valuations that rank eigenvalue blocks, decides them in O(d^3).  The
Richardson extrapolation of Q_{alpha,z} over a small z-grid in
arbitrary precision (zero_z_oracle) stays as a diagnostic, the only
code here that loads mpmath.  The module also hosts the equality-case
checker for the one-sided alpha -> 1 limits and the reducing-subspace
test used in its proof.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GenericityFailsError,
    GenericityUndeterminedError,
    SingularSigmaError,
    check_alpha,
)
from .opcore import (
    Projection,
    _checked_pair,
    _Pair,
    as_operator,
    commutator_spectral_norm,
)

#: a minor certifies genericity when its magnitude exceeds this
MINOR_OK = 1e-10

#: below this the best minor counts as an exact zero (definite failure)
MINOR_DEAD = 1e-12

#: geometric z-grid for the extrapolation oracle; each node halves the last
ORACLE_Z_NODES = (1e-2, 5e-3, 2.5e-3)

#: decimal digits the oracle keeps on the smallest singular value and in its sums
ORACLE_GUARD_DIGITS = 50


def spectral_profile(rho, sigma) -> _Pair:
    """The pair record (opcore._checked_pair), its blocks i_bounds and j_bounds decided.

    Raises DimMismatchError on operators of different dimensions,
    NotPSDError on a non-PSD operator, ZeroOperatorError on a zero one
    and GenericityUndeterminedError on a near-degenerate spectrum.
    """
    pair = _checked_pair(rho, sigma)
    pair.i_bounds, pair.j_bounds  # decided here, so a near-degenerate spectrum raises here
    return pair


@dataclass(frozen=True)
class MinorWitness:
    k: int
    best_abs_det: float
    rows: tuple[int, ...]
    cols: tuple[int, ...]


@dataclass(frozen=True)
class GenericityResult:
    holds: bool
    undetermined: bool
    witnesses: tuple[MinorWitness, ...]


def _genericity(pair: _Pair, required, anti: bool) -> GenericityResult:
    """Condition (b), or (b') when anti, from one valuation-pivoted elimination of U.

    Row i's valuation is minus its rho block index and column j's sqrt(2)
    times sigma's, negated for (b) so that prefix blocks win and kept for
    (b') so that suffix blocks do; two block pairs never tie.  The k-th
    valuation sum of _limit_pivots is the largest over nonzero k x k
    minors, and it reaches the closed-form pairing's exactly when a minor
    of the condition's family (prefix rows; prefix or suffix columns) is
    nonzero.  Both sums are concave in k and the pairing's is linear
    between block boundaries, so agreement at every required k is
    agreement at every k: the condition holds when all d pivots carry the
    pairing's valuations, and a matching pivot in the band
    (MINOR_DEAD, MINOR_OK] leaves it undetermined.  Each required k's
    witness is the minor on the first k pivots, |det| the product of
    their magnitudes; past the agreement it is the pairing's own minor.
    """
    d, ov = len(pair.overlap), pair.overlap
    index = np.arange(d)
    rho_block = np.array(pair.i_bounds[1:]).searchsorted(index, "right")
    sigma_block = np.array(pair.j_bounds[1:]).searchsorted(index, "right")
    val = (math.sqrt(2.0) if anti else -math.sqrt(2.0)) * sigma_block - rho_block[:, None]
    pivots, minors = _limit_pivots(ov.copy(), val)
    n, _ = _closed_form_agreement(val, pivots, d, anti)
    witnesses = []
    for k in sorted(required):
        if k <= n:
            rows, cols = (tuple(sorted(ix)) for ix in zip(*pivots[:k]))
            det = minors[k - 1]
        else:
            rows, cols = tuple(range(k)), tuple(range(d - k, d) if anti else range(k))
            det = float(abs(np.linalg.det(ov[np.ix_(rows, cols)])))
        witnesses.append(MinorWitness(k, det, rows, cols))
    band = any(w.best_abs_det <= MINOR_OK for w in witnesses)
    return GenericityResult(n == d and not band, n == d and band, tuple(witnesses))


def genericity_condition_b(pair: _Pair) -> GenericityResult:
    """Prefix-minor genericity used by the alpha < 1 spectral formula."""
    required = set(pair.i_bounds[1:-1]) | set(pair.j_bounds[1:-1])
    return _genericity(pair, required, anti=False)


def genericity_condition_b_prime(pair: _Pair) -> GenericityResult:
    """Suffix-minor variant used by the alpha > 1 branch (sigma invertible)."""
    if not pair.sigma_cut[2][-1]:
        raise SingularSigmaError("suffix genericity needs invertible sigma")
    required = set(pair.i_bounds[1:-1]) | {len(pair.overlap) - j for j in pair.j_bounds[1:-1]}
    return _genericity(pair, required, anti=True)


def _require_genericity(pair: _Pair, anti: bool, case: str) -> None:
    """Raise unless condition (b), or (b') when anti, holds for the pair's case."""
    gen = (genericity_condition_b_prime if anti else genericity_condition_b)(pair)
    if gen.undetermined:
        raise GenericityUndeterminedError("cannot certify the limit closed form")
    if not gen.holds:
        raise GenericityFailsError(f"genericity fails for {case}")


def z_alpha_eigenvalues(pair: _Pair, alpha: float) -> np.ndarray:
    """Limit eigenvalues a_i^alpha b_i^(1-alpha) (or anti-paired for alpha > 1).

    Requires the matching genericity condition; raises when it fails or
    cannot be decided.
    """
    check_alpha(alpha, one=False)
    _require_genericity(pair, alpha > 1.0, f"alpha={alpha}")
    return _limit_eigenvalues(pair, alpha)


def _limit_eigenvalues(pair: _Pair, alpha: float) -> np.ndarray:
    """z_alpha_eigenvalues for a pair whose genericity is already known to hold."""
    (a, _, on_a), (b, _, on_b) = pair.rho_cut, pair.sigma_cut
    if alpha > 1.0:
        b, on_b = b[::-1], on_b[::-1]
    out = np.zeros_like(a)
    # a cut b_i (alpha < 1 only) gives a positive power of a zero eigenvalue
    for i in np.flatnonzero(on_a & on_b):
        out[i] = a[i] ** alpha * b[i] ** (1.0 - alpha)
    return out


def _oracle_nodes(pair, alpha: float) -> list[float]:
    """D_{alpha,z} at each z of ORACLE_Z_NODES, in arbitrary precision.

    Q_{alpha,z} is the sum of s^(2z) over the singular values s of
    Y = D_b U^dag D_a, U the pair record's overlap matrix and D_a =
    diag(a^(alpha/2z)), D_b = diag(b^((1-alpha)/2z)) over the kept
    eigenvalues: Y^dag Y is the float kernel's M M^dag (divergences._log_q).
    Y has min(rank rho, rank sigma) singular values, so a rank-deficient
    sigma gives no structural zero to raise to the z-th power.  Y's
    singular values span up to exp(range/2), range = (alpha span_a +
    |1 - alpha| span_b) / z nats the span of Y^dag Y's eigenvalues, far
    past float64; mpf exponents are unbounded, and range/(2 ln 10) +
    ORACLE_GUARD_DIGITS digits keep that many relative digits on every
    singular value, so their power sum and logs run at that precision.
    The nodes halve z, so the powers of a and b are taken once, at the
    last node's precision, and squared from node to node.
    """
    import mpmath as mp  # deferred: only the oracle needs it, and it is slow to import

    a, _, on_a = pair.rho_cut
    b, _, on_b = pair.sigma_cut
    ia, ib = np.flatnonzero(on_a), np.flatnonzero(on_b)
    span_a = math.log(a[ia[0]] / a[ia[-1]])
    span_b = math.log(b[ib[0]] / b[ib[-1]])
    nats = alpha * span_a + abs(1.0 - alpha) * span_b  # z times range

    def digits(z: float) -> int:
        return int(nats / (2.0 * z * math.log(10.0))) + ORACLE_GUARD_DIGITS

    z0 = ORACLE_Z_NODES[0]
    top = digits(ORACLE_Z_NODES[-1])
    with mp.workdps(top):
        da = [mp.mpf(a[i]) ** (alpha / (2.0 * z0)) for i in ia]
        db = [mp.mpf(b[j]) ** ((1.0 - alpha) / (2.0 * z0)) for j in ib]
    u_dag = pair.overlap[np.ix_(ia, ib)].conj().T
    u_dag[np.abs(u_dag) <= MINOR_DEAD] = 0.0  # the elimination's exact zeros
    u_dag = [[mp.mpc(o.real, o.imag) for o in row] for row in u_dag]
    out = []
    for k, z in enumerate(ORACLE_Z_NODES):
        if k:
            with mp.workdps(top):
                da, db = [x * x for x in da], [x * x for x in db]
        with mp.workdps(digits(z)):
            y = mp.matrix([[u * yb * ya for u, ya in zip(row, da)] for row, yb in zip(u_dag, db)])
            sv = mp.svd_c(y, compute_uv=False)
        with mp.workdps(ORACLE_GUARD_DIGITS):
            q = mp.fsum(s ** (2 * z) for s in sv)
            out.append(float((mp.log(q) - mp.log(pair.tr)) / (alpha - 1.0)))
    return out


def zero_z_oracle(rho, sigma, alpha: float) -> float:
    """Richardson extrapolation of D_{alpha,z} to z = 0 over the halving grid ORACLE_Z_NODES.

    +inf where every z is: on a support leak above alpha = 1, on orthogonal supports below.
    """
    check_alpha(alpha, one=False)
    pair = _checked_pair(rho, sigma)
    if (not pair.rank if alpha < 1.0 else not pair.included):
        return math.inf
    d0, d1, d2 = _oracle_nodes(pair, alpha)
    r01 = 2.0 * d1 - d0
    r12 = 2.0 * d2 - d1
    return (4.0 * r12 - r01) / 3.0


@dataclass(frozen=True)
class ZeroZResult:
    """D_{alpha,0} with the (i, j) pivot of each limit eigenvalue a_i^alpha b_j^(1-alpha).

    Indices are positions in the pair record's descending spectra.
    used_fallback: the pivots are not _limit_eigenvalues' closed-form
    pairing (a_i with b_i, or b_(d+1-i) above alpha = 1), which would be
    wrong for the pair; d_alpha_z notes it at z = 0 as zero_z_nongeneric.
    """

    value: float
    used_fallback: bool
    pivots: tuple[tuple[int, int], ...]


def zero_z_divergence(rho, sigma, alpha: float) -> ZeroZResult:
    """D_{alpha,0} from the limit eigenvalues of the valuation-pivoted elimination (_limit_pivots)."""
    check_alpha(alpha, one=False)
    return _zero_z_divergence(_checked_pair(rho, sigma), alpha)


def _zero_z_divergence(pair: _Pair, alpha: float) -> ZeroZResult:
    """zero_z_divergence on a pair record."""
    if (not pair.rank if alpha < 1.0 else not pair.included):
        return ZeroZResult(math.inf, False, ())
    val = _valuations(pair, alpha)
    na, nb = val.shape
    pivots, minors = _limit_pivots(pair.overlap[:na, :nb].copy(), val)
    for k, minor in enumerate(minors):
        if minor <= MINOR_OK:
            raise GenericityUndeterminedError(
                f"overlap minor {minor:.3e} in the dead band at pivot {k + 1}"
            )
    agree, pairs = _closed_form_agreement(val, pivots, len(pair.overlap), alpha > 1.0)
    used_fallback = not (agree == pairs == len(pivots))
    if not pivots:  # rank >= 1, but no overlap above the elimination's MINOR_DEAD
        return ZeroZResult(math.inf, used_fallback, pivots)
    # log of the sum of the limit eigenvalues a_i^alpha b_j^(1-alpha), taken in logs
    i, j = np.array(pivots).T
    logs = alpha * np.log(pair.rho_cut[0][i]) + (1.0 - alpha) * np.log(pair.sigma_cut[0][j])
    log_q = float(np.logaddexp.reduce(logs))
    return ZeroZResult((log_q - math.log(pair.tr)) / (alpha - 1.0), used_fallback, pivots)


def _valuations(pair: _Pair, alpha: float) -> np.ndarray:
    """alpha log a_i + (1 - alpha) log b_j over the kept eigenvalues, a prefix of each spectrum.

    Each eigenvalue reads as its cluster's first, so degenerate
    eigenvalues give exactly equal valuations.
    """
    def logs(cut, bounds):
        values, _, kept = cut
        out = np.log(values[:np.count_nonzero(kept)])
        for lo, hi in zip(bounds, bounds[1:]):
            if hi - lo > 1:  # a degenerate block reads its first eigenvalue's log throughout
                out[lo + 1:hi] = out[lo:lo + 1]
        return out

    ra = logs(pair.rho_cut, pair.i_bounds)
    cb = logs(pair.sigma_cut, pair.j_bounds)
    return alpha * ra[:, None] + (1.0 - alpha) * cb


def _closed_form_agreement(val: np.ndarray, pivots, dim: int, anti: bool) -> tuple[int, int]:
    """How many leading pivots carry the closed-form pairing's valuations, and its length.

    The pairing runs down rho's spectrum and down sigma's, or up sigma's
    (anti), over the kept prefixes that val covers in spectra of size
    dim.  Both valuation sequences are non-increasing, so the limit
    spectrum is the closed form's exactly when every pivot agrees and
    there are as many pivots as pairs.
    """
    natural = (np.diagonal(val[:, ::-1], val.shape[1] - dim) if anti else np.diagonal(val)).tolist()
    agree = 0
    for (p, q), want in zip(pivots, natural):
        if val[p, q] != want:
            break
        agree += 1
    return agree, len(natural)


def _limit_pivots(c: np.ndarray, val: np.ndarray) -> tuple[tuple[tuple[int, int], ...], list[float]]:
    """Gaussian elimination of c (overwritten) pivoting on the live entry of largest valuation.

    diag(t^ra) c diag(t^cb), val = ra + cb, has monomial entries, and
    each Schur complement keeps them with the same exponents, so the
    elimination is a Smith normal form over the valuation ring: the
    first k pivots give the largest k x k minor, and the k-th pivot's
    valuation is the k-th limit log-eigenvalue (the maximum over
    det c[I, J] != 0 of the summed valuations, Audenaert-Hiai).  A tie
    goes to the entry of largest magnitude.  Entry (i, j)'s minor
    det c[I + i, J + j] is the product of the pivots so far times the
    entry: at most MINOR_DEAD it is an exact zero.  Returns the pivots in
    order, their valuations non-increasing, and |det| of each leading
    minor, the best at its valuation; the callers treat one of at most
    MINOR_OK as undecidable.
    """
    cols, steps = c.shape[1], min(c.shape)
    neg = -val.ravel()
    order = np.argsort(neg, kind="stable")
    keys = neg[order]  # ascending: equal valuations are one run
    ends = keys.searchsorted(keys, "right").tolist()  # where each entry's run ends
    det, pivots, minors = 1.0, [], []
    for k in range(steps):
        mag, live = np.abs(c.take(order)), MINOR_DEAD / det
        first = int((mag > live).argmax())
        if not mag[first] > live:
            break
        at = first + int(mag[first:ends[first]].argmax())
        det = det * float(mag[at])
        p, q = divmod(int(order[at]), cols)
        pivots.append((p, q))
        minors.append(det)
        if k + 1 < steps:
            f = c[:, q] / c[p, q]
            f[p] = 1.0  # the update then clears row p exactly; column q, cleared first, stays clear
            c[:, q] = 0.0
            c -= f[:, None] * c[p]
    return tuple(pivots), minors


@dataclass(frozen=True)
class EqualityCaseResult:
    gap: float
    commuting_aligned: bool


def equality_case_check(rho, sigma, direction: str) -> EqualityCaseResult:
    """Gap of the one-sided alpha -> 1 limit of D_{alpha,0} against Umegaki.

    direction="below": gap = D_Umegaki - lim_{alpha up to 1} D_{alpha,0},
    closed form (sum a_i ln b_i - Tr rho ln sigma) / Tr rho.
    direction="above": the mirrored gap with the anti-aligned pairing.
    The gap vanishes exactly when the pair commutes with the corresponding
    eigenvalue alignment, which the boolean reports independently.
    """
    if direction not in ("below", "above"):
        raise ValueError(f"direction must be 'below' or 'above', got {direction!r}")
    rho, sigma = as_operator(rho), as_operator(sigma)
    pair = spectral_profile(rho, sigma)
    (a, v, on_a), (b, _, on_b) = pair.rho_cut, pair.sigma_cut
    if not on_b[-1]:
        raise SingularSigmaError("equality-case analysis needs invertible sigma")
    below = direction == "below"
    _require_genericity(pair, not below, f"direction={direction}")
    paired = float(np.sum(a * np.log(b if below else b[::-1])))
    tr_rho_log_sigma = float(a[on_a] @ (pair.weights @ np.log(b)))  # as in Umegaki
    gap = (paired - tr_rho_log_sigma if below else tr_rho_log_sigma - paired) / float(np.sum(a))
    scale = max(rho.spectral_norm * sigma.spectral_norm, 1e-300)
    aligned = False
    if commutator_spectral_norm(rho, sigma) <= 1e-10 * scale:
        # a commuting pair's joint eigenvalues: sigma compressed to each rho block
        pairs = []
        for k, kk in zip(pair.i_bounds, pair.i_bounds[1:]):
            block = v[:, k:kk]
            comp = block.conj().T @ pair.sigma @ block
            bvals = np.linalg.eigvalsh(0.5 * (comp + comp.conj().T))
            pairs += [(float(a[k]), float(bv)) for bv in bvals]
        sign = 1.0 if below else -1.0
        aligned = all(
            sign * (p1[0] - p2[0]) * (p1[1] - p2[1]) >= -1e-8 * scale
            for p1, p2 in itertools.combinations(pairs, 2)
        )
    return EqualityCaseResult(gap=gap, commuting_aligned=aligned)


@dataclass(frozen=True)
class ReducingSubspaceResult:
    trace_attains_topk: bool
    reduces: bool


def reducing_subspace_check(A, P: Projection) -> ReducingSubspaceResult:
    """Does Tr AP attain the top-k eigenvalue sum, and does P reduce A?

    The rigidity statement under test: attaining the top-k sum forces
    AP = PAP, so the first flag implies the second.
    """
    A = as_operator(A)
    k = P.rank
    w = A.eigenvalues
    top_k = float(np.sum(w[:k])) if k > 0 else 0.0
    tr_ap = float(np.real(np.trace(A.entries @ P.entries)))
    attains = abs(tr_ap - top_k) <= 1e-8
    ap = A.entries @ P.entries
    pap = P.entries @ ap
    reduces = float(np.linalg.norm(ap - pap, 2)) <= 1e-8
    return ReducingSubspaceResult(trace_attains_topk=attains, reduces=reduces)
