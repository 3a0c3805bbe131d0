"""Small-z limit of the (alpha, z) family: spectral formula and checks.

The z -> 0 limit of Q_{alpha,z} has eigenvalues lambda_1 >= lambda_2 >= ...
with log(lambda_1 ... lambda_k) the largest alpha sum_I log a_i +
(1 - alpha) sum_J log b_j over |I| = |J| = k with det U[I, J] != 0, U the
eigenvector overlap (Audenaert-Hiai, "Reciprocal Lie-Trotter formula").
zero_z_divergence evaluates it for every pair in O(d^3): Gaussian
elimination of U pivoting on the entry of largest valuation
(_limit_pivots), with the library's minor band deciding exact zeros.
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
    BadAlphaError,
    GenericityFailsError,
    GenericityUndeterminedError,
    SingularSigmaError,
)
from .opcore import (
    Projection,
    _checked_pair,
    _rebuild,
    as_operator,
    commutator_spectral_norm,
)

#: a minor certifies genericity when its magnitude exceeds this
MINOR_OK = 1e-10

#: below this the best minor counts as an exact zero (definite failure)
MINOR_DEAD = 1e-12

#: adjacent-eigenvalue gaps between these relative thresholds make the
#: block clustering ambiguous
CLUSTER_TOL = 1e-10
CLUSTER_AMBIGUOUS = 1e-8

#: geometric z-grid for the extrapolation oracle; each node halves the last
ORACLE_Z_NODES = (1e-2, 5e-3, 2.5e-3)

#: decimal digits the oracle keeps on the smallest singular value and in its sums
ORACLE_GUARD_DIGITS = 50


@dataclass(frozen=True)
class SpectralProfile:
    """Eigen-data of a pair with eigenvalues clustered into equal blocks.

    a, v and b, w are the cut eigensystems of rho and sigma (eigenvalues
    descending, negative dust clamped to 0) and on_a, on_b their kept
    masks, from the package's one support decision (opcore._cut_spectrum);
    overlap is v^dag w, computed once (the pair record's, where there is
    one).  Boundaries are cumulative counts: bounds (0, k1, ..., d) mean
    the first block covers indices [0, k1) and so on.
    """

    a: np.ndarray
    b: np.ndarray
    v: np.ndarray
    w: np.ndarray
    on_a: np.ndarray
    on_b: np.ndarray
    overlap: np.ndarray
    i_bounds: tuple[int, ...]
    j_bounds: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.a)


def _cluster_bounds(values: np.ndarray) -> tuple[int, ...]:
    """Block boundaries of a sorted, nonnegative (cut) spectrum."""
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


def _profile(rho_cut, sigma_cut, overlap) -> SpectralProfile:
    """The profile of two cut eigensystems (w, v, kept) and their overlap, e.g. a pair record's."""
    (a, v, on_a), (b, w, on_b) = rho_cut, sigma_cut
    return SpectralProfile(
        a, b, v, w, on_a, on_b, overlap, _cluster_bounds(a), _cluster_bounds(b)
    )


def spectral_profile(rho, sigma) -> SpectralProfile:
    """The clustered eigen-data of a pair, from its pair record.

    Raises DimMismatchError on operators of different dimensions,
    NotPSDError on a non-PSD operator and ZeroOperatorError on a zero one.
    """
    pair = _checked_pair(rho, sigma)
    return _profile(pair.rho_cut, pair.sigma_cut, pair.overlap)


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


def _genericity(profile: SpectralProfile, required, anti: bool) -> GenericityResult:
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
    d, ov = profile.dim, profile.overlap
    index = np.arange(d)
    rho_block = np.array(profile.i_bounds[1:]).searchsorted(index, "right")
    sigma_block = np.array(profile.j_bounds[1:]).searchsorted(index, "right")
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


def genericity_condition_b(profile: SpectralProfile) -> GenericityResult:
    """Prefix-minor genericity used by the alpha < 1 spectral formula."""
    required = set(profile.i_bounds[1:-1]) | set(profile.j_bounds[1:-1])
    return _genericity(profile, required, anti=False)


def genericity_condition_b_prime(profile: SpectralProfile) -> GenericityResult:
    """Suffix-minor variant used by the alpha > 1 branch (sigma invertible)."""
    d = profile.dim
    if not profile.on_b[-1]:
        raise SingularSigmaError("suffix genericity needs invertible sigma")
    required = set(profile.i_bounds[1:-1]) | {d - j for j in profile.j_bounds[1:-1]}
    return _genericity(profile, required, anti=True)


def _check_alpha(alpha: float) -> None:
    if not alpha > 0.0 or alpha == 1.0:
        raise BadAlphaError(f"alpha must be in (0,1) or (1,inf), got {alpha}")


def z_alpha_eigenvalues(profile: SpectralProfile, alpha: float) -> np.ndarray:
    """Limit eigenvalues a_i^alpha b_i^(1-alpha) (or anti-paired for alpha > 1).

    Requires the matching genericity condition; raises when it fails or
    cannot be decided.
    """
    _check_alpha(alpha)
    gen = (genericity_condition_b if alpha < 1.0 else genericity_condition_b_prime)(profile)
    if not gen.holds:
        if gen.undetermined:
            raise GenericityUndeterminedError(
                "overlap minors too close to zero to certify the spectral formula"
            )
        raise GenericityFailsError("genericity condition fails for this pair")
    return _limit_eigenvalues(profile, alpha)


def _limit_eigenvalues(profile: SpectralProfile, alpha: float) -> np.ndarray:
    """z_alpha_eigenvalues for a profile whose genericity is already known to hold."""
    a, on_a, b, on_b = profile.a, profile.on_a, profile.b, profile.on_b
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

    +inf above alpha = 1 when rho leaks out of sigma's support, as at every z.
    """
    _check_alpha(alpha)
    pair = _checked_pair(rho, sigma)
    if alpha > 1.0 and not pair.included:
        return math.inf
    d0, d1, d2 = _oracle_nodes(pair, alpha)
    if math.isinf(d2):  # Y = 0 at every node: the supports are orthogonal (alpha < 1)
        return math.inf
    r01 = 2.0 * d1 - d0
    r12 = 2.0 * d2 - d1
    return (4.0 * r12 - r01) / 3.0


@dataclass(frozen=True)
class ZeroZResult:
    """D_{alpha,0} with the (i, j) pivot of each limit eigenvalue a_i^alpha b_j^(1-alpha).

    Indices are positions in the profile's descending spectra.
    used_fallback: the limit spectrum differs from the closed-form pairing
    (_limit_eigenvalues), which would be wrong for the pair; the name is
    kept from when such pairs fell back to zero_z_oracle.
    """

    value: float
    used_fallback: bool
    pivots: tuple[tuple[int, int], ...]


def zero_z_divergence(rho, sigma, alpha: float) -> ZeroZResult:
    """D_{alpha,0} from the limit eigenvalues of the valuation-pivoted elimination (_limit_pivots)."""
    _check_alpha(alpha)
    return _zero_z_divergence(_checked_pair(rho, sigma), alpha)


def _zero_z_divergence(pair, alpha: float) -> ZeroZResult:
    """zero_z_divergence on a pair record, its profile built from the record."""
    if alpha > 1.0 and not pair.included:
        return ZeroZResult(math.inf, False, ())
    profile = _profile(pair.rho_cut, pair.sigma_cut, pair.overlap)
    val = _valuations(profile, alpha)
    na, nb = val.shape
    pivots, minors = _limit_pivots(profile.overlap[:na, :nb].copy(), val)
    for k, minor in enumerate(minors):
        if minor <= MINOR_OK:
            raise GenericityUndeterminedError(
                f"overlap minor {minor:.3e} in the dead band at pivot {k + 1}"
            )
    agree, pairs = _closed_form_agreement(val, pivots, profile.dim, alpha > 1.0)
    used_fallback = not (agree == pairs == len(pivots))
    if not pivots:  # the supports are orthogonal (alpha < 1)
        return ZeroZResult(math.inf, used_fallback, pivots)
    # log of the sum of the limit eigenvalues a_i^alpha b_j^(1-alpha), taken in logs
    i, j = np.array(pivots).T
    logs = alpha * np.log(profile.a[i]) + (1.0 - alpha) * np.log(profile.b[j])
    log_q = float(np.logaddexp.reduce(logs))
    return ZeroZResult((log_q - math.log(pair.tr)) / (alpha - 1.0), used_fallback, pivots)


def _valuations(profile: SpectralProfile, alpha: float) -> np.ndarray:
    """alpha log a_i + (1 - alpha) log b_j over the kept eigenvalues, a prefix of each spectrum.

    Each eigenvalue reads as its cluster's first, so degenerate
    eigenvalues give exactly equal valuations.
    """
    def logs(values, bounds, kept):
        values = values.tolist()
        first = [values[lo] for lo, hi in zip(bounds, bounds[1:]) for _ in range(lo, hi)]
        return np.log(first[:np.count_nonzero(kept)])

    ra = logs(profile.a, profile.i_bounds, profile.on_a)
    cb = logs(profile.b, profile.j_bounds, profile.on_b)
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
    det, pivots, minors = 1.0, [], []
    for k in range(steps):
        mag, live = np.abs(c.take(order)), MINOR_DEAD / det
        first = int((mag > live).argmax())
        if not mag[first] > live:
            break
        end = int(keys.searchsorted(keys[first], "right"))
        at = first + int(mag[first:end].argmax())
        det = det * float(mag[at])
        p, q = divmod(int(order[at]), cols)
        pivots.append((p, q))
        minors.append(det)
        if k + 1 < steps:
            c -= (c[:, q] / c[p, q])[:, None] * c[p]
            c[p], c[:, q] = 0.0, 0.0
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
    pair = _checked_pair(rho, sigma)
    profile = _profile(pair.rho_cut, pair.sigma_cut, pair.overlap)
    if not profile.on_b[-1]:
        raise SingularSigmaError("equality-case analysis needs invertible sigma")
    gen = (
        genericity_condition_b(profile)
        if direction == "below"
        else genericity_condition_b_prime(profile)
    )
    if not gen.holds:
        if gen.undetermined:
            raise GenericityUndeterminedError("cannot certify the limit closed form")
        raise GenericityFailsError(f"genericity fails for direction={direction}")
    a = profile.a
    b = profile.b if direction == "below" else profile.b[::-1]
    tr_rho = float(np.sum(a))
    paired = float(np.sum(a * np.log(b)))
    tr_rho_log_sigma = float(np.real(np.trace(pair.rho @ _rebuild(pair.sigma_cut, np.log))))
    if direction == "below":
        gap = (paired - tr_rho_log_sigma) / tr_rho
    else:
        gap = (tr_rho_log_sigma - paired) / tr_rho
    scale = max(rho.spectral_norm * sigma.spectral_norm, 1e-300)
    aligned = False
    if commutator_spectral_norm(rho, sigma) <= 1e-10 * scale:
        # a commuting pair's joint eigenvalues: sigma compressed to each rho block
        pairs = []
        for k, kk in zip(profile.i_bounds, profile.i_bounds[1:]):
            block = profile.v[:, k:kk]
            comp = block.conj().T @ pair.sigma @ block
            bvals = np.linalg.eigvalsh(0.5 * (comp + comp.conj().T))
            pairs += [(float(a[k]), float(bv)) for bv in bvals]
        sign = 1.0 if direction == "below" else -1.0
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
