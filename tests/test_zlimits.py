"""z -> 0 spectral limits, genericity detection, equality cases."""

import itertools
import math
import time

import numpy as np
import pytest

from qrd import opcore, zlimits
from qrd.divergences import DivergenceParams, d_alpha_z
from qrd.errors import (
    BadAlphaError,
    DimMismatchError,
    GenericityFailsError,
    GenericityUndeterminedError,
    NotPSDError,
    SingularSigmaError,
    ZeroOperatorError,
)
from qrd.opcore import HermitianOperator, Projection, _checked_pair
from qrd.verify import generic_zero_z_pair, rand_balanced_pure, rand_density
from qrd.zlimits import (
    GenericityResult,
    MinorWitness,
    equality_case_check,
    genericity_condition_b,
    genericity_condition_b_prime,
    reducing_subspace_check,
    spectral_profile,
    z_alpha_eigenvalues,
    zero_z_divergence,
    zero_z_oracle,
)


def test_profile_orders_spectra(rng):
    rho = rand_density(rng, 3)
    sigma = rand_density(rng, 3)
    prof = spectral_profile(rho, sigma)
    assert all(x >= y for x, y in zip(prof.rho_cut[0], prof.rho_cut[0][1:]))
    assert all(x >= y for x, y in zip(prof.sigma_cut[0], prof.sigma_cut[0][1:]))


def test_limit_eigenvalues_commuting_aligned():
    # aligned overlap satisfies the plain condition, so the small-alpha
    # branch pairs spectra in matching order
    a = np.array([0.5, 0.3, 0.2])
    b = np.array([0.6, 0.25, 0.15])
    prof = spectral_profile(HermitianOperator(np.diag(a)), HermitianOperator(np.diag(b)))
    lam = z_alpha_eigenvalues(prof, 0.6)
    np.testing.assert_allclose(sorted(lam), sorted(a**0.6 * b**0.4), rtol=1e-10)


def test_aligned_overlap_fails_the_reversed_condition():
    rho = HermitianOperator(np.diag([0.5, 0.3, 0.2]))
    sigma = HermitianOperator(np.diag([0.7, 0.2, 0.1]))
    prof = spectral_profile(rho, sigma)
    assert genericity_condition_b(prof).holds
    assert not genericity_condition_b_prime(prof).holds


def test_limit_value_is_log_sum_of_limit_eigenvalues(rng):
    rho, sigma = generic_zero_z_pair(rng, 3)
    for alpha in (0.6, 1.7):
        val = zero_z_divergence(rho, sigma, alpha).value
        lam = z_alpha_eigenvalues(spectral_profile(rho, sigma), alpha)
        assert val == pytest.approx(math.log(lam.sum()) / (alpha - 1.0), abs=1e-12)


def test_genericity_holds_for_generic_draw(rng):
    rho, sigma = generic_zero_z_pair(rng, 3)
    prof = spectral_profile(rho, sigma)
    assert genericity_condition_b(prof).holds
    assert genericity_condition_b_prime(prof).holds


def test_zero_z_alpha_validation(rng):
    rho, sigma = generic_zero_z_pair(rng, 2)
    for fn in (zero_z_divergence, zero_z_oracle):
        for alpha in (1.0, 0.0, -0.5, math.nan):
            with pytest.raises(BadAlphaError):
                fn(rho, sigma, alpha)


def test_spectral_limit_against_extrapolation(rng):
    rho, sigma = generic_zero_z_pair(rng, 3)
    for alpha in (0.6, 1.7):
        res = zero_z_divergence(rho, sigma, alpha)
        assert not res.used_fallback
        assert res.value == pytest.approx(zero_z_oracle(rho, sigma, alpha), abs=1e-5)


def test_limit_bounds_small_z_values(rng):
    rho, sigma = generic_zero_z_pair(rng, 2)
    lim = zero_z_divergence(rho, sigma, 1.7).value
    dz = d_alpha_z(rho, sigma, DivergenceParams(1.7, 0.05)).d_value
    assert dz <= lim + 1e-6


def test_equality_aligned_and_anti_aligned():
    a = np.diag([0.5, 0.3, 0.2])
    b = np.diag([0.6, 0.25, 0.15])
    below = equality_case_check(HermitianOperator(a), HermitianOperator(b), "below")
    assert below.gap <= 1e-8 and below.commuting_aligned
    above = equality_case_check(
        HermitianOperator(a), HermitianOperator(np.diag([0.15, 0.25, 0.6])), "above"
    )
    assert above.gap <= 1e-8 and above.commuting_aligned


def test_equality_needs_invertible_sigma():
    rho = HermitianOperator(np.diag([0.5, 0.5, 0.0]))
    sigma = HermitianOperator(np.diag([0.6, 0.4, 0.0]))
    with pytest.raises(SingularSigmaError):
        equality_case_check(rho, sigma, "below")


def test_equality_fails_generic_noncommuting(rng):
    rho, sigma = generic_zero_z_pair(rng, 2)
    res = equality_case_check(rho, sigma, "below")
    assert res.gap > 1e-6 and not res.commuting_aligned


def test_reducing_subspace_top_eigenvector(rng):
    a = rand_density(rng, 3)
    top = a.eigenvectors[:, :1]
    res = reducing_subspace_check(a, Projection(top @ top.conj().T))
    assert res.trace_attains_topk and res.reduces


def test_pure_state_limits_hit_reference_spectrum_edges(rng):
    sigma = rand_density(rng, 3, floor=0.05)
    psi = rand_balanced_pure(rng, sigma)
    b = sigma.eigenvalues
    assert zero_z_divergence(psi, sigma, 0.5).value == pytest.approx(
        math.log(1.0 / b[0]), abs=1e-9
    )
    assert zero_z_divergence(psi, sigma, 2.5).value == pytest.approx(
        math.log(1.0 / b[-1]), abs=1e-9
    )


# ------------------------------------------------ per-minor reference search


def _ref_prefix_sets(bounds, k):
    out = set()
    for r in range(1, len(bounds)):
        lo, hi = bounds[r - 1], bounds[r]
        if lo <= k <= hi:
            for combo in itertools.combinations(range(lo, hi), k - lo):
                out.add(tuple(range(lo)) + combo)
    return sorted(out)


def _ref_suffix_sets(bounds, k, d):
    out = set()
    for s in range(1, len(bounds)):
        lo, hi = bounds[s - 1], bounds[s]
        need = k - (d - hi)
        if 0 <= need <= hi - lo:
            for combo in itertools.combinations(range(lo, hi), need):
                out.add(tuple(sorted(combo + tuple(range(hi, d)))))
    return sorted(out)


def _ref_genericity(profile, prime: bool, batch=None) -> GenericityResult:
    """Every minor of the condition's families, rows outer, first strict maximum wins.

    With batch=None each minor is one np.linalg.det call; otherwise the
    minors of each size go through np.linalg.det in stacks of `batch`.
    """
    d = len(profile.rho)
    if prime:
        required = set(profile.i_bounds[1:-1]) | {d - j for j in profile.j_bounds[1:-1]}
    else:
        required = set(profile.i_bounds[1:-1]) | set(profile.j_bounds[1:-1])
    ov = profile.overlap
    witnesses = []
    for k in sorted(required):
        col_sets = (
            _ref_suffix_sets(profile.j_bounds, k, d)
            if prime
            else _ref_prefix_sets(profile.j_bounds, k)
        )
        minors = [(rows, cols) for rows in _ref_prefix_sets(profile.i_bounds, k)
                  for cols in col_sets]
        if batch is None:
            vals = [abs(np.linalg.det(ov[np.ix_(rows, cols)])) for rows, cols in minors]
        else:
            det = np.concatenate([
                np.linalg.det(np.stack([ov[np.ix_(r, c)] for r, c in minors[i:i + batch]]))
                for i in range(0, len(minors), batch)
            ])
            vals = np.hypot(det.real, det.imag)  # bitwise abs() of each complex determinant
        best = MinorWitness(k, -1.0, (), ())
        for (rows, cols), val in zip(minors, vals):
            if val > best.best_abs_det:
                best = MinorWitness(k, float(val), tuple(rows), tuple(cols))
        witnesses.append(best)
    holds = all(w.best_abs_det > zlimits.MINOR_OK for w in witnesses)
    undetermined = (not holds) and all(w.best_abs_det > zlimits.MINOR_DEAD for w in witnesses)
    return GenericityResult(holds, undetermined, tuple(witnesses))


def _rotated(rng, spectrum):
    q, _ = np.linalg.qr(rng.standard_normal((len(spectrum),) * 2)
                        + 1j * rng.standard_normal((len(spectrum),) * 2))
    spectrum = np.asarray(spectrum, dtype=float) / np.sum(spectrum)
    return HermitianOperator((q * spectrum) @ q.conj().T)


def _search_cases():
    rng = np.random.default_rng(77)
    cases = [(f"mixed-d{d}", rand_density(rng, d), HermitianOperator(np.eye(d) / d))
             for d in range(2, 9)]
    clustered = (
        ([3, 3, 2, 2, 1], [4, 4, 1, 1, 1]),
        ([5, 2, 2, 2, 1, 1], [3, 3, 3, 2, 2, 1]),
        ([4, 4, 4, 1, 1, 1, 1], [6, 2, 2, 2, 2, 1, 1]),
        ([1, 1, 1, 1, 1, 1], [5, 3, 3, 3, 2, 2]),
    )
    cases += [(f"clustered-{i}", _rotated(rng, a), _rotated(rng, b))
              for i, (a, b) in enumerate(clustered)]
    for d in (3, 5):
        a = np.sort(rng.uniform(0.2, 1.0, d))[::-1]
        cases.append((f"anti-aligned-d{d}", HermitianOperator(np.diag(a)),
                      HermitianOperator(np.diag(a[::-1]))))
    # rho's top eigenvector is orthogonal to sigma's top block, so every
    # candidate minor of size 2 is an exact zero: a tie the first set wins
    cases.append(("commuting-tied", HermitianOperator(np.diag([0.4, 0.3, 0.2, 0.1])),
                  HermitianOperator(np.diag([0.1, 0.3, 0.3, 0.3]))))
    return cases


SEARCH_CASES = _search_cases()


RANDOM_KINDS = ("full", "rho-deficient", "sigma-deficient", "clustered", "commuting", "near-aligned")


def _random_pair(rng, kind, d):
    """A seeded pair of the given kind; near-aligned rotates sigma's extreme
    eigenvectors by an angle around the minor band (MINOR_DEAD, MINOR_OK]."""
    if kind == "full":
        return rand_density(rng, d), rand_density(rng, d)
    if kind == "rho-deficient":
        return rand_density(rng, d, rank=int(rng.integers(1, d))), rand_density(rng, d)
    if kind == "sigma-deficient":
        return rand_density(rng, d), rand_density(rng, d, rank=int(rng.integers(1, d)))
    if kind == "clustered":
        return _rotated(rng, rng.integers(1, 3, d)), _rotated(rng, rng.integers(1, 3, d))
    rho = HermitianOperator(np.diag(np.sort(rng.uniform(0.1, 1.0, d))[::-1]))
    if kind == "commuting":  # sigma's eigenvalues in a random order against rho's
        return rho, HermitianOperator(np.diag(rng.uniform(0.1, 1.0, d)))
    theta = 10.0 ** rng.uniform(-13.5, -9.5)
    u = np.eye(d)
    u[0, 0] = u[-1, -1] = math.cos(theta)
    u[0, -1], u[-1, 0] = -math.sin(theta), math.sin(theta)
    return rho, HermitianOperator((u * np.sort(rng.uniform(0.1, 1.0, d))[::-1]) @ u.T)


def _assert_matches_reference(prof):
    """Both conditions give the per-minor search's verdict, each witness a minor of its family."""
    d = len(prof.rho)
    conditions = [(False, genericity_condition_b)]
    if prof.sigma_cut[2][-1]:
        conditions.append((True, genericity_condition_b_prime))
    else:
        with pytest.raises(SingularSigmaError):
            genericity_condition_b_prime(prof)
    for prime, condition in conditions:
        got, want = condition(prof), _ref_genericity(prof, prime)
        assert (got.holds, got.undetermined) == (want.holds, want.undetermined)
        assert [w.k for w in got.witnesses] == [w.k for w in want.witnesses]
        for w in got.witnesses:
            cols = (_ref_suffix_sets(prof.j_bounds, w.k, d) if prime
                    else _ref_prefix_sets(prof.j_bounds, w.k))
            assert w.rows in _ref_prefix_sets(prof.i_bounds, w.k) and w.cols in cols
            det = abs(np.linalg.det(prof.overlap[np.ix_(w.rows, w.cols)]))
            assert abs(w.best_abs_det - det) <= 1e-12 * det


@pytest.mark.parametrize("batch", [None, 3, 40])
@pytest.mark.parametrize("case", SEARCH_CASES, ids=[c[0] for c in SEARCH_CASES])
def test_batched_search_matches_per_minor_reference(case, batch):
    _, rho, sigma = case
    prof = spectral_profile(rho, sigma)
    for prime in (False, True) if prof.sigma_cut[2][-1] else (False,):
        got, want = _ref_genericity(prof, prime, batch), _ref_genericity(prof, prime)
        assert got == want
        assert repr(got) == repr(want)
    _assert_matches_reference(prof)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", RANDOM_KINDS)
def test_conditions_match_the_per_minor_reference_on_random_pairs(kind, d):
    rng = np.random.default_rng([78, RANDOM_KINDS.index(kind), d])
    for _ in range(10):
        _assert_matches_reference(spectral_profile(*_random_pair(rng, kind, d)))


@pytest.mark.parametrize("d", [24, 64])
def test_conditions_at_maximally_mixed_sigma_take_bounded_time(d):
    # the per-minor search takes 2^d - 2 determinants here
    rng = np.random.default_rng(d)
    rho, sigma = rand_density(rng, d), HermitianOperator(np.eye(d) / d)
    start = time.perf_counter()
    prof = spectral_profile(rho, sigma)
    assert genericity_condition_b(prof).holds and genericity_condition_b_prime(prof).holds
    assert equality_case_check(rho, sigma, "below").gap == pytest.approx(0.0, abs=1e-10)
    assert time.perf_counter() - start < 1.0


def test_anti_aligned_minors_are_exact_zeros():
    _, rho, sigma = SEARCH_CASES[[c[0] for c in SEARCH_CASES].index("anti-aligned-d5")]
    gen = genericity_condition_b(spectral_profile(rho, sigma))
    assert not gen.holds and not gen.undetermined
    assert any(w.best_abs_det == 0.0 for w in gen.witnesses)


def test_spectral_profile_rejects_a_non_psd_operator(rng):
    with pytest.raises(NotPSDError):
        spectral_profile(HermitianOperator(np.diag([1.0, -0.5])), rand_density(rng, 2))


def test_spectral_profile_rejects_operators_of_different_dimensions():
    with pytest.raises(DimMismatchError):
        spectral_profile(np.diag([0.6, 0.4]), np.diag([0.5, 0.3, 0.2]))


def test_spectral_profile_rejects_a_zero_operator(rng):
    with pytest.raises(ZeroOperatorError):
        spectral_profile(np.zeros((2, 2)), rand_density(rng, 2))


def test_profile_overlap_is_the_pair_records(rng):
    rho, sigma = rand_density(rng, 3), rand_density(rng, 3)
    assert np.array_equal(spectral_profile(rho, sigma).overlap, _checked_pair(rho, sigma).overlap)


def test_profile_is_the_pair_record(rng):
    rho, sigma = rand_density(rng, 3), rand_density(rng, 3)
    assert spectral_profile(rho, sigma) is _checked_pair(rho, sigma)


def test_spectral_profile_raises_on_a_near_degenerate_spectrum(rng):
    rho = HermitianOperator(np.diag([0.5, 0.5 - 1e-9, 0.0]))  # a gap inside the ambiguous band
    with pytest.raises(GenericityUndeterminedError, match="near-degenerate"):
        spectral_profile(rho, rand_density(rng, 3))


def test_blocks_are_decided_once_per_spectrum(rng, monkeypatch):
    calls = []

    def counting(values):
        calls.append(len(values))
        return cluster_bounds(values)

    cluster_bounds = opcore._cluster_bounds
    monkeypatch.setattr(opcore, "_cluster_bounds", counting)
    rho, sigma = rand_density(rng, 4), rand_density(rng, 4)
    first = [zero_z_divergence(rho, sigma, alpha) for alpha in (0.3, 0.6, 1.7, 2.5)]
    again = [zero_z_divergence(rho, sigma, alpha) for alpha in (0.3, 0.6, 1.7, 2.5)]
    assert first == again
    assert len(calls) == 2


def _anti_aligned_rotated(theta):
    """rho = diag(.5, .3, .2) against sigma = diag(.1, .2, .7) turned by theta in the (0, 2) plane.

    The overlap's (0, 0) entry, rho's top against sigma's top, is sin(theta).
    """
    c, s = math.cos(theta), math.sin(theta)
    u = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    sigma = (u * [0.1, 0.2, 0.7]) @ u.T
    return HermitianOperator(np.diag([0.5, 0.3, 0.2])), HermitianOperator(sigma)


def test_both_callers_raise_when_the_required_condition_fails():
    # aligned spectra: (b) holds, the anti-paired (b') has a zero suffix minor
    rho = HermitianOperator(np.diag([0.5, 0.3, 0.2]))
    sigma = HermitianOperator(np.diag([0.7, 0.2, 0.1]))
    prof = spectral_profile(rho, sigma)
    assert genericity_condition_b(prof).holds
    gen = genericity_condition_b_prime(prof)
    assert not gen.holds and not gen.undetermined
    with pytest.raises(GenericityFailsError, match="alpha=1.7"):
        z_alpha_eigenvalues(prof, 1.7)
    with pytest.raises(GenericityFailsError, match="direction=above"):
        equality_case_check(rho, sigma, "above")


def test_both_callers_raise_when_the_required_condition_is_undetermined():
    rho, sigma = _anti_aligned_rotated(1e-11)
    prof = spectral_profile(rho, sigma)
    gen = genericity_condition_b(prof)
    assert gen.undetermined and not gen.holds
    assert genericity_condition_b_prime(prof).holds
    with pytest.raises(GenericityUndeterminedError):
        z_alpha_eigenvalues(prof, 0.6)
    with pytest.raises(GenericityUndeterminedError):
        equality_case_check(rho, sigma, "below")


# ------------------------------------------------------ extrapolation oracle


def gram_node_value(pair, alpha, z):
    """D_{alpha,z} from the eigenvalues of the Gram matrix Y^dag Y, Y = D_b U^dag D_a.

    The reference for zlimits._oracle_nodes: mp.eighe of the
    symmetrized Y^dag Y at range/(z ln 10) + 50 digits, positive
    eigenvalues raised to z.  A rank-deficient sigma leaves structural
    zero eigenvalues that eighe returns as +-1e-dps, so only full-rank
    pairs compare.
    """
    import mpmath as mp

    a, _, on_a = pair.rho_cut
    b, _, on_b = pair.sigma_cut
    ia, ib = np.flatnonzero(on_a).tolist(), np.flatnonzero(on_b).tolist()
    span_a = math.log(a[ia[0]] / a[ia[-1]]) if len(ia) > 1 else 0.0
    span_b = math.log(b[ib[0]] / b[ib[-1]]) if len(ib) > 1 else 0.0
    gamma = alpha / (2.0 * z)
    beta = (1.0 - alpha) / (2.0 * z)
    range_nats = 2.0 * gamma * span_a + 2.0 * abs(beta) * span_b
    dps = int(range_nats / math.log(10.0)) + 50
    with mp.workdps(dps):
        da = [mp.mpf(a[i]) ** gamma for i in ia]
        db = [mp.mpf(b[j]) ** beta for j in ib]
        y = mp.matrix(len(ib), len(ia))
        for r, j in enumerate(ib):
            for c, i in enumerate(ia):
                o = pair.overlap[i, j]
                y[r, c] = mp.mpc(o.real, o.imag).conjugate() * db[r] * da[c]
        m = y.H * y
        m = (m + m.H) / 2
        q = mp.mpf(0)
        for mu in mp.eighe(m, eigvals_only=True):
            if mu > 0:
                q += mu ** z
        return float((mp.log(q) - mp.log(pair.tr)) / (alpha - 1.0))


def test_oracle_nodes_match_the_gram_reference_on_full_rank_pairs(rng):
    pairs = [generic_zero_z_pair(rng, d) for d in (2, 3, 4)]
    pairs += [(rand_density(rng, d), rand_density(rng, d)) for d in (2, 3)]
    for rho, sigma in pairs:
        pair = _checked_pair(rho, sigma)
        for alpha in (0.6, 1.7):
            got = zlimits._oracle_nodes(pair, alpha)
            want = [gram_node_value(pair, alpha, z) for z in zlimits.ORACLE_Z_NODES]
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_oracle_matches_the_limit_formula_on_rank_deficient_sigma():
    # Y^dag Y of such a pair has a structural zero eigenvalue, whose
    # rounding-level image raised to z = 2.5e-3 used to add O(1) to Q
    rng = np.random.default_rng(41)
    for d in (2, 3, 4):
        found = 0
        while found < 3:
            rho, sigma = rand_density(rng, d), rand_density(rng, d, rank=d - 1)
            if not genericity_condition_b(spectral_profile(rho, sigma)).holds:
                continue
            found += 1
            res = zero_z_divergence(rho, sigma, 0.6)
            assert not res.used_fallback
            gap = abs(res.value - zero_z_oracle(rho, sigma, 0.6))
            assert gap <= 1e-4, f"oracle gap {gap:.3g} at d = {d}"


@pytest.mark.parametrize("seed", range(3, 9))
def test_oracle_zeroes_the_overlaps_the_elimination_calls_dead(seed):
    # rho commutes with a rank-2 sigma inside its support, so two overlaps
    # are rounding-level; scaled by (a_0 / a_1)^(alpha/2z) they used to move
    # the oracle by O(1)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    sigma = HermitianOperator(g @ g.conj().T / np.linalg.norm(g) ** 2)
    w = sigma.eigenvectors[:, :2]
    rho = HermitianOperator(w @ np.diag([0.7, 0.3]) @ w.conj().T)
    exact = zero_z_divergence(rho, sigma, 1.7).value
    assert zero_z_oracle(rho, sigma, 1.7) == pytest.approx(exact, abs=1e-6)


def test_oracle_is_inf_when_rho_leaks_out_of_sigma():
    rng = np.random.default_rng(3)
    rho, sigma = rand_density(rng, 3), rand_density(rng, 3, rank=2)
    assert not _checked_pair(rho, sigma).included
    assert d_alpha_z(rho, sigma, DivergenceParams(1.7, 0.01)).d_value == math.inf
    assert zero_z_oracle(rho, sigma, 1.7) == math.inf
    assert math.isfinite(zero_z_oracle(rho, sigma, 0.6))


def test_oracle_is_inf_on_orthogonal_supports():
    rho, sigma = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    assert d_alpha_z(rho, sigma, DivergenceParams(0.5, 0.01)).d_value == math.inf
    assert zero_z_oracle(rho, sigma, 0.5) == math.inf


# ------------------------------------------- valuation-pivoted elimination


def minor_reference(a, b, u, alpha):
    """D_{alpha,0} from the limit formula by brute force over the minors of u.

    log(lambda_1 ... lambda_k) is the largest alpha sum_I log a_i +
    (1 - alpha) sum_J log b_j over |I| = |J| = k with |det u[I, J]| > 1e-8
    (Audenaert-Hiai); u is the exact overlap, so its zeros carry no rounding.
    """
    d, partial = len(a), [0.0]
    for k in range(1, d + 1):
        sums = [
            alpha * np.sum(np.log(a[list(rows)])) + (1.0 - alpha) * np.sum(np.log(b[list(cols)]))
            for rows in itertools.combinations(range(d), k)
            for cols in itertools.combinations(range(d), k)
            if abs(np.linalg.det(u[np.ix_(rows, cols)])) > 1e-8
        ]
        if not sums:
            break
        partial.append(max(sums))
    q0 = float(np.sum(np.exp(np.diff(partial))))
    return math.log(q0 / np.sum(a)) / (alpha - 1.0)


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def _exact_structure_cases():
    """(rho, sigma, a, b, U) with U = P (B + I), B a random 2 x 2 unitary: exact zeros in U."""
    rng = np.random.default_rng(11)
    cases = []
    for d in (2, 3, 4):
        for rotated in (False, True):
            for _ in range(10):
                a = np.sort(rng.uniform(0.05, 1.0, d))[::-1]
                b = np.sort(rng.uniform(0.05, 1.0, d))[::-1]
                a, b = a / a.sum(), b / b.sum()
                u = np.eye(d, dtype=complex)
                u[:2, :2] = _unitary(rng, 2)
                u = u[rng.permutation(d)]
                v = _unitary(rng, d) if rotated else np.eye(d)
                w = v @ u
                rho = HermitianOperator((v * a) @ v.conj().T)
                cases.append((rho, HermitianOperator((w * b) @ w.conj().T), a, b, u))
    return cases


@pytest.mark.parametrize("alpha", [0.6, 1.7])
def test_limit_matches_the_brute_force_minor_formula(alpha):
    fallback = 0
    for rho, sigma, a, b, u in _exact_structure_cases():
        res = zero_z_divergence(rho, sigma, alpha)
        assert res.value == pytest.approx(minor_reference(a, b, u, alpha), abs=1e-12)
        fallback += res.used_fallback
    assert fallback > 0  # the set holds pairs where the closed form is wrong


def test_non_generic_pair_value():
    a, b = np.array([0.6, 0.3, 0.1]), np.array([0.5, 0.3, 0.2])
    u = np.array([[-0.6, 0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
    rho, sigma = HermitianOperator(np.diag(a)), HermitianOperator((u * b) @ u.T)
    res = zero_z_divergence(rho, sigma, 1.7)
    assert res.used_fallback
    assert res.value == pytest.approx(0.3142786, abs=1e-7)
    assert res.value == pytest.approx(minor_reference(a, b, u, 1.7), abs=1e-12)
    # the limit eigenvalues pair a_0 with b_1, a_1 with b_0 and a_2 with b_2
    assert sorted(res.pivots) == [(0, 1), (1, 0), (2, 2)]


def _slack_pair():
    """sigma = 1/2 on a 2-plane; rho = (rho0 + |k><k|) / 2 with k spanning ker sigma."""
    u = np.linalg.qr(np.array([[1, 1, 1], [1, -1, 2], [0, 1, -1]], dtype=complex))[0]
    sigma = u @ np.diag([0.5, 0.5, 0.0]) @ u.conj().T
    k = u[:, 2:3]
    v = u[:, :2] @ np.array([[0.8], [0.6j]])
    rho0 = 0.7 * (v @ v.conj().T) + 0.3 * (u[:, :1] @ u[:, :1].conj().T)
    return HermitianOperator(0.5 * rho0 + 0.5 * (k @ k.conj().T)), HermitianOperator(sigma)


def test_block_diagonal_pair_with_rounding_level_overlaps():
    # rho's top eigenvector spans ker sigma, so its overlaps with sigma's
    # kept eigenvectors are rounding dust; the pair is block-diagonal and
    # D_{alpha,z} is the same at every z
    rho, sigma = _slack_pair()
    for alpha in (0.3, 0.5, 0.7):
        res = zero_z_divergence(rho, sigma, alpha)
        assert res.used_fallback
        finite_z = d_alpha_z(rho, sigma, DivergenceParams(alpha, 0.05)).d_value
        assert res.value == pytest.approx(finite_z, rel=1e-12)
    assert zero_z_divergence(rho, sigma, 0.3).value == pytest.approx(0.461945, abs=1e-6)
    value = d_alpha_z(rho, sigma, DivergenceParams(0.3, 0.0))
    assert value.notes == ("zero_z_nongeneric",)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_anti_aligned_commuting_pairs_give_the_classical_value(d):
    rng = np.random.default_rng(d)
    a = np.sort(rng.uniform(0.2, 1.0, d))[::-1]
    a /= a.sum()
    rho, sigma = HermitianOperator(np.diag(a)), HermitianOperator(np.diag(a[::-1]))
    for alpha in (0.6, 1.7):
        res = zero_z_divergence(rho, sigma, alpha)
        classical = math.log(np.sum(a**alpha * a[::-1] ** (1.0 - alpha))) / (alpha - 1.0)
        assert res.value == pytest.approx(classical, abs=1e-12)
        assert res.used_fallback == (alpha < 1.0)


@pytest.mark.parametrize("alpha", [0.6, 1.7])
def test_maximally_mixed_sigma_at_d16(alpha):
    rng = np.random.default_rng(16)
    rho = rand_density(rng, 16)
    sigma = HermitianOperator(np.eye(16) / 16)
    w = rho.eigenvalues
    exact = math.log(16) + math.log(np.sum(w**alpha)) / (alpha - 1.0)
    res = zero_z_divergence(rho, sigma, alpha)
    assert not res.used_fallback
    assert res.value == pytest.approx(exact, abs=1e-10)
    assert [p for p, _ in res.pivots] == list(range(16))


def test_leak_out_of_sigma_is_inf_above_one_and_a_value_inside():
    rng = np.random.default_rng(3)
    rho, sigma = rand_density(rng, 3), rand_density(rng, 3, rank=2)
    assert zero_z_divergence(rho, sigma, 1.7).value == math.inf
    assert d_alpha_z(rho, sigma, DivergenceParams(1.7, 0.0)).d_value == math.inf
    # rho inside sigma's support: a singular sigma gets a value, for a
    # commuting rho the classical one
    w, b = sigma.eigenvectors[:, :2], sigma.eigenvalues[:2]
    commuting = HermitianOperator(w @ np.diag([0.7, 0.3]) @ w.conj().T)
    classical = math.log(np.sum(np.array([0.7, 0.3]) ** 1.7 * b**-0.7)) / 0.7
    assert zero_z_divergence(commuting, sigma, 1.7).value == pytest.approx(classical, abs=1e-12)
    inside = HermitianOperator(w @ rand_density(rng, 2, floor=0.05).entries @ w.conj().T)
    res = zero_z_divergence(inside, sigma, 1.7)
    assert res.value == pytest.approx(zero_z_oracle(inside, sigma, 1.7), abs=1e-4)


def test_dead_band_minor_raises_and_a_dead_one_is_a_zero():
    a, b = np.array([0.7, 0.3]), np.array([0.6, 0.4])

    def rotated(theta):
        c, s = math.cos(theta), math.sin(theta)
        u = np.array([[c, -s], [s, c]])
        return HermitianOperator(np.diag(a)), HermitianOperator((u * b) @ u.T)

    # above 1 the top valuation is a_0 against b_1, whose overlap is sin(theta)
    with pytest.raises(GenericityUndeterminedError):
        zero_z_divergence(*rotated(1e-11), 1.7)
    res = zero_z_divergence(*rotated(1e-13), 1.7)
    classical = math.log(np.sum(a**1.7 * b**-0.7)) / 0.7
    assert res.value == pytest.approx(classical, abs=1e-12)
    assert res.pivots == ((0, 0), (1, 1)) and res.used_fallback


@pytest.mark.parametrize("theta", [1e-11, math.pi / 2 - 1e-11])
def test_a_tie_goes_to_the_largest_entry(theta):
    # sigma = I/2 ties both columns; one of rho's top overlaps sits in the
    # dead band, the other is ~1 and is the pivot
    a = np.array([0.7, 0.3])
    c, s = math.cos(theta), math.sin(theta)
    u = np.array([[c, -s], [s, c]])
    rho, sigma = HermitianOperator((u * a) @ u.T), HermitianOperator(np.eye(2) / 2)
    for alpha in (0.6, 1.7):
        res = zero_z_divergence(rho, sigma, alpha)
        exact = math.log(2.0) + math.log(np.sum(a**alpha)) / (alpha - 1.0)
        assert res.value == pytest.approx(exact, abs=1e-12) and not res.used_fallback


def _pin_family():
    """Seeded arrays for every route of zero_z_divergence, by label.

    Generic pairs, anti-aligned commuting pairs (whose alpha < 1 pivots
    leave the closed form), sigma = I/d up to d = 16, rank-deficient rho,
    and rank-deficient sigma with rho leaking out of its support or
    compressed into it.
    """
    rng = np.random.default_rng(39)
    pairs = {}
    for d in (2, 3, 4):
        pairs[f"generic d={d}"] = rand_density(rng, d), rand_density(rng, d)
    for d in (2, 3):
        a = np.sort(rng.uniform(0.2, 1.0, d))[::-1]
        pairs[f"anti-aligned d={d}"] = np.diag(a / a.sum()), np.diag(a[::-1] / a.sum())
    for d in (2, 4, 8, 16):
        pairs[f"sigma=I/d d={d}"] = rand_density(rng, d), np.eye(d) / d
    for d in (3, 4):
        rho, sigma = rand_density(rng, d), rand_density(rng, d, rank=d - 1)
        support = opcore.spectral_map(sigma, np.ones_like)[0]
        inside = support @ rho.entries @ support
        pairs[f"rank-deficient rho d={d}"] = rand_density(rng, d, rank=d - 1), rand_density(rng, d)
        pairs[f"rank-deficient sigma d={d}"] = rho, sigma
        pairs[f"rho inside singular sigma d={d}"] = inside / np.trace(inside).real, sigma
    arrays = {}
    for label, pair in pairs.items():
        arrays[label] = tuple(np.asarray(getattr(m, "entries", m), dtype=complex) for m in pair)
    return arrays


def _pivot_text(pivots) -> str:
    return " ".join(f"{p},{q}" for p, q in pivots)


#: (value, used_fallback, pivots as "p,q") of every pair at alpha = 0.6 and 1.7
ZERO_Z_PINS = {
    ('generic d=2', 0.6): (0.0001544482467345093, False, '0,0 1,1'),
    ('generic d=2', 1.7): (1.0900101583812125, False, '0,1 1,0'),
    ('generic d=3', 0.6): (0.028347319958727298, False, '0,0 1,1 2,2'),
    ('generic d=3', 1.7): (2.4899835834050745, False, '0,2 1,1 2,0'),
    ('generic d=4', 0.6): (0.05019202927069585, False, '0,0 1,1 2,2 3,3'),
    ('generic d=4', 1.7): (5.574618818567485, False, '0,3 1,2 2,1 3,0'),
    ('anti-aligned d=2', 0.6): (0.21247939543486, True, '0,1 1,0'),
    ('anti-aligned d=2', 1.7): (0.5209930654623491, False, '0,1 1,0'),
    ('anti-aligned d=3', 0.6): (0.19117182190061782, True, '1,1 0,2 2,0'),
    ('anti-aligned d=3', 1.7): (0.4930927822615207, False, '0,2 1,1 2,0'),
    ('sigma=I/d d=2', 0.6): (0.24160944367836085, False, '0,0 1,1'),
    ('sigma=I/d d=2', 1.7): (0.45162715614366344, False, '0,0 1,1'),
    ('sigma=I/d d=4', 0.6): (0.23851599807640866, False, '0,0 1,1 2,3 3,2'),
    ('sigma=I/d d=4', 1.7): (0.493209077854238, False, '0,0 1,1 2,3 3,2'),
    ('sigma=I/d d=8', 0.6): (0.3679282938783705, False, '0,0 1,2 2,1 3,4 4,6 5,7 6,5 7,3'),
    ('sigma=I/d d=8', 1.7): (0.6535368480347573, False, '0,0 1,2 2,1 3,4 4,6 5,7 6,5 7,3'),
    ('sigma=I/d d=16', 0.6): (0.3903332496148196, False, '0,14 1,12 2,13 3,0 4,5 5,1 6,2 7,15 8,8 9,7 10,10 11,6 12,11 13,4 14,9 15,3'),
    ('sigma=I/d d=16', 1.7): (0.6569054244020581, False, '0,14 1,12 2,13 3,0 4,5 5,1 6,2 7,15 8,8 9,7 10,10 11,6 12,11 13,4 14,9 15,3'),
    ('rank-deficient rho d=3', 0.6): (0.014432240074489372, False, '0,0 1,1'),
    ('rank-deficient rho d=3', 1.7): (4.425264267973412, False, '0,2 1,1'),
    ('rank-deficient sigma d=3', 0.6): (0.18665347428352144, False, '0,0 1,1'),
    ('rank-deficient sigma d=3', 1.7): (math.inf, False, ''),
    ('rho inside singular sigma d=3', 0.6): (0.10584536441618872, False, '0,0 1,1'),
    ('rho inside singular sigma d=3', 1.7): (1.67534697067877, True, '0,1 1,0'),
    ('rank-deficient rho d=4', 0.6): (0.0009789108233474939, False, '0,0 1,1 2,2'),
    ('rank-deficient rho d=4', 1.7): (6.050422054403072, False, '0,3 1,2 2,1'),
    ('rank-deficient sigma d=4', 0.6): (0.04864133759158583, False, '0,0 1,1 2,2'),
    ('rank-deficient sigma d=4', 1.7): (math.inf, False, ''),
    ('rho inside singular sigma d=4', 0.6): (0.002306701324369404, False, '0,0 1,1 2,2'),
    ('rho inside singular sigma d=4', 1.7): (2.12931374042775, True, '0,2 1,1 2,0'),
}


def test_zero_z_pivots_flags_and_values_are_pinned():
    """The elimination's pivots, the fallback flag and the value on a seeded family, on arrays."""
    family = _pin_family()
    got = {
        (label, alpha): zero_z_divergence(rho, sigma, alpha)
        for label, (rho, sigma) in family.items()
        for alpha in (0.6, 1.7)
    }
    assert set(got) == set(ZERO_Z_PINS)
    for key, res in got.items():
        value, used_fallback, pivots = ZERO_Z_PINS[key]
        assert (_pivot_text(res.pivots), res.used_fallback) == (pivots, used_fallback), key
        assert res.value == pytest.approx(value, rel=1e-12, abs=0.0), key
