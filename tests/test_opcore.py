"""Operator layer: construction guards, powers, supports, orderings."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrd.errors import DimTooLargeError, MalformedInputError, NotPSDError
from qrd.divergences import DivergenceParams, _d_alpha_z, d_alpha_z, d_max, umegaki
from qrd.measured import measured_renyi_lower
from qrd.zlimits import zero_z_divergence
from qrd import opcore
from qrd.opcore import (
    HermitianOperator,
    Projection,
    _array_pair,
    _checked_pair,
    _meet,
    as_operator,
    commutator_spectral_norm,
    logn,
    pinch_exp,
    psd_leq,
    spectral_map,
    support_leq,
    support_projection,
    supported_power,
)
from qrd.verify import rand_density, rand_pure


def test_rejects_non_square():
    with pytest.raises(MalformedInputError):
        HermitianOperator(np.ones((2, 3)))


def test_empty_input_is_malformed_everywhere():
    """A 0 x 0 matrix fails the operator check, so each pair entry point raises that error (CLI exit 2)."""
    empty = np.zeros((0, 0))
    with pytest.raises(MalformedInputError, match="non-empty"):
        HermitianOperator(empty)
    calls = [
        lambda: d_alpha_z(empty, empty, DivergenceParams(1.5, 1.0)),
        lambda: zero_z_divergence(empty, empty, 0.5),
        lambda: measured_renyi_lower(empty, empty, 1.5),
    ]
    for call in calls:
        with pytest.raises(MalformedInputError, match="non-empty"):
            call()


def test_rejects_non_hermitian():
    with pytest.raises(MalformedInputError):
        HermitianOperator(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
def test_rejects_non_finite_entries(bad, where):
    m = np.eye(2)
    if where == "diagonal":
        m[0, 0] = bad
    else:
        m[0, 1] = m[1, 0] = bad
    with pytest.raises(MalformedInputError, match="non-finite"):
        HermitianOperator(m)


def test_rejects_oversized():
    with pytest.raises(DimTooLargeError):
        HermitianOperator(np.eye(65))


def test_symmetrizes_rounding_noise():
    m = np.array([[1.0, 0.5 + 1e-14], [0.5 - 1e-14, 2.0]])
    op = HermitianOperator(m)
    np.testing.assert_allclose(op.entries, op.entries.conj().T)


def test_eigendecomposition_descending(rng):
    op = rand_density(rng, 4)
    w = op.eigenvalues
    assert all(a >= b for a, b in zip(w, w[1:]))
    v = op.eigenvectors
    np.testing.assert_allclose((v * w) @ v.conj().T, op.entries, atol=1e-12)


def test_projection_rejects_non_idempotent():
    with pytest.raises(MalformedInputError):
        Projection(np.array([[0.5, 0.0], [0.0, 1.0]]))


def test_supported_power_inverse_on_support(rng):
    a = rand_density(rng, 3, rank=2)
    inv = supported_power(a, -1.0)
    p = support_projection(a).entries
    np.testing.assert_allclose(inv.entries @ a.entries, p, atol=1e-10)


def test_supported_power_zero_is_support(rng):
    a = rand_density(rng, 3, rank=2)
    np.testing.assert_allclose(
        supported_power(a, 0.0).entries, support_projection(a).entries, atol=1e-12
    )


@given(x=st.sampled_from([0.5, 1.0, 2.0, 1.7]), seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_supported_power_matches_dense_power(x, seed):
    rng = np.random.default_rng(seed)
    a = rand_density(rng, 3, floor=0.05)
    w, v = np.linalg.eigh(a.entries)
    dense = (v * w**x) @ v.conj().T
    np.testing.assert_allclose(supported_power(a, x).entries, dense, atol=1e-11)


def test_projection_meet_of_orthogonal_ranges():
    p = Projection(np.diag([1.0, 0.0, 0.0]))
    q = Projection(np.diag([0.0, 1.0, 0.0]))
    meet = _meet(p.entries, q.entries)
    np.testing.assert_allclose(meet @ meet.conj().T, np.zeros((3, 3)), atol=1e-12)


def test_projection_meet_shared_direction():
    p = Projection(np.diag([1.0, 1.0, 0.0]))
    q = Projection(np.diag([0.0, 1.0, 1.0]))
    meet = _meet(p.entries, q.entries)
    np.testing.assert_allclose(meet @ meet.conj().T, np.diag([0.0, 1.0, 0.0]), atol=1e-10)


def test_psd_leq_scaling(rng):
    a = rand_density(rng, 3)
    assert psd_leq(a, as_operator(1.5 * a.entries))
    assert not psd_leq(as_operator(1.5 * a.entries), a)


def test_support_leq_strict_rank():
    small = HermitianOperator(np.diag([1.0, 0.0]))
    big = HermitianOperator(np.diag([0.3, 0.7]))
    assert support_leq(small, big)
    assert not support_leq(big, small)


def test_logn_inverts_exp(rng):
    a = rand_density(rng, 3, floor=0.05)
    w, v = np.linalg.eigh(a.entries)
    np.testing.assert_allclose(
        logn(a).entries, (v * np.log(w)) @ v.conj().T, atol=1e-11
    )


def test_pinch_exp_commuting_closed_form():
    rho = HermitianOperator(np.diag([0.6, 0.4]))
    sigma = HermitianOperator(np.diag([0.3, 0.7]))
    expect = 0.6 ** 2.0 * 0.3 ** (-1.0) + 0.4 ** 2.0 * 0.7 ** (-1.0)
    assert pinch_exp(rho, sigma, 2.0) == pytest.approx(expect, rel=1e-12)


def test_commutator_norm_flags_noncommuting(rng):
    d = HermitianOperator(np.diag([0.2, 0.8]))
    assert commutator_spectral_norm(d, d) <= 1e-14
    psi = rand_pure(rng, 2)
    assert commutator_spectral_norm(d, psi) > 1e-3


def test_negative_eigenvalue_matrix_accepted_but_not_psd_ops():
    op = HermitianOperator(np.diag([1.0, -0.5]))
    with pytest.raises(NotPSDError):
        supported_power(op, 0.5)


def test_support_cutoff_is_relative_to_the_largest_eigenvalue():
    """An eigenvalue at 0.5e-12 * lambda_max is cut, one at 2e-12 * lambda_max kept."""
    sigma = HermitianOperator(np.diag([4.0, 4.0 * 2e-12, 4.0 * 0.5e-12]))
    assert spectral_map(sigma, np.ones_like)[1] == 2
    assert support_projection(sigma).rank == 2
    params = DivergenceParams(2.0, 1.0)
    on_cut, on_kept = (HermitianOperator(np.diag(np.eye(3)[k])) for k in (2, 1))
    assert d_alpha_z(on_cut, sigma, params).d_value == np.inf
    assert d_alpha_z(on_kept, sigma, params).d_value == pytest.approx(-np.log(4.0 * 2e-12))


def test_pair_rank_is_the_rank_of_the_kept_overlap(rng):
    """min of the support ranks when a support is full, else U_kept's rank above SUPPORT_RTOL."""
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    cases = [
        (rand_density(rng, 4, rank=2), rand_density(rng, 4), 2),
        (rand_density(rng, 4), rand_density(rng, 4, rank=3), 3),
        (rand_density(rng, 4, rank=2), rand_density(rng, 4, rank=3), 2),
        ((u[:, :2] * 0.5) @ u[:, :2].conj().T, (u[:, 1:] / 3.0) @ u[:, 1:].conj().T, 1),
        ((u[:, :2] * 0.5) @ u[:, :2].conj().T, (u[:, 2:] * 0.5) @ u[:, 2:].conj().T, 0),
    ]
    for rho, sigma, rank in cases:
        assert _checked_pair(rho, sigma).rank == rank


def test_pair_record_is_cached_per_operator_pair(rng):
    rho, sigma = rand_density(rng, 3), rand_density(rng, 3)
    pair = _checked_pair(rho, sigma)
    assert _checked_pair(rho, sigma) is pair
    assert _checked_pair(sigma, rho) is not pair
    fresh = _array_pair(rho.entries, sigma.entries)
    for alpha, z in ((0.7, 1.0), (1.5, 1.5), (2.0, math.inf), (0.6, 0.0), (1.0, 1.0)):
        params = DivergenceParams(alpha, z)
        assert d_alpha_z(rho, sigma, params) == _d_alpha_z(fresh, params)
    assert umegaki(rho, sigma) == umegaki(rho.entries, sigma.entries)
    assert d_max(rho, sigma) == d_max(rho.entries, sigma.entries)
    # the record is kept on rho, keyed weakly by sigma: it does not keep sigma alive
    alive = weakref.ref(sigma)
    del sigma
    gc.collect()
    assert alive() is None
    assert len(rho._pairs) == 0


def test_pair_record_with_an_array_input_is_not_cached(monkeypatch, rng):
    """No record is kept for an array input, nor on the other operator."""
    made = []

    def coerced(x):
        made.append(as_operator(x))
        return made[-1]

    monkeypatch.setattr(opcore, "as_operator", coerced)
    rho, sigma = rand_density(rng, 3), rand_density(rng, 3)
    # two arrays are checked on one stack and make no operator; a mixed pair coerces both
    for r, s, coerced_count in ((rho.entries, sigma.entries, 0), (rho, sigma.entries, 2), (rho.entries, sigma, 2)):
        made.clear()
        pair = _checked_pair(r, s)
        assert len(made) == coerced_count and all("_pairs" not in op.__dict__ for op in made)
        assert d_alpha_z(r, s, DivergenceParams(1.5, 1.5)) == _d_alpha_z(pair, DivergenceParams(1.5, 1.5))
    assert "_pairs" not in rho.__dict__ and "_pairs" not in sigma.__dict__


def test_full_rank_sigma_includes_rho_without_a_defect(rng):
    """sigma's cut keeps every eigenvalue: the support defect is the empty sum, exactly 0."""
    for d in (2, 3, 4):
        pair = _checked_pair(rand_density(rng, d).entries, rand_density(rng, d).entries)
        assert pair.sigma_cut[2].all()
        assert pair.included is True and pair.borderline is False


def _per_matrix_pair(rho, sigma):
    """The record built one operator at a time: HermitianOperator's checks and eigh, then _pair."""
    rho, sigma = HermitianOperator(rho), HermitianOperator(sigma)
    return opcore._pair(rho.entries, rho.eig, sigma.entries, sigma.eig)


def _record_fields(pair):
    return {
        "rho": pair.rho, "sigma": pair.sigma, "overlap": pair.overlap,
        **{f"rho_cut[{k}]": x for k, x in enumerate(pair.rho_cut)},
        **{f"sigma_cut[{k}]": x for k, x in enumerate(pair.sigma_cut)},
        "tr": pair.tr, "included": pair.included, "borderline": pair.borderline, "rank": pair.rank,
    }


def _assert_same_bits(got, want):
    got = _record_fields(got)
    for name, x in _record_fields(want).items():
        y = got[name]
        if isinstance(x, np.ndarray):
            assert (y.dtype, y.shape, y.tobytes()) == (x.dtype, x.shape, x.tobytes()), name
        else:
            assert type(y) is type(x) and y == x, name


def test_stacked_boundary_builds_the_per_operator_record_bit_for_bit():
    """Two arrays, through _checked_pair or _array_pair, give the per-operator record exactly."""
    rng = np.random.default_rng(39)
    pairs = []
    for d in (1, 2, 3, 4, 8, 16, 64):
        pairs += [(rand_density(rng, d), rand_density(rng, d)), (rand_density(rng, d), np.eye(d) / d)]
        if d > 1:
            pairs += [
                (rand_density(rng, d, rank=d - 1), rand_density(rng, d)),
                (rand_density(rng, d), rand_density(rng, d, rank=max(1, d // 2))),
                (rand_pure(rng, d), rand_density(rng, d, rank=d - 1)),
            ]
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    near = (u * [0.4, 0.3 + 3e-10, 0.3, 1e-13]) @ u.conj().T  # a gap in the ambiguous band
    pairs.append((near, rand_density(rng, 4)))
    pairs.append((rand_density(rng, 4), near))
    for rho, sigma in pairs:
        rho, sigma = (np.asarray(getattr(m, "entries", m), dtype=complex) for m in (rho, sigma))
        want = _per_matrix_pair(rho, sigma)
        _assert_same_bits(_checked_pair(rho, sigma), want)
        _assert_same_bits(_array_pair(rho, sigma), want)


def test_stacked_boundary_raises_as_the_per_matrix_path():
    """Each malformed array pair raises the per-matrix path's exception, rho's failure first."""
    good, skew = np.eye(2) / 2, np.array([[0.5, 0.1], [0.0, 0.5]])
    nan = np.array([[0.5, math.nan], [math.nan, 0.5]])
    not_psd = np.diag([1.0, -0.5])
    cases = {
        "rho bad": (skew, good),
        "sigma bad": (good, skew),
        "both bad": (skew, nan),
        "shape mismatch": (good, np.eye(3) / 3),
        "non-finite entry": (nan, good),
        "d > 64": (np.eye(65) / 65, np.eye(65) / 65),
        "not square": (np.ones((2, 3)), np.ones((2, 3))),
        "rho not PSD": (not_psd, good),
        "sigma not PSD": (good, not_psd),
        "rho zero, sigma not PSD": (np.zeros((2, 2)), not_psd),
        "sigma zero": (good, np.zeros((2, 2))),
        "rho bad, sigma not numeric": (skew, [["a", "b"], ["c", "d"]]),
        "empty": (np.zeros((0, 0)), np.zeros((0, 0))),
    }
    for name, (rho, sigma) in cases.items():
        with pytest.raises(Exception) as want:
            _per_matrix_pair(rho, sigma)
        with pytest.raises(Exception) as got:
            _checked_pair(rho, sigma)
        assert (type(got.value), str(got.value)) == (want.type, str(want.value)), name
    with pytest.raises(MalformedInputError, match="not Hermitian"):
        _checked_pair(skew, nan)
