"""Reverse tests, hull reduction, and the maximal divergence bracket."""

import numpy as np
import pytest

from qrd.classical import classical_renyi, power_spec
from qrd.divergences import DivergenceParams, d_alpha_z, d_hat_alpha
from qrd.errors import (
    BadParamsError,
    DimMismatchError,
    NoConvexWitnessError,
    SupportViolationError,
)
from qrd.reversetests import (
    HULL_RESIDUAL_TOL,
    ReverseTest,
    _hull_coordinates,
    _nnls,
    caratheodory_fixpoint,
    caratheodory_reduce,
    maximal_divergence_upper,
    realized_pair,
    spectral_reverse_test,
    split_eigen_reverse_test,
    validate_reverse_test,
)
from qrd.verify import anchors_and_mixtures_rt, rand_density, rand_pure


def test_reverse_test_coerces_arrays(rng):
    omegas = (rand_pure(rng, 2).entries, rand_pure(rng, 2).entries)
    rt = ReverseTest(omegas=omegas, p=np.array([0.5, 0.5]), q=np.array([0.4, 0.6]))
    assert rt.n_columns == 2 and rt.dim == 2


def test_weight_length_mismatch(rng):
    with pytest.raises(DimMismatchError):
        ReverseTest(
            omegas=(rand_pure(rng, 2),),
            p=np.array([0.5, 0.5]),
            q=np.array([1.0]),
        )


def test_spectral_reverse_test_realizes_the_pair(rng):
    rho = rand_density(rng, 3, floor=0.05)
    sigma = rand_density(rng, 3, floor=0.05)
    rt = spectral_reverse_test(rho, sigma)
    assert validate_reverse_test(rt, rho, sigma)
    r2, s2 = realized_pair(rt)
    np.testing.assert_allclose(r2.entries, rho.entries, atol=1e-9)
    np.testing.assert_allclose(s2.entries, sigma.entries, atol=1e-9)


def test_spectral_test_value_equals_closed_form(rng):
    rho = rand_density(rng, 3, floor=0.05)
    sigma = rand_density(rng, 3, floor=0.05)
    rt = spectral_reverse_test(rho, sigma)
    for alpha in (0.7, 1.5, 2.0):
        assert classical_renyi(rt.p, rt.q, alpha) == pytest.approx(
            d_hat_alpha(rho, sigma, alpha), abs=1e-9
        )


def test_split_eigen_variant_also_valid(rng):
    rho = rand_density(rng, 2, floor=0.05)
    sigma = rand_density(rng, 2, floor=0.05)
    rt = split_eigen_reverse_test(rho, sigma)
    assert validate_reverse_test(rt, rho, sigma)


def test_reduce_refuses_at_the_floor(rng):
    rho = rand_density(rng, 2, floor=0.05)
    sigma = rand_density(rng, 2, floor=0.05)
    rt = spectral_reverse_test(rho, sigma)
    assert rt.n_columns <= 5
    with pytest.raises(BadParamsError):
        caratheodory_reduce(rt)


def test_strictly_convex_position_has_no_witness(rng):
    # six distinct pure columns: none lies in the hull of the others
    omegas = tuple(rand_pure(rng, 2) for _ in range(6))
    p = np.full(6, 1.0 / 6.0)
    q = np.array([0.1, 0.15, 0.2, 0.2, 0.15, 0.2])
    rt = ReverseTest(omegas=omegas, p=p, q=q)
    with pytest.raises(NoConvexWitnessError):
        caratheodory_reduce(rt)


def test_fixpoint_reaches_floor_with_interior_columns(rng):
    rt = anchors_and_mixtures_rt(rng)
    r0, s0 = realized_pair(rt)
    reduced = caratheodory_fixpoint(rt, f=power_spec(2.0))
    assert reduced.n_columns <= 5
    assert validate_reverse_test(reduced, r0, s0)


def test_maximal_divergence_bracket(rng):
    rho = rand_density(rng, 2, floor=0.05)
    sigma = rand_density(rng, 2, floor=0.05)
    alpha = 3.0
    res = maximal_divergence_upper(rho, sigma, alpha)
    hat = d_hat_alpha(rho, sigma, alpha)
    sand = d_alpha_z(rho, sigma, DivergenceParams(alpha, alpha)).d_value
    assert res.value <= hat + 1e-9
    assert res.value >= sand - 1e-9
    assert validate_reverse_test(res.rt, rho, sigma, atol=1e-8)


def test_maximal_divergence_exact_below_two(rng):
    rho = rand_density(rng, 2, floor=0.05)
    sigma = rand_density(rng, 2, floor=0.05)
    res = maximal_divergence_upper(rho, sigma, 1.5)
    assert res.exact
    assert res.value == pytest.approx(d_hat_alpha(rho, sigma, 1.5), abs=1e-9)


@pytest.mark.parametrize("alpha", [2.01, 3.0, 5.0, 20.0])
def test_maximal_divergence_above_two_is_the_closed_form(rng, alpha):
    """An upper bound, d_hat_alpha's value, certified by the spectral test, on pure and rank-deficient rho."""
    for d in (2, 3, 4):
        sigma = rand_density(rng, d)
        for rho in (rand_pure(rng, d), rand_density(rng, d, rank=d - 1)):
            res = maximal_divergence_upper(rho, sigma, alpha)
            assert not res.exact
            assert res.value == d_hat_alpha(rho, sigma, alpha)
            value = classical_renyi(res.rt.p, res.rt.q, alpha)
            assert abs(value - res.value) <= 1e-12 * max(1.0, abs(res.value))
            assert validate_reverse_test(res.rt, rho, sigma)


def test_maximal_value_is_its_certificates_classical_value(rng):
    """Where the spectral test certifies it, the maximal value is the test's classical value, bit for bit."""
    for k in range(40):
        d = 2 + k % 3
        rho, sigma = rand_density(rng, d, rank=d - k % 2), rand_density(rng, d)
        for alpha in (0.3, 0.7, 1.5, 2.0, 3.0):
            res = maximal_divergence_upper(rho, sigma, alpha)
            assert res.rt.n_columns == d
            assert res.value == classical_renyi(res.rt.p, res.rt.q, alpha), (k, alpha)


def test_a_leaking_rho_has_no_spectral_test_and_no_maximal_divergence_above_one():
    rho, sigma = np.diag([0.5, 0.5, 0.0]), np.diag([1.0, 0.0, 0.0])
    with pytest.raises(SupportViolationError):
        spectral_reverse_test(rho, sigma)
    for alpha in (1.5, 2.0, 3.0):
        with pytest.raises(SupportViolationError):
            maximal_divergence_upper(rho, sigma, alpha)
    # below 1 the split test certifies log 2: half of rho's mass meets sigma
    res = maximal_divergence_upper(rho, sigma, 0.5)
    assert res.value == pytest.approx(np.log(2.0), abs=1e-12)
    assert res.exact and validate_reverse_test(res.rt, rho, sigma)


def test_maximal_divergence_of_a_tiny_trace_leak():
    """rho = 1e-200 diag(.6, .4) leaks out of sigma = diag(1, 0): the split test keeps rho's columns."""
    rho, sigma = 1e-200 * np.diag([0.6, 0.4]), np.diag([1.0, 0.0])
    res = maximal_divergence_upper(rho, sigma, 0.5)
    want = classical_renyi(np.diag(rho), np.diag(sigma), 0.5)
    assert abs(res.value - want) <= 1e-12 * abs(want), (res.value, want)
    assert res.exact and validate_reverse_test(res.rt, rho, sigma)
    np.testing.assert_allclose(realized_pair(res.rt)[0].entries, rho, rtol=1e-12, atol=0.0)


def _nnls_problems(rng, m, n):
    """(A, b) pairs: full-rank and rank-deficient A, b in the cone of A's columns or not."""
    for trial in range(48):
        a = rng.standard_normal((m, n))
        if trial % 3 == 1:
            a[:, -1] = a[:, 0]  # a repeated column
        elif trial % 3 == 2:
            a[:, -1] = a[:, :3] @ rng.random(3)  # a column inside the cone of three others
        x = rng.random(n) * (rng.random(n) < 0.6)
        yield a, (a @ x if trial % 2 else rng.standard_normal(m))


@pytest.mark.parametrize("shape", [(8, 5), (9, 6), (9, 7), (12, 8), (18, 10)])
def test_nnls_agrees_with_scipy(shape):
    from scipy.optimize import nnls  # the cross-check oracle

    rng = np.random.default_rng(shape)
    problems = list(_nnls_problems(rng, *shape))
    # the hull fits of caratheodory_reduce on a test with interior columns
    coords = _hull_coordinates(anchors_and_mixtures_rt(rng).omegas)
    problems += [(np.delete(coords, k, axis=0).T, coords[k]) for k in range(len(coords))]
    sides = set()
    for a, b in problems:
        want, want_residual = nnls(a, b)
        got, got_residual = _nnls(a, b)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        assert got_residual == pytest.approx(want_residual, rel=1e-9, abs=1e-12)
        assert (got_residual > HULL_RESIDUAL_TOL) == (want_residual > HULL_RESIDUAL_TOL)
        sides.add(got_residual > HULL_RESIDUAL_TOL)
    assert sides == {True, False}
