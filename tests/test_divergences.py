"""Core divergence family: special cases, orderings, support behavior."""

import math
import warnings

import numpy as np
import pytest

from qrd.channels import (
    _renyi_grad,
    _umegaki_grad,
    apply_extended,
    depolarizing_channel,
    identity_channel,
)
from qrd.classical import classical_q, classical_renyi
from qrd.divergences import (
    DivergenceParams,
    _log_sum_powers,
    alt_chain,
    d_alpha_z,
    d_alpha_zero,
    d_hat_alpha,
    d_max,
    dmax_domination_check,
    epsilon_smoothing_curve,
    nussbaum_szkola,
    q_alpha_z,
    umegaki,
    variational_objective,
    variational_optimizer_H,
)
from qrd.errors import (
    BadAlphaError,
    BadParamsError,
    DimMismatchError,
    MalformedInputError,
    NotPSDError,
    SupportViolationError,
    ZeroOperatorError,
)
from qrd.measured import measured_renyi_lower
from qrd.measured import test_measured as measured_by_test
from qrd.opcore import (
    SUPPORT_TEST_SLACK,
    HermitianOperator,
    as_operator,
    pinch_exp,
    supported_power,
)
from qrd.verify import rand_density, rand_pure
from qrd.zlimits import ZeroZResult, equality_case_check, zero_z_divergence, zero_z_oracle


def diag_pair():
    rho = HermitianOperator(np.diag([0.55, 0.3, 0.15]))
    sigma = HermitianOperator(np.diag([0.25, 0.35, 0.4]))
    return rho, sigma


def test_params_validation():
    with pytest.raises(BadAlphaError):
        DivergenceParams(-0.5, 1.0)
    with pytest.raises(BadParamsError):
        DivergenceParams(2.0, -1.0)
    with pytest.raises(BadParamsError):
        DivergenceParams(1.0, 0.0)


@pytest.mark.parametrize("alpha,z", [(0.5, 1.0), (0.5, 0.7), (2.0, 1.0), (2.0, 2.0), (3.0, 1.5)])
def test_commuting_reduces_to_classical(alpha, z):
    rho, sigma = diag_pair()
    p = np.diag(rho.entries).real
    q = np.diag(sigma.entries).real
    dv = d_alpha_z(rho, sigma, DivergenceParams(alpha, z)).d_value
    assert dv == pytest.approx(classical_renyi(p, q, alpha), abs=1e-11)


@pytest.mark.parametrize("z", [0.5, 1.0, 2.0, math.inf])
def test_alpha_one_is_umegaki_for_every_z(z, qutrit_pair):
    rho, sigma = qutrit_pair
    dv = d_alpha_z(rho, sigma, DivergenceParams(1.0, z)).d_value
    assert dv == pytest.approx(umegaki(rho, sigma), abs=1e-10)


def test_z_infinity_uses_pinched_exponential(qutrit_pair):
    rho, sigma = qutrit_pair
    got = d_alpha_z(rho, sigma, DivergenceParams(2.0, math.inf)).q_value
    assert got == pytest.approx(pinch_exp(rho, sigma, 2.0), rel=1e-10)


@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_z_infinity_support_test_agrees_with_finite_z(alpha):
    """psi = |00> + 1e-6 |11> through identity (rho) and depolarizing(0.2) (sigma).

    rho leaks out of supp sigma by an amplitude of about 1e-6 but only a
    mass of about 1e-12, so the leak-mass test keeps the pair included and
    D_{alpha,inf} must be finite and below D_max like the finite-z members.
    """
    psi = np.array([1.0, 0.0, 0.0, 1e-6], dtype=complex)
    psi /= np.linalg.norm(psi)
    state = np.outer(psi, psi.conj())
    rho = apply_extended(identity_channel(2), state)
    sigma = apply_extended(depolarizing_channel(0.2), state)
    val = d_alpha_z(rho, sigma, DivergenceParams(alpha, math.inf)).d_value
    assert math.isfinite(val)
    assert val <= d_max(rho, sigma) + 1e-9


def sigma_support_pairs(rng):
    """(rho, sigma, number of sigma support projections a z = inf call builds).

    Full supports need no meet, so none; on a rank-deficient sigma with rho
    inside its support the meet is built from one projection of sigma's.
    """
    rho, sigma = rand_density(rng, 3, floor=0.05), rand_density(rng, 3, floor=0.05)
    u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    kept = u[:, :2]
    inner = rand_density(rng, 2, floor=0.05).entries
    return [
        (rho, sigma, 0),
        (
            HermitianOperator(kept @ inner @ kept.conj().T),
            HermitianOperator(u @ np.diag([0.6, 0.4, 0.0]) @ u.conj().T),
            1,
        ),
    ]


def test_z_infinity_builds_sigma_support_projection_once(rng, monkeypatch):
    """At most once per z = inf evaluation: none for full supports, one for a proper one."""
    from qrd import opcore

    original = opcore._rebuild
    for rho, sigma, expected in sigma_support_pairs(rng):
        sigma_w = opcore._checked_pair(rho, sigma).sigma_cut[0]
        seen = []

        def counting(cut, fn):
            seen.append(cut[0] is sigma_w and fn is np.ones_like)
            return original(cut, fn)

        monkeypatch.setattr(opcore, "_rebuild", counting)
        for alpha in (0.7, 1.5):
            seen.clear()
            assert math.isfinite(d_alpha_z(rho, sigma, DivergenceParams(alpha, math.inf)).d_value)
            assert seen.count(True) == expected, (alpha, expected)
        monkeypatch.setattr(opcore, "_rebuild", original)


def test_self_divergence_zero(qutrit_pair):
    rho, _ = qutrit_pair
    for alpha, z in ((0.5, 1.0), (2.0, 2.0), (1.0, 1.0)):
        assert abs(d_alpha_z(rho, rho, DivergenceParams(alpha, z)).d_value) <= 1e-10


def test_support_failure_is_infinite_for_large_alpha(rng):
    rho = rand_density(rng, 3)
    sigma = rand_density(rng, 3, rank=2)
    assert d_alpha_z(rho, sigma, DivergenceParams(2.0, 1.0)).d_value == math.inf
    assert d_max(rho, sigma) == math.inf


def test_small_alpha_survives_support_failure(rng):
    rho = rand_density(rng, 3)
    sigma = rand_density(rng, 3, rank=2)
    dv = d_alpha_z(rho, sigma, DivergenceParams(0.5, 1.0)).d_value
    assert math.isfinite(dv)


def test_disjoint_supports_infinite_even_below_one():
    rho = HermitianOperator(np.diag([1.0, 0.0]))
    sigma = HermitianOperator(np.diag([0.0, 1.0]))
    res = d_alpha_z(rho, sigma, DivergenceParams(0.5, 1.0))
    assert res.d_value == math.inf
    assert res.q_value == 0.0


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_orthogonal_supports_below_one_are_infinite_at_every_z(alpha):
    rho = HermitianOperator(np.diag([1.0, 0.0, 0.0]))
    sigma = HermitianOperator(np.diag([0.0, 0.6, 0.4]))
    for z in (0.5, 1.0, alpha, math.inf, 0.0):
        res = d_alpha_z(rho, sigma, DivergenceParams(alpha, z))
        assert (res.d_value, res.q_value) == (math.inf, 0.0), z
        assert ("degenerate_support" in res.notes) == (z == math.inf), z
    assert d_hat_alpha(rho, sigma, alpha) == math.inf
    assert zero_z_divergence(rho, sigma, alpha).value == math.inf
    assert pinch_exp(rho, sigma, alpha) == 0.0


def rotated_orthogonal_pairs():
    """Ten pairs per d = 2, 3, 4 of complementary ranks on the columns of a random unitary.

    The supports are exactly orthogonal, but the unitary leaves overlap
    dust of rounding size between the computed eigenvectors.
    """
    rng = np.random.default_rng(2029)
    for d in (2, 3, 4):
        for k in range(10):
            u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            r = 1 + k % (d - 1)
            a, b = rng.uniform(0.1, 1.0, r), rng.uniform(0.1, 1.0, d - r)
            yield (u[:, :r] * a) @ u[:, :r].conj().T, (u[:, r:] * b) @ u[:, r:].conj().T


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_orthogonal_supports_at_z_zero_are_a_support_infinity(alpha):
    """At z = 0 orthogonal supports read +inf from the record's rank 0, not as the nongeneric fallback."""
    for rho, sigma in rotated_orthogonal_pairs():
        assert zero_z_divergence(rho, sigma, alpha) == ZeroZResult(math.inf, False, ())
        assert d_alpha_z(rho, sigma, DivergenceParams(alpha, 0.0)).notes == ()


def test_q_at_alpha_one_is_zero_on_orthogonal_supports():
    """Q_{1,z} = Tr (rho^(1/2z) sigma^0 rho^(1/2z))^z is exactly 0 where the record's rank is 0."""
    for rho, sigma in rotated_orthogonal_pairs():
        for z in (0.5, 1.0, 2.0):
            assert q_alpha_z(rho, sigma, DivergenceParams(1.0, z)) == 0.0, z
        res = alt_chain(rho, sigma, 1.0, 0.5, 1.0)
        assert (res.q_z1, res.q_z2, res.upper) == (0.0, 0.0, 0.0)


def band_pair(c):
    """rho = |0><0| and a rank-one sigma whose eigenvector meets |0> by c."""
    phi = np.array([[c], [math.sqrt(1.0 - c * c)], [0.0]])
    return np.diag([1.0, 0.0, 0.0]), 0.6 * (phi @ phi.T)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_one_orthogonal_supports_rule_below_one(alpha):
    """Every kind is +inf on rounded orthogonal supports and finite on an overlap above the dust.

    Measured and test values on overlaps of 5e-9 and 1e-10 lie at or
    below Petz, at or below sandwiched from alpha = 1/2 on, and equal it
    (-log F of the pure rho) at alpha = 1/2.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rho, sigma in rotated_orthogonal_pairs():
            for z in (0.5, 1.0, alpha, 2.0, math.inf, 0.0):
                assert d_alpha_z(rho, sigma, DivergenceParams(alpha, z)).d_value == math.inf, z
            assert d_hat_alpha(rho, sigma, alpha) == math.inf
            assert zero_z_divergence(rho, sigma, alpha).value == math.inf
            assert zero_z_oracle(rho, sigma, alpha) == math.inf
            assert measured_renyi_lower(rho, sigma, alpha, seed=1).value == math.inf
            assert measured_by_test(rho, sigma, alpha).value == math.inf
        for c in (5e-9, 1e-10):
            rho, sigma = band_pair(c)
            petz = d_alpha_z(rho, sigma, DivergenceParams(alpha, 1.0)).d_value
            sandwiched = d_alpha_z(rho, sigma, DivergenceParams(alpha, alpha)).d_value
            for value in (
                measured_renyi_lower(rho, sigma, alpha, seed=1).value,
                measured_by_test(rho, sigma, alpha).value,
            ):
                assert math.isfinite(value) and value <= petz, (c, value)
                if alpha >= 0.5:
                    assert value <= sandwiched * (1.0 + 1e-9), (c, value, sandwiched)
                if alpha == 0.5:
                    assert value == pytest.approx(sandwiched, rel=1e-12), (c, value)


def test_variational_objective_rejects_a_leaking_rho():
    rho, sigma = np.diag([0.5, 0.5, 0.0]), np.diag([1.0, 0.0, 0.0])
    with pytest.raises(SupportViolationError):
        variational_objective(rho, sigma, DivergenceParams(1.5, 1.0), np.eye(3))


def test_variational_objective_rejects_an_h_that_is_not_psd():
    rho, sigma = np.diag([0.6, 0.4]), np.diag([0.5, 0.5])
    with pytest.raises(NotPSDError):
        variational_objective(rho, sigma, DivergenceParams(1.5, 1.0), np.diag([1.0, -0.1]))


def test_variational_objective_accepts_its_own_maximizer_at_small_z():
    """The PSD check reads H, not its products with rho^(a/2z) and sigma^((a-1)/2z).

    At (2, 0.1) those products hold sigma^5 twice and H* sigma^-5 twice,
    so their rounding can reach 1e-5 of the largest eigenvalue; a check
    on them raised NotPSDError on a PSD H* for most of these pairs.
    """
    rng = np.random.default_rng(5)
    params = DivergenceParams(2.0, 0.1)
    for d in (2, 3, 4, 2, 3, 4):
        rho, sigma = rand_density(rng, d), rand_density(rng, d)
        h_star = variational_optimizer_H(rho, sigma, params)
        assert math.isfinite(variational_objective(rho, sigma, params, h_star))


@pytest.mark.parametrize("alpha, z", [(2.0, 0.1), (1.5, 0.2), (1.3, 0.5), (1.2, 0.05)])
def test_variational_objective_at_its_maximizer_is_q_at_small_z(alpha, z):
    """The sup over H is attained at H*, also where z/alpha lifts a small eigenvalue to O(1).

    On rho = diag(0.691, 0.309), sigma = I/2 at (2, 0.1) the compression
    rho^(a/2z) H* rho^(a/2z) has eigenvalues 1e-14 apart; a cut at 1e-12
    read 0.764 for Q = 1.146.  On rho = diag(0.78, 0.22), sigma =
    diag(0.6, 0.4) at (1.2, 0.05), rho^(a/z) = rho^24 has an eigenvalue
    ratio of 6e-14: a maximizer cut at 1e-12 dropped it and read 0.822 for
    Q = 1.0172.  The pairs are diagonal, so every eigenvalue is exact, and
    the rank-deficient rho's kernel gives exact zeros.
    """
    for rho, sigma in (
        (np.diag([0.691, 0.309]), np.eye(2) / 2),
        (np.diag([0.8, 0.2, 0.0]), np.diag([0.5, 0.3, 0.2])),
        (np.diag([0.78, 0.22]), np.diag([0.6, 0.4])),
    ):
        params = DivergenceParams(alpha, z)
        h_star = variational_optimizer_H(rho, sigma, params)
        q = q_alpha_z(rho, sigma, params)
        assert variational_objective(rho, sigma, params, h_star) == pytest.approx(q, rel=1e-12)


@pytest.mark.parametrize("alpha, z, rel", [(1.5, 0.2, 1e-5), (1.3, 0.5, 1e-14)])
def test_variational_objective_at_its_maximizer_on_non_commuting_pairs(alpha, z, rel):
    """H* and the objective read the pair record, so at small z the objective at H* stays near Q.

    30 random pairs at d <= 4, rho of random rank and sigma with a floor.
    The worst relative gaps measured are 1.4e-6 at (1.5, 0.2) and 9.9e-16
    at (1.3, 0.5); the bounds give a margin of about 7 and 10.  H* rebuilt
    from powers of rho and sigma in the standard basis read 1.1e-2 and
    2.7e-12.
    """
    rng = np.random.default_rng(17)
    params = DivergenceParams(alpha, z)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        rho = rand_density(rng, d, rank=int(rng.integers(1, d + 1)))
        sigma = rand_density(rng, d, floor=0.05)
        h_star = variational_optimizer_H(rho, sigma, params)
        q = q_alpha_z(rho, sigma, params)
        assert variational_objective(rho, sigma, params, h_star) == pytest.approx(q, rel=rel)


def test_unnormalized_scaling_shifts_by_log(qutrit_pair):
    rho, sigma = qutrit_pair
    lam, eta = 1.7, 0.6
    params = DivergenceParams(2.0, 1.5)
    base = d_alpha_z(rho, sigma, params).d_value
    scaled = d_alpha_z(
        as_operator(lam * rho.entries), as_operator(eta * sigma.entries), params
    ).d_value
    assert scaled == pytest.approx(base + math.log(lam / eta), abs=1e-10)


def test_dmax_closed_form_qubit():
    rho = HermitianOperator(np.diag([0.9, 0.1]))
    sigma = HermitianOperator(np.diag([0.5, 0.5]))
    assert d_max(rho, sigma) == pytest.approx(math.log(1.8), rel=1e-12)


def test_d_hat_two_is_max_over_z_at_alpha_two(qutrit_pair):
    """At alpha = 2 the closed form coincides with the z = 1 member."""
    rho, sigma = qutrit_pair
    hat = d_hat_alpha(rho, sigma, 2.0)
    petz = d_alpha_z(rho, sigma, DivergenceParams(2.0, 1.0)).d_value
    assert hat == pytest.approx(petz, abs=1e-10)


def test_alt_chain_detail_fields(qubit_pair):
    rho, sigma = qubit_pair
    res = alt_chain(rho, sigma, 1.5, 0.7, 1.4)
    assert res.ok_lower and res.ok_upper


def test_nussbaum_szkola_matches_petz_q(qutrit_pair):
    rho, sigma = qutrit_pair
    p, q = nussbaum_szkola(rho, sigma)
    for alpha in (0.4, 1.8):
        lhs = q_alpha_z(rho, sigma, DivergenceParams(alpha, 1.0))
        assert lhs == pytest.approx(classical_q(p, q, alpha), rel=1e-11)


def test_pure_state_sandwiched_equals_dmax_scaling(rng):
    psi = rand_pure(rng, 3)
    sigma = rand_density(rng, 3, floor=0.05)
    dm = d_max(psi, sigma)
    for alpha in (1.5, 2.0, 3.0):
        dv = d_alpha_z(psi, sigma, DivergenceParams(alpha, alpha - 1.0)).d_value
        assert dv == pytest.approx(dm, abs=1e-9)


def test_z_monotonicity_of_q(qutrit_pair):
    rho, sigma = qutrit_pair
    alpha = 2.5
    values = [
        d_alpha_z(rho, sigma, DivergenceParams(alpha, z)).d_value
        for z in (0.5, 1.0, 2.0, 4.0)
    ]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-10


#: every public pair entry point, as a function of (rho, sigma)
PAIR_ENTRY_POINTS = {
    "q_alpha_z": lambda r, s: q_alpha_z(r, s, DivergenceParams(1.5, 1.0)),
    "d_alpha_z[z=1]": lambda r, s: d_alpha_z(r, s, DivergenceParams(1.5, 1.0)),
    "d_alpha_z[z=inf]": lambda r, s: d_alpha_z(r, s, DivergenceParams(1.5, math.inf)),
    "d_alpha_z[z=0]": lambda r, s: d_alpha_z(r, s, DivergenceParams(1.5, 0.0)),
    "d_alpha_zero": lambda r, s: d_alpha_zero(r, s, 1.5),
    "umegaki": umegaki,
    "d_max": d_max,
    "d_hat_alpha": lambda r, s: d_hat_alpha(r, s, 1.5),
    "nussbaum_szkola": nussbaum_szkola,
    "variational_objective": lambda r, s: variational_objective(
        r, s, DivergenceParams(1.5, 1.5), np.eye(2)
    ),
    "variational_optimizer_H": lambda r, s: variational_optimizer_H(
        r, s, DivergenceParams(1.5, 1.5)
    ),
    "alt_chain": lambda r, s: alt_chain(r, s, 1.5, 1.0, 2.0),
    "dmax_domination_check": lambda r, s: dmax_domination_check(
        r, s, DivergenceParams(1.5, 1.0)
    ),
    "pinch_exp": lambda r, s: pinch_exp(r, s, 1.5),
    "zero_z_divergence": lambda r, s: zero_z_divergence(r, s, 1.5),
    "zero_z_oracle": lambda r, s: zero_z_oracle(r, s, 1.5),
    "equality_case_check": lambda r, s: equality_case_check(r, s, "below"),
    "measured_renyi_lower[a=1.5]": lambda r, s: measured_renyi_lower(r, s, 1.5),
    "measured_renyi_lower[a=0.3]": lambda r, s: measured_renyi_lower(r, s, 0.3),
    "test_measured": lambda r, s: measured_by_test(r, s, 1.5),
}

GOOD = np.diag([0.6, 0.4])
BAD_INPUTS = [
    ("dim", np.eye(3) / 3, GOOD, DimMismatchError),
    ("zero-rho", np.zeros((2, 2)), GOOD, ZeroOperatorError),
    ("zero-sigma", GOOD, np.zeros((2, 2)), ZeroOperatorError),
    ("notpsd-rho", np.diag([1.0, -0.5]), GOOD, NotPSDError),
    ("notpsd-sigma", GOOD, np.diag([1.0, -0.5]), NotPSDError),
    ("nonhermitian-rho", np.array([[0.5, 0.2], [0.0, 0.5]]), GOOD, MalformedInputError),
    ("nonhermitian-sigma", GOOD, np.array([[0.5, 0.2], [0.0, 0.5]]), MalformedInputError),
]


@pytest.mark.parametrize(
    "rho,sigma,error", [b[1:] for b in BAD_INPUTS], ids=[b[0] for b in BAD_INPUTS]
)
@pytest.mark.parametrize("entry", list(PAIR_ENTRY_POINTS), ids=list(PAIR_ENTRY_POINTS))
def test_pair_entry_points_validate_inputs(entry, rho, sigma, error):
    with pytest.raises(error):
        PAIR_ENTRY_POINTS[entry](rho, sigma)


def leak_pair(t):
    """d = 3 pair whose leak out of supp sigma has mass t.

    sigma has rank 2 and rho = (1 - t) rho0 + t |k><k|, with rho0 inside
    supp sigma and k spanning its kernel.
    """
    u = np.linalg.qr(np.array([[1, 1, 1], [1, -1, 2], [0, 1, -1]], dtype=complex))[0]
    sigma = u @ np.diag([0.6, 0.4, 0.0]) @ u.conj().T
    v = u[:, :2] @ np.array([[0.8], [0.6j]])
    rho0 = 0.7 * (v @ v.conj().T) + 0.3 * np.outer(u[:, 0], u[:, 0].conj())
    rho = (1.0 - t) * rho0 + t * np.outer(u[:, 2], u[:, 2].conj())
    return 0.5 * (rho + rho.conj().T), sigma


def support_decisions(rho, sigma):
    """Every implementation of the alpha > 1 support decision, as values."""
    return {
        "d_alpha_z[z=1]": d_alpha_z(rho, sigma, DivergenceParams(1.5, 1.0)).d_value,
        "d_alpha_z[z=inf]": d_alpha_z(rho, sigma, DivergenceParams(1.5, math.inf)).d_value,
        "umegaki": umegaki(rho, sigma),
        "d_max": d_max(rho, sigma),
        "measured_renyi_lower": measured_renyi_lower(rho, sigma, 1.5).value,
        "test_measured": measured_by_test(rho, sigma, 1.5).value,
        "channels._renyi_grad[z=1]": _renyi_grad(rho, sigma, 1.5, 1.0)[0],
        "channels._renyi_grad[z=inf]": _renyi_grad(rho, sigma, 1.5, math.inf)[0],
        "channels._umegaki_grad": _umegaki_grad(rho, sigma)[0],
    }


@pytest.mark.parametrize(
    "t,borderline", [(0.0, False), (1e-10, True), (0.5 * SUPPORT_TEST_SLACK, True)]
)
def test_one_inclusion_decision_below_the_slack(t, borderline):
    rho, sigma = leak_pair(t)
    values = support_decisions(rho, sigma)
    assert all(math.isfinite(v) for v in values.values()), values
    for z in (1.0, math.inf):
        notes = d_alpha_z(rho, sigma, DivergenceParams(1.5, z)).notes
        assert ("support_borderline" in notes) == borderline


@pytest.mark.parametrize("t", [2.0 * SUPPORT_TEST_SLACK, 0.5])
def test_one_inclusion_decision_above_the_slack(t):
    values = support_decisions(*leak_pair(t))
    assert all(v == math.inf for v in values.values()), values


def formula_pairs():
    """d = 2, 3, 4 with full-rank, pure and rank-deficient rho against full-rank sigma."""
    rng = np.random.default_rng(909)
    for d in (2, 3, 4):
        sigma = rand_density(rng, d).entries
        for rho in (rand_density(rng, d), rand_pure(rng, d), rand_density(rng, d, rank=d - 1)):
            yield rho.entries, sigma


@pytest.mark.parametrize("alpha", [0.7, 1.5, 2.0])
def test_one_value_per_renyi_formula(alpha):
    """The channel gradient's value is the library's, bit for bit."""
    for rho, sigma in formula_pairs():
        for z in (1.0, alpha, math.inf):
            lib = d_alpha_z(rho, sigma, DivergenceParams(alpha, z)).d_value
            assert _renyi_grad(rho, sigma, alpha, z)[0] == lib, (alpha, z)


def test_renyi_gradient_is_finite_where_a_kept_eigenvalue_of_y_rounds_to_zero():
    """The gradient leaves out a kept eigenvalue of Y that eigh returns at or below 0.

    Y = A S A has the record's rank, but its smallest kept eigenvalue,
    ~1e-22 here, can come out of eigh at or below 0, where Y^(z-1) is not
    finite.
    """
    rng = np.random.default_rng(0)
    for _ in range(40):
        u, w = (np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0] for _ in range(2))
        rho, sigma = (u * [1.0, 3e-12, 0.0]) @ u.conj().T, (w * [1.0, 1e-6, 3e-12]) @ w.conj().T
        value, g_rho, g_sigma = _renyi_grad(rho, sigma, 0.7, 0.5)
        assert math.isfinite(value) and np.isfinite(g_rho).all() and np.isfinite(g_sigma).all()


def test_log_sum_powers_reads_a_negative_value_as_zero():
    """An eigensolver may return a kept eigenvalue of a PSD matrix at or below 0; it counts as 0."""
    assert _log_sum_powers(np.array([-1e-20, 0.25, 1.0]), 0.5) == math.log(1.5)
    assert _log_sum_powers(np.array([-1e-20, 0.0]), 0.5) == -math.inf


@pytest.mark.parametrize("alpha", [0.5, 0.7, 0.9, 1.5])
def test_sandwiched_on_aligned_pairs_with_near_cutoff_kept_eigenvalues(alpha):
    """rho and sigma of rank 2 share their eigenvectors, the second kept one near the cutoff.

    At z = alpha >= 1/2 the inner matrix's second eigenvalue is then
    a_2 b_2^((1-alpha)/alpha) relative, ~1e-23 at alpha = 1/2, far below
    rounding; Q stays the commuting pair's sum a_i^alpha b_i^(1-alpha).
    """
    rng = np.random.default_rng(7)
    a, b = np.array([0.7, 2e-12, 0.0, 0.0]), np.array([0.6, 3e-12, 0.0, 0.0])
    want = math.fsum(a[:2] ** alpha * b[:2] ** (1.0 - alpha))
    for _ in range(20):
        u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        rho, sigma = (u * a) @ u.conj().T, (u * b) @ u.conj().T
        got = q_alpha_z(rho, sigma, DivergenceParams(alpha, alpha))
        assert got == pytest.approx(want, rel=1e-10), (alpha, got, want)


def test_one_value_for_umegaki():
    for rho, sigma in formula_pairs():
        assert _umegaki_grad(rho, sigma)[0] == umegaki(rho, sigma)



#: matrix_q's cut on the eigenvalues of A S A, relative to the largest
INNER_FLOOR_RTOL = 1e-15


def matrix_q(rho, sigma, alpha, z):
    """Q_{alpha,z} = Tr (A S A)^z from the d x d powers A = rho^(alpha/2z), S = sigma^((1-alpha)/z)."""
    a = supported_power(rho, alpha / (2.0 * z)).entries
    y = a @ supported_power(sigma, (1.0 - alpha) / z).entries @ a
    w = np.linalg.eigvalsh(0.5 * (y + y.conj().T))
    return float(np.sum(w[w > INNER_FLOOR_RTOL * max(w[-1], 0.0)] ** z))


def svd_q(rho, sigma, alpha, z):
    """Q_{alpha,z} as the sum of s^2z over the singular values s of M = D_a U D_b (numpy's own cuts)."""
    (a, v), (b, w) = (np.linalg.eigh(as_operator(m).entries) for m in (rho, sigma))
    ka, kb = a > 1e-12 * a[-1], b > 1e-12 * b[-1]
    m = (a[ka] ** (alpha / (2.0 * z)))[:, None] * (v[:, ka].conj().T @ w[:, kb])
    s = np.linalg.svd(m * b[kb] ** ((1.0 - alpha) / (2.0 * z)), compute_uv=False)
    return float(np.sum(s ** (2.0 * z)))


def overlap_pairs(alpha):
    """formula_pairs, rank-deficient rho and sigma at d = 3, 4, 8, and one d = 64 pair.

    Above alpha = 1 rho lies inside sigma's support, or Q would be +inf.
    """
    yield from formula_pairs()
    rng = np.random.default_rng(910)
    for d in (3, 4, 8):
        sigma = rand_density(rng, d, rank=d - 1)
        w = sigma.eigenvectors[:, : d - 1]
        inside = w @ rand_density(rng, d - 1, rank=d - 2).entries @ w.conj().T
        yield inside, sigma.entries
        if alpha < 1.0:
            yield rand_density(rng, d, rank=d - 2).entries, sigma.entries
    yield rand_density(rng, 64, rank=40).entries, rand_density(rng, 64).entries


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.5, 3.0])
def test_overlap_form_q_matches_the_matrix_form(alpha):
    for rho, sigma in overlap_pairs(alpha):
        for z in (1.0, alpha):
            q = q_alpha_z(rho, sigma, DivergenceParams(alpha, z))
            for ref in (matrix_q(rho, sigma, alpha, z), svd_q(rho, sigma, alpha, z)):
                assert abs(q - ref) <= 1e-12 * ref, (alpha, z, len(rho), q, ref)
        # any other z runs the singular values of M; the matrix form's eigenvalue cut
        # of M M^dag is 1.4e-8 off at d = 8, alpha = 3
        q = q_alpha_z(rho, sigma, DivergenceParams(alpha, 0.5))
        ref = svd_q(rho, sigma, alpha, 0.5)
        assert abs(q - ref) <= 1e-12 * ref, (alpha, len(rho), q, ref)


def count_eigensolves(monkeypatch, fn):
    """Calls of np.linalg.eigvalsh and np.linalg.eigh made by fn()."""
    calls = []
    for name in ("eigvalsh", "eigh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda *a, _f=original, **k: calls.append(1) or _f(*a, **k)
        )
    fn()
    monkeypatch.undo()
    return len(calls)


def test_petz_needs_no_eigensolve_and_sandwiched_one(monkeypatch):
    """On a warm pair record: none at z = 1, one at z = alpha, none for D_max (the ratio eigensystem's)."""
    rng = np.random.default_rng(911)
    for d in (2, 4, 64):
        rho, sigma = rand_density(rng, d, rank=d - 1), rand_density(rng, d)
        d_max(rho, sigma)  # builds the record and its cached arrays
        for alpha in (0.7, 1.5):
            for z, calls in ((1.0, 0), (alpha, 1)):
                params = DivergenceParams(alpha, z)
                got = count_eigensolves(monkeypatch, lambda: d_alpha_z(rho, sigma, params))
                assert got == calls, (d, alpha, z)
        assert count_eigensolves(monkeypatch, lambda: d_max(rho, sigma)) == 0


#: (rho, sigma) whose trace leaves the float range once raised to alpha or 1 - alpha
TINY_TRACE_PAIRS = [
    (np.diag([1e-200, 0.0]), np.diag([0.6, 0.4])),
    (np.diag([0.5, 0.5]), 1e-300 * np.diag([0.6, 0.4])),
]


@pytest.mark.parametrize("alpha", [0.5, 1.5, 3.0])
@pytest.mark.parametrize("pair", [0, 1], ids=["rho-1e-200", "sigma-1e-300"])
def test_tiny_traces_give_the_classical_value_at_every_z(pair, alpha):
    rho, sigma = TINY_TRACE_PAIRS[pair]
    want = classical_renyi(np.diag(rho), np.diag(sigma), alpha)
    for z in (0.0, 0.5, 1.0, 2.0, alpha, math.inf):
        got = d_alpha_z(rho, sigma, DivergenceParams(alpha, z)).d_value
        assert abs(got - want) <= 1e-12 * abs(want), (z, got, want)


@pytest.mark.parametrize("alpha", [1.5, 3.0])
@pytest.mark.parametrize(
    "rho,sigma",
    [TINY_TRACE_PAIRS[1], (1e-200 * np.diag([0.6, 0.4]), np.eye(2) / 2)],
    ids=["sigma-1e-300", "rho-1e-200-full"],
)
def test_d_hat_alpha_on_tiny_traces_is_the_classical_value(rho, sigma, alpha):
    """The ratio eigenvalues near 1e300 and 1e-200 are summed in logs: lam^alpha leaves the float range."""
    want = classical_renyi(np.diag(rho), np.diag(sigma), alpha)
    got = d_hat_alpha(rho, sigma, alpha)
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)


def test_large_alpha_on_a_wide_sigma_spectrum_stays_finite():
    """b^(1 - alpha) at z = 1, and M M^dag at z = 1/2, leave the float range from alpha = 30 and 20.

    sigma's eigenvalue ratio is 1e-11.  Each pair commutes, its eigenvalues
    pairing up in ascending order, so the value is their classical one:
    rho = I/2, also turned by a unitary, whose overlap is not the
    identity, and a rho whose small eigenvalue's power underflows where it
    meets sigma's small one.
    """
    turn = np.linalg.qr(np.array([[1.0, 2.0 + 1.0j], [0.5j, -1.0]]))[0]
    rho, sigma = np.diag([0.5, 0.5]), np.diag([1.0, 1e-11])
    pairs = [(rho, sigma), (turn @ rho @ turn.conj().T, turn @ sigma @ turn.conj().T)]
    pairs.append((np.diag([1.0 - 1e-9, 1e-9]), sigma))
    for r, s in pairs:
        for alpha in (20.0, 30.0, 40.0):
            want = classical_renyi(np.linalg.eigvalsh(r), np.linalg.eigvalsh(s), alpha)
            for z in (0.5, 1.0):
                got = d_alpha_z(r, s, DivergenceParams(alpha, z)).d_value
                assert abs(got - want) <= 1e-12 * abs(want), (alpha, z, got, want)


@pytest.mark.parametrize("params", [(1.5, 1.5), (0.7, 1.0), (2.0, math.inf)])
@pytest.mark.parametrize("sigma_rank", [3, 2])
def test_smoothing_curve_matches_a_smoothed_sigma(rng, params, sigma_rank):
    rho, sigma = rand_density(rng, 3), rand_density(rng, 3, rank=sigma_rank)
    eps = (1e-2, 1e-4, 1e-6, 1e-8)
    params = DivergenceParams(*params)
    curve = epsilon_smoothing_curve(rho, sigma, params, eps)
    for e, value in zip(eps, curve):
        ref = d_alpha_z(rho, sigma.entries + e * np.eye(3), params).d_value
        assert abs(value - ref) <= 1e-8 * abs(ref), (e, value, ref)


def mp_d_hat_alpha(rho, sigma, alpha):
    """d_hat_alpha at 50 digits on the float entries: mp.eighe of sigma, then of sigma^-1/2 rho sigma^-1/2."""
    import mpmath as mp

    with mp.workdps(50):
        r, s = (mp.matrix([[mp.mpc(z.real, z.imag) for z in row] for row in m]) for m in (rho, sigma))
        r, s = (r + r.H) / 2, (s + s.H) / 2
        b, w = mp.eighe(s)
        inv_root = w * mp.diag([x ** -0.5 for x in b]) * w.H
        ratio = inv_root * r * inv_root
        lam, q = mp.eighe((ratio + ratio.H) / 2)
        power = q * mp.diag([x**alpha for x in lam]) * q.H
        trace = sum((s * power)[i, i] for i in range(s.rows)).real
        tr_rho = sum(r[i, i] for i in range(r.rows)).real
        return float((mp.log(trace) - mp.log(tr_rho)) / (alpha - 1.0))


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.5])
def test_d_hat_alpha_keeps_small_ratio_eigenvalues_on_an_ill_conditioned_sigma(alpha):
    """A ratio eigenvalue of 1.7e-3 under a largest of 3.9e9 is far above rounding, so it counts.

    sigma = u diag(logspace(0, -10, 5)) u^dag / trace.  A cut at
    SUPPORT_RTOL times the largest eigenvalue of sigma^-1/2 rho sigma^-1/2
    dropped it (its sigma-mass is 0.994): d_hat_alpha read 6.3346 at
    alpha = 0.3 and 10.446 at 0.7.  The float eigensystem of sigma resolves
    its 1e-10 eigenvalue to ~2e-6 relative, which bounds the agreement
    with the 50-digit reference on the same entries (1.3e-7 at alpha = 0.3).
    """
    rng = np.random.default_rng(14)
    u = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
    sigma = (u * np.logspace(0, -10, 5)) @ u.conj().T
    sigma /= np.trace(sigma).real
    rho = rand_density(rng, 5).entries
    want = mp_d_hat_alpha(rho, sigma, alpha)
    got = d_hat_alpha(rho, sigma, alpha)
    assert abs(got - want) <= 1e-6 * abs(want), (got, want)


@pytest.mark.parametrize("k", [4, 6, 8, 10, 12, 14])
def test_d_hat_alpha_near_one_matches_the_reference(k):
    """D-hat is its spectral test's classical value, in which nothing cancels as alpha -> 1.

    log Tr sigma X^alpha / (alpha - 1), summed by hand, was 0.198 relative
    off at alpha = 1 -+ 1e-14 on these qutrit pairs.
    """
    for seed in (3, 4, 5):
        rng = np.random.default_rng(seed)
        rho, sigma = rand_density(rng, 3).entries, rand_density(rng, 3).entries
        for alpha in (1.0 - 10.0**-k, 1.0 + 10.0**-k):
            want = mp_d_hat_alpha(rho, sigma, alpha)
            got = d_hat_alpha(rho, sigma, alpha)
            assert abs(got - want) <= 1e-13 * abs(want), (seed, alpha, got, want)


#: digits of the (alpha, z) reference, and the relative size below which its eigenvalues are exact zeros
MP_DPS = 160
MP_STRUCTURAL_ZERO = 1e-150


def mp_d_alpha_z(rho, sigma, alpha, z):
    """D_{alpha,z} from Tr (A S A)^z, A = rho^(alpha/2z) and S = sigma^((1-alpha)/z), at MP_DPS digits.

    mp.eighe of the float entries, so the reference is the value of the
    pair as given; only structural zeros, eigenvalues below
    MP_STRUCTURAL_ZERO times the largest, are dropped, from rho, sigma
    and A S A alike.
    """
    import mpmath as mp

    with mp.workdps(MP_DPS):
        floor = mp.mpf(MP_STRUCTURAL_ZERO)

        def power(m, p):
            w, v = mp.eighe(m)
            top = max(w)
            return v * mp.diag([x**p if x > floor * top else 0 for x in w]) * v.H

        r, s = (mp.matrix([[mp.mpc(x.real, x.imag) for x in row] for row in m]) for m in (rho, sigma))
        r, s = (r + r.H) / 2, (s + s.H) / 2
        alpha, z = mp.mpf(alpha), mp.mpf(z)
        a = power(r, alpha / (2 * z))
        y = a * power(s, (1 - alpha) / z) * a
        w = mp.eighe((y + y.H) / 2)[0]
        q = mp.fsum(x**z for x in w if x > floor * max(w))
        tr = mp.re(sum(r[i, i] for i in range(r.rows)))
        return float((mp.log(q) - mp.log(tr)) / (alpha - 1))


def mp_reference_pairs():
    """Four pairs per d = 2, 3, 4, 8 with random sigma, rho of full rank or with an exact kernel.

    The last rho has eigenvalues logspaced from 1 to 1e-4 under a random unitary.
    """
    rng = np.random.default_rng(33)
    for d in (2, 3, 4, 8):
        for k in range(4):
            rho, sigma = rand_density(rng, d).entries, rand_density(rng, d).entries
            if k == 2:
                rho = np.zeros((d, d), dtype=complex)
                rho[: d - 1, : d - 1] = rand_density(rng, d - 1).entries
            elif k == 3:
                u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
                rho = (u * np.logspace(0, -4, d)) @ u.conj().T
                rho /= np.trace(rho).real
            yield d, rho, sigma


@pytest.mark.parametrize("alpha, z", [(0.05, 0.05), (0.1, 0.1), (0.2, 0.2), (0.3, 0.3), (0.7, 0.1)])
def test_small_z_values_match_a_high_precision_reference(alpha, z):
    """Sandwiched below alpha = 1/2, and a general (alpha, z), within 1e-12 relative at d <= 4.

    s^2z lifts an inner value s of the pair to O(1) at small z, so no
    relative cut on the inner matrix may drop one: a cut at 1e-15 read up
    to 15 relative off at alpha = 0.05, and 4.9e-3 at (0.7, 0.1).  d = 8
    keeps a wide 1e-8 bound for its larger spectra (these pairs read
    1.1e-14 there).
    """
    for d, rho, sigma in mp_reference_pairs():
        want = mp_d_alpha_z(rho, sigma, alpha, z)
        got = d_alpha_z(rho, sigma, DivergenceParams(alpha, z)).d_value
        assert abs(got - want) <= (1e-12 if d <= 4 else 1e-8) * abs(want), (d, got, want)
