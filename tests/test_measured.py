"""Measured divergence lower bounds and the two-outcome test variant."""

import itertools
import math
import sys
import warnings

import numpy as np
import pytest

from qrd import measured, opcore
from qrd.channels import _state_grad, apply_extended, depolarizing_channel, identity_channel
from qrd.classical import classical_renyi
from qrd.divergences import DivergenceParams, d_alpha_z, d_max
from qrd.errors import DimMismatchError, ZeroOperatorError
from qrd.families import gen_pure
from qrd.measured import (
    POVM,
    apply_povm,
    measured_renyi_lower,
    test_measured as measured_by_test,
)
from qrd.opcore import HermitianOperator
from qrd.verify import rand_density, rand_pure

CONVEX_ALPHAS = [0.5, 0.7, 1.0, 1.5, 3.0]
TEST_ALPHAS = [0.3, 0.5, 1.0, 1.5, 3.0]


def bloch_oracle(rho, sigma, alpha, rounds=12):
    """Best two-outcome projective measurement of a qubit pair.

    Scans the Bloch sphere (outcomes |n><n| and |-n><-n|) on a 1-degree
    grid, then zooms a 21 x 21 grid around the best point, shrinking it
    fivefold per round.  Needs full-rank states.
    """
    r, s = rho.entries, sigma.entries

    def grid_values(theta, phi):
        v = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=-1)
        p1 = np.real(np.einsum("...i,ij,...j->...", v.conj(), r, v))
        q1 = np.real(np.einsum("...i,ij,...j->...", v.conj(), s, v))
        p = np.stack([p1, rho.trace - p1])
        q = np.stack([q1, sigma.trace - q1])
        if alpha == 1.0:
            return np.sum(p * np.log(p / q), axis=0) / rho.trace
        q_alpha = np.sum(p**alpha * q ** (1 - alpha), axis=0)
        return (np.log(q_alpha) - np.log(rho.trace)) / (alpha - 1)

    theta, phi = np.meshgrid(np.radians(np.arange(181.0)), np.radians(np.arange(360.0)))
    step = math.radians(1.0)
    for _ in range(rounds):
        vals = grid_values(theta, phi)
        k = np.unravel_index(np.argmax(vals), vals.shape)
        t0, f0 = theta[k], phi[k]
        offsets = np.linspace(-2 * step, 2 * step, 21)
        theta, phi = np.meshgrid(t0 + offsets, f0 + offsets)
        step /= 5
    return float(np.max(grid_values(theta, phi)))


def subspace_density(rng, basis, rank):
    """Random density matrix supported inside the span of basis's columns."""
    k = basis.shape[1]
    g = basis @ (rng.standard_normal((k, rank)) + 1j * rng.standard_normal((k, rank)))
    m = g @ g.conj().T
    return HermitianOperator(m / np.trace(m).real)


def test_povm_completeness_enforced():
    half = HermitianOperator(0.5 * np.eye(2))
    POVM((half, half))
    with pytest.raises(ValueError):
        POVM((half,))
    # the tolerance is 1e-9 in every entry of sum_k M_k - I
    e00 = np.diag([1.0, 0.0])
    POVM((half, HermitianOperator(0.5 * np.eye(2) + 5e-10 * e00)))
    with pytest.raises(ValueError, match="completeness"):
        POVM((half, HermitianOperator(0.5 * np.eye(2) + 2e-9 * e00)))


def test_povm_factors_must_be_the_elements_factors():
    """Factors certify the weights apply_povm reports, so each must square to its element."""
    e0, e1 = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])
    elements = (HermitianOperator(e0 @ e0.T), HermitianOperator(e1 @ e1.T))
    rho = HermitianOperator(np.diag([0.7, 0.3]))
    np.testing.assert_allclose(apply_povm(POVM(elements, (e0, e1)), rho).values, [0.7, 0.3])
    with pytest.raises(DimMismatchError):
        POVM(elements, (e0,))
    for factors in ((e1, e0), (2.0 * e0, e1), (e0, e1 + 2e-9)):
        with pytest.raises(ValueError, match="factor"):
            POVM(elements, factors)
    POVM(elements, (e0, e1 + 2e-10))


def test_povm_rejects_negative_element():
    bad = HermitianOperator(np.diag([1.5, 1.0]))
    comp = HermitianOperator(np.diag([-0.5, 0.0]))
    with pytest.raises(ValueError):
        POVM((bad, comp))


def test_apply_povm_outcome_statistics():
    povm = POVM(
        (HermitianOperator(np.diag([1.0, 0.0])), HermitianOperator(np.diag([0.0, 1.0])))
    )
    rho = HermitianOperator(np.array([[0.7, 0.2], [0.2, 0.3]]))
    w = apply_povm(povm, rho)
    np.testing.assert_allclose(w.values, [0.7, 0.3], atol=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 0.7, 1.0, 1.8, 3.0])
def test_commuting_pair_reaches_classical_value(alpha):
    p = np.array([0.5, 0.3, 0.2])
    q = np.array([0.2, 0.3, 0.5])
    rho, sigma = HermitianOperator(np.diag(p)), HermitianOperator(np.diag(q))
    got = measured_renyi_lower(rho, sigma, alpha, restarts=2, seed=0).value
    assert got == pytest.approx(classical_renyi(p, q, alpha), abs=1e-10)


@pytest.mark.parametrize("alpha", [0.3, 1.5])
def test_zero_rho_is_rejected(alpha):
    with pytest.raises(ZeroOperatorError):
        measured_renyi_lower(np.zeros((2, 2)), np.eye(2) / 2, alpha, restarts=1, iters=2)


def test_structural_infinity_certified(rng):
    rho = rand_density(rng, 3)
    sigma = rand_density(rng, 3, rank=2)
    res = measured_renyi_lower(rho, sigma, 2.0, restarts=1, seed=0)
    assert res.value == math.inf
    assert res.converged


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_orthogonal_supports_below_one_are_certified_infinite(alpha):
    rho = HermitianOperator(np.diag([1.0, 0.0, 0.0]))
    sigma = HermitianOperator(np.diag([0.0, 0.6, 0.4]))
    for res in (
        measured_renyi_lower(rho, sigma, alpha, restarts=1, seed=0),
        measured_by_test(rho, sigma, alpha),
    ):
        assert res.value == math.inf
        # the witness separates the supports: rho lands on the first outcome only
        p, q = apply_povm(res.povm, rho).values, apply_povm(res.povm, sigma).values
        assert p[1] == 0.0 and q[0] == 0.0
        assert p[0] == pytest.approx(1.0, abs=1e-15) and q[1] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "overlaps, finite_only", [((5e-9,), False), ((2e-8,), True), ((8e-9, 8e-9), True)]
)
def test_orthogonality_band_below_one(overlaps, finite_only):
    """Supports count as disjoint only when no kept overlap exceeds the 1e-12 dust.

    rho = |0><0| and sigma's eigenvectors meet |0> by the given overlaps,
    all above the dust, so both bounds are finite; on a single overlap
    both equal the sandwiched value at alpha = 1/2, -log F of the pure rho,
    which the measurement {|0><0|, I - |0><0|} certifies.
    """
    phi = np.zeros((3, len(overlaps)))
    for j, c in enumerate(overlaps):
        phi[0, j], phi[j + 1, j] = c, math.sqrt(1.0 - c * c)
    rho, sigma = np.diag([1.0, 0.0, 0.0]), phi @ np.diag([0.6, 0.4][: len(overlaps)]) @ phi.T
    sandwiched = d_alpha_z(rho, sigma, DivergenceParams(0.5, 0.5)).d_value
    for res in (measured_renyi_lower(rho, sigma, 0.5), measured_by_test(rho, sigma, 0.5)):
        assert math.isfinite(res.value), res.value
        if not finite_only:
            assert res.value == pytest.approx(sandwiched, rel=1e-12), (res.value, sandwiched)


def test_scored_weights_are_the_per_factor_squared_norms(rng):
    """The scorer's batched weights are bit for bit ||root F||^2 of each factor on its own."""
    for d in (2, 3, 4):
        for alpha in (0.4, 0.5, 1.5):
            rho, sigma = rand_density(rng, d), rand_density(rng, d, rank=d - 1 if d > 2 else d)
            pair, witness = measured._measured_pair(opcore._checked_pair(rho, sigma), alpha)
            if witness is not None:
                continue
            cands = (
                measured._variational_povms(pair, alpha)[0]
                if alpha > 0.5
                else measured._stiefel_povms(pair, alpha, 2, 0, 5)[0]
            )
            cands = [*cands, measured._np_test(pair, alpha)[0], (np.eye(d),)]
            # each candidate alone, and the winner of all of them scored in one batch
            for factors, p, q in [measured._scored(pair, [c], alpha)[1:] for c in cands] + [
                measured._scored(pair, cands, alpha)[1:]
            ]:
                for root, got in zip(pair.roots, (p, q)):
                    want = [np.sum(np.abs(root @ f) ** 2) for f in factors]
                    assert got.tolist() == want, (d, alpha)


def test_value_is_a_lower_bound_for_sandwiched(rng):
    rho = rand_density(rng, 2, floor=0.05)
    sigma = rand_density(rng, 2, floor=0.05)
    for alpha in (0.6, 1.5, 2.5):
        sand = d_alpha_z(rho, sigma, DivergenceParams(alpha, alpha)).d_value
        got = measured_renyi_lower(rho, sigma, alpha, restarts=2, seed=1).value
        assert got <= sand + 1e-9


def test_test_variant_below_full_measured(rng):
    rho = rand_density(rng, 2, floor=0.05)
    sigma = rand_density(rng, 2, floor=0.05)
    mv = measured_renyi_lower(rho, sigma, 2.0, restarts=2, seed=2).value
    tv = measured_by_test(rho, sigma, 2.0, restarts=2, seed=2).value
    assert tv <= mv + 1e-6


def test_large_alpha_test_tracks_dmax_commuting():
    p = np.array([0.7, 0.3])
    q = np.array([0.4, 0.6])
    rho, sigma = HermitianOperator(np.diag(p)), HermitianOperator(np.diag(q))
    tv = measured_by_test(rho, sigma, 64.0, restarts=2, seed=0).value
    assert abs(tv - d_max(rho, sigma)) <= 5e-2


@pytest.mark.parametrize("alpha", CONVEX_ALPHAS)
def test_qubit_value_matches_projective_oracle(rng, alpha):
    for floor in (0.0, 0.05):
        rho = rand_density(rng, 2, floor=floor)
        sigma = rand_density(rng, 2, floor=floor)
        oracle = bloch_oracle(rho, sigma, alpha)
        got = measured_renyi_lower(rho, sigma, alpha, seed=0).value
        assert oracle - 1e-10 <= got <= oracle + 1e-6


@pytest.mark.parametrize("alpha", [0.7, 2.0])
def test_convex_result_is_certified_by_rank_one_projectors(rng, alpha):
    for d in (3, 2):  # the qubit takes the great-circle search
        rho = rand_density(rng, d)
        sigma = rand_density(rng, d)
        res = measured_renyi_lower(rho, sigma, alpha, seed=0)
        assert len(res.povm.elements) == d
        for el in res.povm.elements:
            np.testing.assert_allclose(el.entries @ el.entries, el.entries, atol=1e-12)
            assert el.trace == pytest.approx(1.0, abs=1e-12)
        exact = classical_renyi(apply_povm(res.povm, rho), apply_povm(res.povm, sigma), alpha)
        assert exact == res.value, d


@pytest.mark.parametrize("alpha", CONVEX_ALPHAS)
def test_rank_deficient_pairs_stay_finite_and_below_sandwiched(rng, alpha):
    basis = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    sigma_singular = HermitianOperator((basis[:, :2] * [0.7, 0.3]) @ basis[:, :2].conj().T)
    pairs = [
        (rand_pure(rng, 2), rand_density(rng, 2)),
        (rand_pure(rng, 3), rand_density(rng, 3)),
        (subspace_density(rng, basis[:, :2], 1), sigma_singular),
        (subspace_density(rng, basis[:, :2], 2), sigma_singular),
    ]
    for rho, sigma in pairs:
        got = measured_renyi_lower(rho, sigma, alpha, seed=0).value
        sand = d_alpha_z(rho, sigma, DivergenceParams(alpha, alpha)).d_value
        assert math.isfinite(got)
        assert got <= sand + 1e-9


def binary_value(proj, rho, sigma, alpha):
    """Renyi divergence of the test (proj, I - proj)."""
    p1 = float(np.real(np.trace(proj @ rho.entries)))
    q1 = float(np.real(np.trace(proj @ sigma.entries)))
    p = np.clip([p1, rho.trace - p1], 0.0, None)
    q = np.clip([q1, sigma.trace - q1], 0.0, None)
    return classical_renyi(p, q, alpha)


@pytest.mark.parametrize("alpha", TEST_ALPHAS)
def test_test_variant_matches_qubit_oracle(rng, alpha):
    # for a qubit the best two-outcome measurement is a rank-one projector
    for floor in (0.0, 0.05):
        rho = rand_density(rng, 2, floor=floor)
        sigma = rand_density(rng, 2, floor=floor)
        oracle = bloch_oracle(rho, sigma, alpha)
        got = measured_by_test(rho, sigma, alpha).value
        assert oracle - 1e-10 <= got <= oracle + 1e-6


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("alpha", TEST_ALPHAS)
def test_test_variant_commuting_pair_is_best_diagonal_projection(rng, d, alpha):
    p, q = rng.uniform(0.05, 1.0, d), rng.uniform(0.05, 1.0, d)
    p, q = p / p.sum(), q / q.sum()
    best = max(
        classical_renyi([p[s].sum(), p[~s].sum()], [q[s].sum(), q[~s].sum()], alpha)
        for s in map(np.array, itertools.product([False, True], repeat=d))
    )
    got = measured_by_test(HermitianOperator(np.diag(p)), HermitianOperator(np.diag(q)), alpha)
    assert got.value == pytest.approx(best, abs=1e-12)


@pytest.mark.parametrize("alpha", TEST_ALPHAS)
def test_test_variant_beats_random_projections(rng, alpha):
    rho, sigma = rand_density(rng, 3), rand_density(rng, 3)
    got = measured_by_test(rho, sigma, alpha).value
    g = rng.standard_normal((2000, 3, 3)) + 1j * rng.standard_normal((2000, 3, 3))
    bases = np.linalg.qr(g)[0]
    for i, basis in enumerate(bases):
        top = basis[:, : 1 + i % 2]
        assert binary_value(top @ top.conj().T, rho, sigma, alpha) <= got + 1e-12


@pytest.mark.parametrize("alpha", TEST_ALPHAS)
def test_test_variant_is_certified_by_a_projector_pair(rng, alpha):
    for d in (3, 2):  # the qubit takes the great-circle search
        rho, sigma = rand_density(rng, d), rand_density(rng, d)
        res = measured_by_test(rho, sigma, alpha, restarts=3, seed=5)
        assert len(res.povm.elements) == 2
        for el in res.povm.elements:
            np.testing.assert_allclose(el.entries @ el.entries, el.entries, atol=1e-12)
        exact = classical_renyi(apply_povm(res.povm, rho), apply_povm(res.povm, sigma), alpha)
        assert exact == res.value, d
        assert res.converged, d


@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_test_variant_near_product_pair_is_finite(alpha):
    """psi = |00> + 1e-6 |11> through identity (rho) and depolarizing(0.2) (sigma).

    rho leaks out of supp sigma by a mass of only about 1e-12, so the
    leak-mass test keeps the pair included and the test-measured value is
    finite and at most the sandwiched one.
    """
    psi = np.array([1.0, 0.0, 0.0, 1e-6], dtype=complex)
    psi /= np.linalg.norm(psi)
    state = np.outer(psi, psi.conj())
    rho = apply_extended(identity_channel(2), state)
    sigma = apply_extended(depolarizing_channel(0.2), state)
    got = measured_by_test(rho, sigma, alpha).value
    assert got == pytest.approx(math.log(1.0 / 0.9), abs=1e-9)
    assert got <= d_alpha_z(rho, sigma, DivergenceParams(alpha, alpha)).d_value + 1e-9


def near_product_pair():
    """psi = |00> + 1e-6 |11> through identity (rho) and depolarizing(0.2) (sigma)."""
    psi = np.array([1.0, 0.0, 0.0, 1e-6], dtype=complex)
    psi /= np.linalg.norm(psi)
    state = np.outer(psi, psi.conj())
    return (
        apply_extended(identity_channel(2), state),
        apply_extended(depolarizing_channel(0.2), state),
    )


def gate_13_pairs():
    """The random pairs of acceptance gate 13 with their restart budgets."""
    for i in range(10):
        rng = np.random.default_rng([1302, i])
        d = 2 if i < 8 else 3
        yield rand_density(rng, d, floor=0.02), rand_density(rng, d, floor=0.02), 2 if d == 2 else 1


def test_measured_value_is_at_least_the_test_value(rng):
    """D_M >= D_test: the ascent below 1/2 is seeded with the Neyman-Pearson test."""
    cases = [
        (rho, sigma, restarts, alpha)
        for rho, sigma, restarts in gate_13_pairs()
        for alpha in (0.3, 0.4, 0.5, 0.8, 1.3, 2.0, 3.0)
    ]
    cases += [(*near_product_pair(), 1, alpha) for alpha in (0.3, 0.4, 1.5, 2.0)]
    for d in (2, 2, 3, 3):
        rho, sigma = rand_density(rng, d), rand_density(rng, d)
        cases += [(rho, sigma, 2, alpha) for alpha in (0.3, 0.4)]
    for rho, sigma, restarts, alpha in cases:
        mv = measured_renyi_lower(rho, sigma, alpha, restarts=restarts, seed=13).value
        tv = measured_by_test(rho, sigma, alpha).value
        assert mv >= tv - 1e-12, f"alpha={alpha}: measured {mv!r} below test {tv!r}"


@pytest.mark.parametrize("alpha", [0.3, 0.4])
def test_test_variant_on_a_pure_state_stays_certified(alpha):
    """Weights of an outcome that rho does not reach carry no rounding dust.

    For pure rho and alpha < 1/2 no test beats -log <psi|sigma|psi>, reached
    by T = |psi><psi|; a dust weight raised to the power alpha would read
    as a value above it.
    """
    rho, sigma = gen_pure(1.0, 0.3)
    psi = np.array([math.sqrt(0.3), math.sqrt(0.7)])
    bound = -math.log(psi @ sigma.entries.real @ psi)
    assert measured_by_test(rho, sigma, alpha).value <= bound + 1e-12


def test_convex_path_reports_converged():
    rng = np.random.default_rng(0)
    for d in (2, 3, 4):
        for _ in range(4):
            rho, sigma = rand_density(rng, d), rand_density(rng, d)
            for alpha in (0.7, 1.5, 3.0):
                assert measured_renyi_lower(rho, sigma, alpha, seed=0).converged, (d, alpha)


@pytest.mark.parametrize("d, alpha", [(5, 2.0), (6, 3.0), (8, 2.0), (8, 3.0)])
def test_convex_path_converges_above_dimension_four(monkeypatch, d, alpha):
    """A solve at d >= 5 and alpha >= 2 converges and ends where four times its step cap ends.

    Without the preconditioner the starts crawl along directions whose
    curvature is ~1e-6 of the largest: they hit the step cap, and the
    longer solve ends up to 1.2e-6 higher.
    """
    rng = np.random.default_rng(7)
    rho, sigma = rand_density(rng, d), rand_density(rng, d)
    res = measured_renyi_lower(rho, sigma, alpha)
    monkeypatch.setattr(measured, "BFT_ITERS", 4 * measured.BFT_ITERS)
    longer = measured_renyi_lower(rho, sigma, alpha)
    assert res.converged and res.value >= longer.value - 1e-10, (res.value - longer.value)


def test_convex_path_is_continuous_at_alpha_one():
    """|D(1 +- 1e-12) - D(1)| <= 1e-9 on the ascent of the variational formula.

    (1/s) log Tr A exp(sK) at s = alpha - 1 would divide the rounding of
    Tr A by s, and the ascent would stop on a worse measurement (1.2e-5
    and 3.2e-5 below on this pair).
    """
    rng = np.random.default_rng(11)
    rho, sigma = rand_density(rng, 3), rand_density(rng, 3)
    at_one = measured_renyi_lower(rho, sigma, 1.0).value
    for alpha in (1.0 - 1e-12, 1.0 + 1e-12):
        res = measured_renyi_lower(rho, sigma, alpha)
        assert abs(res.value - at_one) <= 1e-9 and res.converged, (alpha, res.value - at_one)


@pytest.mark.parametrize("alpha", [0.7, 1.5, 2.0, 3.0])
def test_qubit_measured_value_is_the_test_value(rng, alpha):
    """For d = 2 every projective measurement is a test, so D_M = D_test above 1/2.

    On a qubit with invertible sigma both take their candidates from the
    same great-circle angle search (_qubit_tests), so this checks that the
    two entry points certify the same value; the check against an
    independent search is the convex program's, below.
    """
    for _ in range(20):
        rho, sigma = rand_density(rng, 2), rand_density(rng, 2)
        got = measured_renyi_lower(rho, sigma, alpha).value
        assert abs(got - measured_by_test(rho, sigma, alpha).value) <= 1e-9


def best_candidate_value(pair, cands, alpha):
    """The best certified value of cands and the trivial measurement, as _lower_bound scores."""
    return measured._scored(pair, [*cands, (np.eye(len(pair.rho)),)], alpha)[0]


def ill_conditioned_sigma(rng, small):
    """A random qubit sigma with eigenvalues small and 1 - small."""
    u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    return HermitianOperator((u * [small, 1.0 - small]) @ u.conj().T)


@pytest.mark.parametrize("alpha", [0.7, 1.5, 3.0, 10.0])
def test_qubit_value_is_the_convex_program_value(rng, alpha):
    """Above 1/2 the qubit path reads the convex program's value, run on the same record.

    The pairs are the test-value check's and ones whose sigma has an
    eigenvalue of 1e-6 to 1e-10, where the best test's angle lies 3e-6 to
    3e-9 from pi/2 and the angle search alone falls short of the optimum.
    """
    pairs = [(rand_density(rng, 2), rand_density(rng, 2)) for _ in range(20)]
    pairs += [(rand_density(rng, 2), ill_conditioned_sigma(rng, 10.0**-k)) for k in range(6, 11)]
    for rho, sigma in pairs:
        got = measured_renyi_lower(rho, sigma, alpha).value
        pair, _ = measured._measured_pair(opcore._checked_pair(rho, sigma), alpha)
        want = best_candidate_value(pair, measured._variational_povms(pair, alpha)[0], alpha)
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want)), (got, want)


@pytest.mark.parametrize("alpha", [1.5, 4.0, 10.0])
def test_qubit_test_value_on_an_ill_conditioned_sigma_is_the_convex_program_value(rng, alpha):
    """test_measured resolves the best angle when sigma has an eigenvalue of 1e-6 to 1e-10.

    That angle lies within ~sqrt(b1/b0) of sigma's eigenbasis, where a fixed
    angle step of 1e-9 is coarse: a search in such steps read up to 2.1e-8
    below the convex program's value at alpha = 4.
    """
    for k in range(6, 11):
        for _ in range(4):
            rho, sigma = rand_density(rng, 2), ill_conditioned_sigma(rng, 10.0**-k)
            got = measured_by_test(rho, sigma, alpha).value
            pair, _ = measured._measured_pair(opcore._checked_pair(rho, sigma), alpha)
            cands = measured._variational_povms(pair, alpha)[0]
            want = best_candidate_value(pair, cands, alpha)
            assert abs(got - want) <= 1e-11 * max(1.0, abs(want)), (k, got, want)


#: a pure rho and a sigma with eigenvalue 1.8e-7 on which, at alpha = 0.05, rounding
#: dust on rho's kernel outcome, raised to the power alpha, decides: the best
#: great-circle test reads 6.5e-3 above the d^2-outcome ascent, rho's eigenbasis 1.8e-2 above
DUST_PAIR = (
    [[0.6114392446331255, 0.4784852681995604 - 0.09291470750959252j],
     [0.4784852681995604 + 0.09291470750959252j, 0.38856075536687446]],
    [[0.23726112281965694, -0.28282507448273103 - 0.3177704847527123j],
     [-0.28282507448273103 + 0.31777048475271236j, 0.7627388771803431 - 4.946083674954288e-17j]],
)


@pytest.mark.parametrize("alpha", [0.05, 0.2, 0.4])
def test_qubit_value_below_half_is_at_least_the_povm_ascent(rng, alpha):
    """Below 1/2 the qubit path reads at least the d^2-outcome ascent run on the same record."""
    pairs = [tuple(np.array(m) for m in DUST_PAIR)]
    for _ in range(4):
        sigma, psi = rand_density(rng, 2), rand_pure(rng, 2).entries
        pairs += [
            (rand_density(rng, 2), sigma),
            (rand_pure(rng, 2), sigma),
            ((1.0 - 1e-6) * psi + 5e-7 * np.eye(2), sigma),
            (1e-3 * rand_density(rng, 2).entries, 7.0 * sigma.entries),
        ]
    for rho, sigma in pairs:
        got = measured_renyi_lower(rho, sigma, alpha).value
        pair, _ = measured._measured_pair(opcore._checked_pair(rho, sigma), alpha)
        cands = measured._stiefel_povms(pair, alpha, 6, 0, 60)[0]
        want = best_candidate_value(pair, cands, alpha)
        assert got >= want - 1e-13 * max(1.0, abs(want)), (got, want)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_half_alpha_is_minus_log_fidelity(rng, d):
    """At alpha = 1/2, D_M = -log F, certified by the Fuchs-Caves measurement."""
    for rho in (rand_pure(rng, d), rand_density(rng, d)):
        sigma = rand_density(rng, d)
        res = measured_renyi_lower(rho, sigma, 0.5, seed=0)
        sand = d_alpha_z(rho, sigma, DivergenceParams(0.5, 0.5)).d_value
        assert res.value == pytest.approx(sand, abs=1e-12)
        exact = classical_renyi(apply_povm(res.povm, rho), apply_povm(res.povm, sigma), 0.5)
        assert exact == res.value


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.4])
def test_tiny_trace_below_half_stays_finite(alpha):
    """The ascent runs on rho / Tr rho: on rho itself its gradient, ~1 / Tr rho, overflows."""
    got = measured_renyi_lower(np.diag([1e-300, 0.0]), np.diag([0.6, 0.4]), alpha).value
    assert got == pytest.approx(math.log(1e-300 / 0.6), rel=1e-12)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.5])
def test_searches_read_the_pair_record_once(monkeypatch, rng, alpha):
    """On array inputs: one pair record, no spectral_map, and only the winner becomes a POVM.

    The only HermitianOperators built are the returned POVM's elements:
    rho and sigma are checked on one stack, not coerced, and the channel
    measured kind's state objective builds none.  The second pair has rho inside sigma's
    support, which alpha = 1.5 compresses rho to.
    """
    basis = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    sigma_singular = (basis[:, :2] * [0.7, 0.3]) @ basis[:, :2].conj().T
    pairs = [
        (rand_density(rng, 2).entries, rand_density(rng, 2).entries),
        (subspace_density(rng, basis[:, :2], 2).entries, sigma_singular),
    ]
    calls = {"spectral_map": 0, "_checked_pair": 0, "operators": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("spectral_map", "_checked_pair"):
        wrapped = counted(name, getattr(opcore, name))
        for module in [m for key, m in sys.modules.items() if key.startswith("qrd")]:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    monkeypatch.setattr(
        opcore.HermitianOperator, "__init__",
        counted("operators", opcore.HermitianOperator.__init__),
    )
    for rho, sigma in pairs:
        for fn in (measured_renyi_lower, measured_by_test):
            calls.update(dict.fromkeys(calls, 0))
            res = fn(rho.copy(), sigma.copy(), alpha)
            assert calls == {
                "spectral_map": 0, "_checked_pair": 1, "operators": len(res.povm.elements),
            }, fn.__name__
        calls.update(dict.fromkeys(calls, 0))
        value, g_rho, _ = _state_grad("measured", alpha, None, 0)(rho, sigma)
        assert calls == {"spectral_map": 0, "_checked_pair": 0, "operators": 0}
        assert math.isfinite(value) == (g_rho is not None)


@pytest.mark.parametrize("alpha", [1.0, 1.5, 3.0])
def test_certificate_is_for_rho_compressed_to_sigma_support(alpha):
    """For alpha >= 1 the returned POVM certifies the value on P rho P.

    rho leaks 1e-10, under the support-test slack, into sigma's kernel;
    P is sigma's support projection.  On the uncompressed rho an outcome
    catching the leak can read far higher (39 against 0.56 at alpha = 3).
    """
    u = np.linalg.qr(np.array([[1, 1, 1], [1, -1, 2], [0, 1, -1]], dtype=complex))[0]
    sigma = 0.5 * u[:, :2] @ u[:, :2].conj().T
    v = u[:, :2] @ np.array([0.8, 0.6j])
    rho0 = 0.7 * np.outer(v, v.conj()) + 0.3 * np.outer(u[:, 0], u[:, 0].conj())
    rho = (1 - 1e-10) * rho0 + 1e-10 * np.outer(u[:, 2], u[:, 2].conj())
    p = opcore.support_projection(sigma).entries
    for fn in (measured_renyi_lower, measured_by_test):
        res = fn(rho, sigma, alpha)
        weights = apply_povm(res.povm, p @ rho @ p), apply_povm(res.povm, sigma)
        assert classical_renyi(*weights, alpha) == pytest.approx(res.value, rel=1e-13, abs=0)


@pytest.mark.parametrize(
    "rho,sigma,alpha,want",
    [
        pytest.param([1e-300, 0.0], [0.6, 0.4], 1.5, math.log(1e-300 / 0.6), id="1.5"),
        pytest.param([1e-300, 0.0], [0.6, 0.4], 3.0, math.log(1e-300 / 0.6), id="3.0"),
        # 300 ln 10 + D_3((1/2, 1/2) || (0.6, 0.4)): q^(1 - alpha) of the raw weights overflows
        pytest.param(
            [0.5, 0.5], [0.6e-300, 0.4e-300], 3.0,
            300 * math.log(10) + 0.5 * math.log(0.5**3 / 0.6**2 + 0.5**3 / 0.4**2),
            id="3.0-tiny-sigma",
        ),
    ],
)
@pytest.mark.parametrize("fn", [measured_renyi_lower, measured_by_test])
def test_tiny_trace_value_is_the_log_trace_ratio(fn, rho, sigma, alpha, want):
    """A tiny Tr rho or Tr sigma shifts the value by the log of the scale, and stays converged.

    On rho = diag(1e-300, 0) the only test is rho's support; p^alpha of
    the raw weights underflows.
    """
    got = fn(np.diag(rho), np.diag(sigma), alpha)
    assert got.value == pytest.approx(want, rel=1e-12) and got.converged


@pytest.mark.parametrize("alpha", [1.0, 1.5, 3.0])
def test_rank_one_sigma_with_rho_on_its_support_is_the_log_trace_ratio(alpha):
    """A rank-1 sigma leaves the test no split of its support: T = I, and D = log(Tr rho / Tr sigma)."""
    v = np.array([1.0, 1.0j, -0.5]) / 1.5
    rho, sigma = 0.2 * np.outer(v, v.conj()), 0.7 * np.outer(v, v.conj())
    for fn in (measured_renyi_lower, measured_by_test):
        assert fn(rho, sigma, alpha).value == pytest.approx(math.log(0.2 / 0.7), rel=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_test_variant_is_continuous_at_alpha_one(rng, d):
    """|D(1 +- 1e-12) - D(1)| <= 1e-9: the value carries no 1e-16 / |alpha - 1| cancellation."""
    for _ in range(4):
        rho, sigma = rand_density(rng, d), rand_density(rng, d)
        at_one = measured_by_test(rho, sigma, 1.0).value
        for alpha in (1.0 - 1e-12, 1.0 + 1e-12):
            assert abs(measured_by_test(rho, sigma, alpha).value - at_one) <= 1e-9, (alpha, at_one)


def top_weights(rho, sigma, phi):
    """(p_r, q_r) for r = 1 ... d-1: weights of the top-r eigenvectors of cos(phi) rho - sin(phi) sigma."""
    u = np.linalg.eigh(math.cos(phi) * rho - math.sin(phi) * sigma)[1][:, ::-1]
    p = np.cumsum(np.real(np.einsum("ji,jk,ki->i", u.conj(), rho, u)))[:-1]
    q = np.cumsum(np.real(np.einsum("ji,jk,ki->i", u.conj(), sigma, u)))[:-1]
    return p, q


def test_top_projection_weights_move_along_the_boundary_direction(rng):
    """cos(phi) dp/dphi = sin(phi) dq/dphi with dq/dphi <= 0, for every rank, by central differences.

    Tr A dP = 0 for a spectral projector P of A(phi) = cos(phi) rho -
    sin(phi) sigma, and the test search's slope rests on it: dD/dphi is
    dq/dphi / cos(phi) times sin(phi) dD/dp + cos(phi) dD/dq, which
    measured._binary_rates at (dp, dq) = (sin(phi), cos(phi)) gives times
    S = sum p^alpha q^(1-alpha) (times 1 at alpha = 1).
    """
    h = 1e-6
    for d in (2, 3, 4):
        for _ in range(4):
            rho, sigma = rand_density(rng, d).entries, rand_density(rng, d).entries
            for phi in (0.1, 0.5, 0.9, 1.3):
                (p_lo, q_lo), (p_hi, q_hi) = (top_weights(rho, sigma, phi + s) for s in (-h, h))
                dp, dq = (p_hi - p_lo) / (2 * h), (q_hi - q_lo) / (2 * h)
                np.testing.assert_allclose(
                    math.cos(phi) * dp, math.sin(phi) * dq, rtol=1e-6, atol=1e-8
                )
                assert np.all(dq <= 1e-8)
                for alpha in (0.3, 1.0, 2.0):
                    (p, q), f = top_weights(rho, sigma, phi), []
                    for s in (-h, h):
                        ps, qs = top_weights(rho, sigma, phi + s)
                        f.append(measured._binary_values(
                            np.stack([ps, 1.0 - ps]), np.stack([qs, 1.0 - qs]), alpha))
                    df = (f[1] - f[0]) / (2 * h)
                    g = measured._binary_rates(
                        np.stack([p, 1.0 - p]), np.stack([q, 1.0 - q]),
                        alpha, math.sin(phi), math.cos(phi),
                    )
                    terms = np.stack([p, 1.0 - p]) ** alpha * np.stack([q, 1.0 - q]) ** (1 - alpha)
                    scale = 1.0 if alpha == 1.0 else np.sum(terms, axis=0)
                    np.testing.assert_allclose(
                        df, dq / math.cos(phi) * g / scale, rtol=1e-5, atol=1e-8
                    )


def cut_sigma_weights(sigma):
    """q(u) = sum_j w_j |<v_j|u>|^2 over sigma's eigenvalues above SUPPORT_RTOL times the largest."""
    w, v = np.linalg.eigh(sigma)
    w = np.where(w > opcore.SUPPORT_RTOL * w[-1], w, 0.0)
    return lambda u: np.einsum("j,aji->ai", w, np.abs(v.conj().T @ u) ** 2)


def scan_test_weights(rho, sigma, points=20001):
    """Weights (p, q) of the top-r tests of cos(phi) rho - sin(phi) sigma on a dense grid.

    Traces against rho and against sigma with its support cut, the
    convention of the measured certificates; outcomes on axis 0, then
    (angle, rank).
    """
    phis = np.linspace(0.0, 0.5 * math.pi, points)
    m = np.cos(phis)[:, None, None] * rho - np.sin(phis)[:, None, None] * sigma
    u = np.linalg.eigh(m)[1][:, :, ::-1]
    q_of = cut_sigma_weights(sigma)
    p = np.cumsum(np.real(np.einsum("aji,jk,aki->ai", u.conj(), rho, u)), axis=1)[:, :-1]
    q = np.cumsum(q_of(u), axis=1)[:, :-1]
    p = np.clip(np.stack([p, np.real(np.trace(rho)) - p]), 0.0, None)
    q = np.clip(np.stack([q, np.sum(q_of(np.eye(len(rho))[None])) - q]), 0.0, None)
    return p, q


def test_test_variant_is_at_least_a_dense_angle_scan(rng):
    """Over all ranks, the search beats 20 001 angles in [0, pi/2], sigma rank-deficient included.

    An outcome that should be empty, such as sigma's kernel, carries
    rounding dust in every computed weight, up to ~1e-30 in a
    certificate and different in the scan; below alpha = 1 a dust weight
    w moves the value by up to w^(1-alpha) / (1-alpha), which is allowed
    on the scanned tests with an outcome under 1e-20.
    """
    for d in (2, 3, 4):
        for k in range(4):
            rho = rand_density(rng, d)
            sigma = rand_density(rng, d, rank=d - 1 if k % 2 else None)
            p, q = scan_test_weights(rho.entries, sigma.entries)
            smallest = np.minimum(p.min(axis=0), q.min(axis=0))
            for alpha in TEST_ALPHAS if k % 2 == 0 else (0.3, 0.5, 0.7):
                got = measured_by_test(rho, sigma, alpha).value
                dust = 1e-30 ** (1.0 - alpha) / (1.0 - alpha) if alpha < 1.0 else 0.0
                vals = measured._binary_values(p, q, alpha)
                ref = np.max(vals - np.where(smallest < 1e-20, dust, 0.0))
                assert got >= ref - 1e-12, (d, k, alpha, got, ref)


def test_test_variant_search_costs_few_batched_eigh_rounds(monkeypatch, rng):
    """The grid and each secant round take one batched eigh; generic pairs need at most 12.

    An invertible-sigma qubit takes none: its tests lie on one closed-form
    curve (measured._qubit_tests), which both lower bounds search.  The
    rounds are the batched eigh calls made after the pair record is built,
    whose stacked boundary decomposes rho and sigma in one call.
    """
    rounds, built = [], []
    eigh, checked_pair = np.linalg.eigh, opcore._checked_pair

    def counted(a, *args, **kwargs):
        rounds[-1] += bool(built) and np.ndim(a) == 3
        return eigh(a, *args, **kwargs)

    def record(rho, sigma):
        pair = checked_pair(rho, sigma)
        built.append(pair)
        return pair

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(measured, "_checked_pair", record)
    for d in (3, 4):
        for _ in range(10):
            rho, sigma = rand_density(rng, d).entries, rand_density(rng, d).entries
            for alpha in TEST_ALPHAS:
                rounds.append(0)
                built.clear()
                measured_by_test(rho, sigma, alpha)
    assert min(rounds) >= 1 and max(rounds) <= 12
    rounds.clear()
    for _ in range(10):
        rho, sigma = rand_density(rng, 2).entries, rand_density(rng, 2).entries
        for alpha in (0.1, 0.3, 1.0, 1.5, 3.0, 10.0):
            for fn in (measured_by_test, measured_renyi_lower):
                rounds.append(0)
                built.clear()
                fn(rho, sigma, alpha)
    assert max(rounds) == 0


def test_test_variant_raises_no_runtime_warning(rng):
    """Empty outcomes and rounding cliffs give infinite or NaN slopes, never a warning."""
    pairs = [
        (rand_density(rng, 3), rand_density(rng, 3, rank=2)),
        (rand_density(rng, 3, rank=2), rand_density(rng, 3)),
        (rand_pure(rng, 4), rand_density(rng, 4, rank=3)),
        (HermitianOperator(np.diag([0.5, 0.5, 0.0])), HermitianOperator(np.diag([0.2, 0.3, 0.5]))),
        (HermitianOperator(np.diag([0.7, 0.3, 0.0])), HermitianOperator(np.diag([0.0, 0.4, 0.6]))),
        near_product_pair(),
        gen_pure(1.0, 0.3),
    ]
    # a qubit whose sigma has eigenvalue ratio 1e-9: at alpha = 10 a likelihood ratio's power can reach ~1e90
    u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    pairs.append((rand_density(rng, 2), HermitianOperator((u * [1.0, 1e-9]) @ u.conj().T)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for rho, sigma in pairs:
            for alpha in (0.1, *TEST_ALPHAS, 10.0):
                measured_by_test(rho, sigma, alpha)
    assert [str(w.message) for w in caught if w.filename == measured.__file__] == []


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def test_binary_slope_is_binary_rates_bit_for_bit(rng):
    """The secant's slope in Python floats is numpy's scalar slope to the last bit.

    The weights span twelve decades and include an empty outcome (p = 0,
    whose power below alpha = 1 Python refuses), an outcome sigma misses
    (q = 0) and ratios whose powers overflow at alpha = 10; there, and at and
    near alpha = 1, _binary_slope takes numpy's path.
    """
    weights = [tuple(10.0 ** rng.uniform(-12.0, 0.0, 4)) for _ in range(300)]
    weights += [(0.0, 0.7, 0.4, 0.6), (0.3, 0.7, 0.0, 0.6), (0.0, 1.0, 0.0, 1.0), (1.0, 0.5, 1e-40, 0.5)]
    for p0, p1, q0, q1 in weights:
        dp, dq = rng.standard_normal(2)
        for alpha in (0.3, 0.7, 1.0, 1.0 - 5e-4, 1.0 + 5e-4, 1.5, 2.0, 5.0, 10.0):
            args = (p0, p1), (q0, q1), alpha, float(dp), float(dq)
            want, got = float(measured._binary_rates(*args)), measured._binary_slope(*args)
            assert bits(got) == bits(want) or math.isnan(got) and math.isnan(want), (args, got, want)


def test_qubit_search_keeps_every_bit_of_the_numpy_slope(monkeypatch, rng):
    """Both qubit bounds return the values, flags and factors of the search on numpy's scalar slope."""
    pairs = [(rand_density(rng, 2).entries, rand_density(rng, 2).entries) for _ in range(30)]

    def results():
        return [
            (bits(res.value), res.converged, [f.tobytes() for f in res.povm.factors])
            for rho, sigma in pairs
            for alpha in (0.3, 0.7, 1.5, 2.0, 5.0)
            for res in (measured_renyi_lower(rho, sigma, alpha), measured_by_test(rho, sigma, alpha))
        ]

    fast = results()
    monkeypatch.setattr(measured, "_binary_slope", lambda *args: float(measured._binary_rates(*args)))
    assert results() == fast
