"""Classical weight vectors, f-divergences, and the two-point trichotomy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrd.classical import (
    WeightVector,
    _renyi,
    classical_fdiv,
    classical_q,
    classical_renyi,
    eta_spec,
    knife_edge_family,
    perspective,
    power_spec,
)
from qrd.errors import BadAlphaError, BadParamsError, DimMismatchError

weights = st.lists(st.floats(0.01, 5.0), min_size=2, max_size=6)


def test_weight_vector_clips_dust_but_rejects_negatives():
    w = WeightVector(np.array([0.5, -1e-14, 0.5]))
    assert w.values[1] == 0.0
    with pytest.raises(BadParamsError):
        WeightVector(np.array([0.5, -0.1]))


def test_length_mismatch():
    with pytest.raises(DimMismatchError):
        classical_renyi(np.array([1.0]), np.array([0.5, 0.5]), 2.0)


def test_renyi_alpha_one_is_kl():
    p = np.array([0.6, 0.4])
    q = np.array([0.3, 0.7])
    kl = 0.6 * math.log(0.6 / 0.3) + 0.4 * math.log(0.4 / 0.7)
    assert classical_renyi(p, q, 1.0) == pytest.approx(kl, rel=1e-12)


def test_renyi_rejects_nonpositive_alpha():
    with pytest.raises(BadAlphaError):
        classical_renyi(np.array([1.0]), np.array([1.0]), 0.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
def test_renyi_zero_on_equal(alpha):
    p = np.array([0.2, 0.3, 0.5])
    assert abs(classical_renyi(p, p, alpha)) <= 1e-12


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
def test_renyi_scaling_p_shifts_by_the_log_of_the_scale(alpha):
    # at 1e-300, p^alpha of the raw weights underflows for alpha > 1
    p, q = np.array([0.2, 0.3, 0.5]), np.array([0.4, 0.4, 0.2])
    scaled = classical_renyi(1e-300 * p, q, alpha)
    assert scaled == pytest.approx(math.log(1e-300) + classical_renyi(p, q, alpha), rel=1e-14)


def test_renyi_on_a_tiny_q_total():
    """q = 1e-300 (0.6, 0.4): q^(1 - alpha) of the raw weights overflows for alpha > 1."""
    got = classical_renyi([0.5, 0.5], 1e-300 * np.array([0.6, 0.4]), 3.0)
    d3 = 0.5 * math.log(0.5**3 / 0.6**2 + 0.5**3 / 0.4**2)
    assert got == pytest.approx(300 * math.log(10) + d3, rel=1e-12)


@pytest.mark.parametrize("gap", [1e-4, 1e-8, 1e-10, 1e-12, 1e-14])
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_renyi_near_one_matches_a_60_digit_reference(rng, gap, side):
    """Exact as alpha -> 1, where log(sum p^a q^(1-a)) / (a - 1) loses ~1e-16 / |a - 1|."""
    import mpmath as mp

    alpha = 1.0 + side * gap
    for n in (2, 3, 4, 6):
        p, q = rng.uniform(0.05, 1.0, n), rng.uniform(0.05, 1.0, n)
        with mp.workdps(60):
            a = mp.mpf(alpha)
            ps, qs = [mp.mpf(x) for x in p], [mp.mpf(x) for x in q]
            power_sum = mp.fsum(x**a * y ** (1 - a) for x, y in zip(ps, qs))
            ref = float(mp.log(power_sum / mp.fsum(ps)) / (a - 1))
        assert abs(float(_renyi(p, q, alpha)) - ref) <= 1e-15, (n, alpha)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5, 3.0])
def test_batched_kernel_is_classical_renyi_per_column(rng, alpha):
    """Bit for bit, with empty entries, leaks (p on q's zeros), disjoint supports and tiny totals.

    Up to seven outcomes numpy sums a column in order in either layout.
    """
    for n in (2, 4, 7):
        p, q = rng.uniform(0.0, 1.0, (n, 5, 3)), rng.uniform(0.0, 1.0, (n, 5, 3))
        p[0, 0], q[1, 1] = 0.0, 0.0  # empty p, a leak
        p[: n // 2, 2], q[n // 2 :, 2] = 0.0, 0.0  # disjoint
        p[0, 3], q[0, 3] = 0.0, 0.0  # an outcome neither reaches
        p[:, 4] *= 1e-300
        q[:, 4, 0] *= 1e-300
        got = _renyi(p, q, alpha)
        for i, j in np.ndindex(5, 3):
            assert got[i, j] == classical_renyi(p[:, i, j], q[:, i, j], alpha), (n, i, j)


def test_disjoint_supports():
    p = np.array([1.0, 0.0])
    q = np.array([0.0, 1.0])
    assert classical_q(p, q, 0.5) == 0.0
    assert classical_renyi(p, q, 0.5) == math.inf
    assert classical_q(p, q, 2.0) == math.inf


def test_partial_support_failure_only_hurts_large_alpha():
    p = np.array([0.5, 0.5])
    q = np.array([1.0, 0.0])
    assert classical_renyi(p, q, 2.0) == math.inf
    assert math.isfinite(classical_renyi(p, q, 0.5))


@given(weights, st.sampled_from([0.3, 0.8, 1.0, 1.5, 2.7]))
@settings(max_examples=60, deadline=None)
def test_renyi_nonnegative_on_normalized(values, alpha):
    p = np.array(values)
    q = np.roll(p, 1)
    p, q = p / p.sum(), q / q.sum()
    assert classical_renyi(p, q, alpha) >= -1e-12


@given(weights, st.sampled_from([0.5, 1.5, 2.0]))
@settings(max_examples=60, deadline=None)
def test_merging_atoms_never_increases_renyi(values, alpha):
    """Summing two outcomes is a stochastic map, so divergence drops."""
    p = np.array(values)
    q = np.roll(p, 1) * 1.3
    p, q = p / p.sum(), q / q.sum()
    before = classical_renyi(p, q, alpha)
    pm = np.concatenate([[p[0] + p[1]], p[2:]])
    qm = np.concatenate([[q[0] + q[1]], q[2:]])
    assert classical_renyi(pm, qm, alpha) <= before + 1e-10


def test_fdiv_matches_q_for_power_function():
    p = np.array([0.6, 0.4])
    q = np.array([0.3, 0.7])
    f = power_spec(2.0)
    assert classical_fdiv(f, p, q) == pytest.approx(classical_q(p, q, 2.0), rel=1e-12)


def test_eta_spec_matches_kl_times_total():
    p = np.array([0.6, 0.4])
    q = np.array([0.3, 0.7])
    assert classical_fdiv(eta_spec(), p, q) == pytest.approx(
        classical_renyi(p, q, 1.0), rel=1e-12
    )


def test_perspective_boundary_conventions():
    f = power_spec(2.0)
    assert perspective(f, 0.0, 1.0) == 0.0
    assert perspective(f, 1.0, 0.0) == math.inf
    assert perspective(f, 0.0, 0.0) == 0.0
    g = power_spec(0.5)
    assert perspective(g, 1.0, 0.0) == 0.0


def test_knife_edge_shapes_and_mass():
    p, q = knife_edge_family(1.0, 1.0, 0.7, 2.0, 1000)
    assert len(p) == 2 and len(q) == 2
    assert p.total == pytest.approx(1.0)


def test_knife_edge_rejects_bad_rate():
    with pytest.raises(BadParamsError):
        knife_edge_family(1.0, 1.0, -0.1, 2.0, 100)
