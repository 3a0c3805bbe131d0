"""Channels: Choi calculus, CP order, whitelists, extended optimization."""

import math

import numpy as np
import pytest

from qrd.channels import (
    Channel,
    apply_extended,
    channel_divergence,
    channel_dmax,
    channel_dmax_bisection,
    classical_channel,
    classical_channel_divergence_grid,
    cp_order_check,
    depolarizing_channel,
    identity_channel,
    kind_whitelisted,
)
from qrd.divergences import DivergenceParams, d_alpha_z
from qrd.errors import (
    BadAlphaError,
    BadParamsError,
    KindNotWhitelistedError,
    MalformedInputError,
    ZeroOperatorError,
)
from qrd.measured import measured_renyi_lower
from qrd.opcore import HermitianOperator
from qrd.verify import rand_channel, rand_density


def test_identity_channel_fixes_states(rng):
    ch = identity_channel(3)
    rho = rand_density(rng, 3)
    np.testing.assert_allclose(ch.apply(rho).entries, rho.entries, atol=1e-12)


def test_trace_preservation_flag(rng):
    ch = rand_channel(rng, 2, 2, kraus_n=3)
    assert ch.trace_preserving
    broken = Channel(tuple(0.9 * k for k in ch.kraus))
    assert not broken.trace_preserving


def test_choi_round_trip(rng):
    ch = rand_channel(rng, 2, 3, kraus_n=2)
    back = Channel.from_choi(ch.choi, 2, 3)
    rho = rand_density(rng, 2)
    np.testing.assert_allclose(
        back.apply(rho).entries, ch.apply(rho).entries, atol=1e-9
    )


@pytest.mark.parametrize(
    "kraus", [[np.ones(3)], [np.eye(2), np.ones((2, 2, 2))], [np.array([[1.0, np.nan], [0.0, 1.0]])]]
)
def test_channel_rejects_malformed_kraus(kraus):
    with pytest.raises(MalformedInputError):
        Channel(kraus)


def test_from_choi_rejects_negative(rng):
    with pytest.raises(MalformedInputError):
        Channel.from_choi(np.diag([1.0, -0.2, 0.5, 0.7]).astype(complex), 2, 2)


def test_depolarizing_mixes_toward_identity():
    ch = depolarizing_channel(1.0)
    rho = HermitianOperator(np.diag([1.0, 0.0]))
    np.testing.assert_allclose(ch.apply(rho).entries, 0.5 * np.eye(2), atol=1e-12)


def test_apply_extended_choi_identity(rng):
    # feeding the maximally entangled state reproduces the Choi matrix
    # up to the 1/d input normalization
    ch = rand_channel(rng, 2, 2, kraus_n=2)
    d = 2
    phi = np.zeros((d * d, d * d), dtype=complex)
    v = np.eye(d).reshape(-1) / math.sqrt(d)
    phi = np.outer(v, v.conj())
    out = apply_extended(ch, HermitianOperator(phi))
    np.testing.assert_allclose(out.entries, ch.choi.entries / d, atol=1e-10)


def test_classical_channel_requires_stochastic():
    classical_channel(np.array([[0.8, 0.3], [0.2, 0.7]]))
    with pytest.raises(MalformedInputError):
        classical_channel(np.array([[0.8, 0.3], [0.1, 0.7]]))


def test_cp_order_threshold():
    n1 = identity_channel(2)
    n2 = depolarizing_channel(0.2)
    lam_star = math.exp(channel_dmax(n1, n2))
    assert not cp_order_check(n1, n2, lam_star - 1e-3)
    assert cp_order_check(n1, n2, lam_star + 2e-3)


def test_channel_dmax_matches_bisection(rng):
    n1 = rand_channel(rng, 2, 2, kraus_n=2)
    n2 = rand_channel(rng, 2, 2, kraus_n=4)
    exact = channel_dmax(n1, n2)
    approx = channel_dmax_bisection(n1, n2)
    assert exact == pytest.approx(approx, abs=1e-6)


@pytest.mark.parametrize(
    "kind,alpha,z,expect",
    [
        ("daz", 2.0, 1.5, True),
        ("daz", 3.0, 1.0, False),
        ("daz", 0.7, 0.8, True),
        ("daz", 0.7, 0.5, False),
        ("sandwiched", 0.6, None, True),
        ("sandwiched", 0.4, None, False),
        ("petz", 2.0, None, True),
        ("petz", 2.5, None, False),
        ("umegaki", None, None, True),
        ("dmax", None, None, True),
        ("measured", 5.0, None, True),
    ],
)
def test_kind_whitelist(kind, alpha, z, expect):
    assert kind_whitelisted(kind, alpha, z) is expect


def test_channel_divergence_refuses_off_whitelist():
    n1 = identity_channel(2)
    n2 = depolarizing_channel(0.2)
    with pytest.raises(KindNotWhitelistedError):
        channel_divergence(n1, n2, "sandwiched", alpha=0.4, seed=0)


def test_channel_self_divergence_zero(rng):
    ch = rand_channel(rng, 2, 2, kraus_n=3)
    res = channel_divergence(ch, ch, "sandwiched", alpha=1.5, restarts=2, seed=0)
    assert abs(res.value) <= 1e-9


def test_classical_grid_rejects_invalid_input():
    """Checked up front: the batched kernel would score a zero joint column as NaN."""
    t = np.array([[0.55, 0.45], [0.45, 0.55]])
    for bad in ([[0.8, 0.0], [0.2, 0.0]], [[0.8, -0.1], [0.2, 1.1]]):
        with pytest.raises(BadParamsError):
            classical_channel_divergence_grid(np.array(bad), t, 1.5)
    with pytest.raises(BadAlphaError):
        classical_channel_divergence_grid(t, t, 0.0)


def test_classical_channel_optimum_matches_grid():
    t1 = np.array([[0.8, 0.3], [0.2, 0.7]])
    t2 = np.array([[0.55, 0.45], [0.45, 0.55]])
    oracle, _ = classical_channel_divergence_grid(t1, t2, 1.5)
    res = channel_divergence(
        classical_channel(t1), classical_channel(t2), "sandwiched",
        alpha=1.5, restarts=4, seed=7, iters=40,
    )
    assert res.value == pytest.approx(oracle, abs=1e-3)


def test_curve_below_channel_dmax(rng):
    n1 = rand_channel(rng, 2, 2, kraus_n=2)
    n2 = rand_channel(rng, 2, 2, kraus_n=4)
    cap = channel_dmax(n1, n2)
    res = channel_divergence(n1, n2, "petz", alpha=1.8, restarts=3, seed=9)
    if math.isinf(cap):
        return
    assert res.value <= cap + 1e-6


def test_measured_channel_divergence_below_channel_dmax():
    n1 = identity_channel(2)
    n2 = depolarizing_channel(0.2)
    res = channel_divergence(n1, n2, "measured", alpha=1.5, restarts=1, seed=0, iters=5)
    assert math.isfinite(res.value)
    assert res.value <= channel_dmax(n1, n2) + 1e-9


@pytest.mark.parametrize(
    "kind,alpha,z",
    [
        ("sandwiched", 1.5, None),
        ("petz", 0.7, None),
        ("daz", 0.7, math.inf),
        ("measured", 1.5, None),
        ("measured", 0.7, None),
    ],
)
def test_channel_value_is_the_library_value_at_its_argmax(rng, kind, alpha, z):
    """The reported value is the ascent's; the library agrees on the returned input."""
    n1, n2 = rand_channel(rng, 2, 2, kraus_n=2), rand_channel(rng, 2, 2, kraus_n=4)
    res = channel_divergence(n1, n2, kind, alpha=alpha, z=z, restarts=3, seed=2, iters=15)
    z = {"sandwiched": alpha, "petz": 1.0}.get(kind, z)
    state = HermitianOperator(np.outer(res.argmax_state, res.argmax_state.conj()))
    rho, sigma = apply_extended(n1, state), apply_extended(n2, state)
    if kind == "measured":
        lib = measured_renyi_lower(rho, sigma, alpha).value
    else:
        lib = d_alpha_z(rho, sigma, DivergenceParams(alpha, z)).d_value
    assert res.value == pytest.approx(lib, rel=0.0, abs=1e-12)



def test_channel_divergence_skips_inputs_with_a_zero_output():
    """|11> has a zero output under the first channel; the other starts still count."""
    n1, n2 = Channel([np.diag([1.0, 0.0])]), depolarizing_channel(0.2)
    for a, b in ((n1, n2), (n2, n1)):
        res = channel_divergence(a, b, "petz", alpha=0.7, restarts=3, seed=0)
        assert not math.isnan(res.value)
    with pytest.raises(ZeroOperatorError):
        channel_divergence(Channel([np.zeros((2, 2))]), n2, "petz", alpha=0.7, restarts=3)
