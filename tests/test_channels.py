"""Channels: Choi calculus, CP order, whitelists, extended optimization."""

import math

import numpy as np
import pytest

from qrd.channels import (
    GAP_RTOL,
    Channel,
    _input_objective,
    _seed_states,
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
    DimMismatchError,
    KindNotWhitelistedError,
    MalformedInputError,
    ZeroOperatorError,
)
from qrd.measured import measured_renyi_lower
from qrd.opcore import HermitianOperator, stiefel_ascent
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


def test_trace_preservation_flag_is_computed_once(monkeypatch, rng):
    """The flag is cached like choi and kraus_gram: a second read takes no 2-norm."""
    calls = []
    norm = np.linalg.norm

    def counted(*args, **kwargs):
        calls.append(args)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    for ch in (rand_channel(rng, 2, 2, kraus_n=3), depolarizing_channel(0.2)):
        for c, want in ((ch, True), (Channel(tuple(0.9 * k for k in ch.kraus)), False)):
            calls.clear()
            assert c.trace_preserving is want
            assert len(calls) == 1
            assert c.trace_preserving is want
            assert len(calls) == 1


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
    # a random pair, and the identity channel halved against it: D_max = log 1/2 < 0
    for n1, n2 in (
        (rand_channel(rng, 2, 2, kraus_n=2), rand_channel(rng, 2, 2, kraus_n=4)),
        (Channel([math.sqrt(0.5) * np.eye(2)]), identity_channel(2)),
    ):
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


def test_channel_divergence_dmax_is_exact_and_checks_its_inputs(rng):
    n1, n2 = rand_channel(rng, 2, 2, kraus_n=2), rand_channel(rng, 2, 2, kraus_n=4)
    res = channel_divergence(n1, n2, "dmax")
    assert res.value == res.upper == channel_dmax(n1, n2)
    assert (res.restarts_used, res.converged) == (0, True)
    with pytest.raises(DimMismatchError):
        channel_divergence(n1, rand_channel(rng, 3, 3), "dmax")
    with pytest.raises(KindNotWhitelistedError):
        channel_divergence(n1, n2, "bogus", alpha=1.5)


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


#: the kinds whose output divergence is concave in the input's reduced state
BRACKETED = [("umegaki", None), ("sandwiched", 1.1), ("sandwiched", 1.5), ("sandwiched", 2.0),
             ("sandwiched", 3.0)]


def channel_pair(rng, d):
    """n1 of Kraus rank 1 to 4 against n2 = (1 - t) n1 + t n3, n3 another: finite values."""
    n1, n3 = (rand_channel(rng, d, d, kraus_n=int(rng.integers(1, 5))) for _ in range(2))
    t = rng.uniform(0.2, 0.8)
    kraus = [math.sqrt(1.0 - t) * k for k in n1.kraus] + [math.sqrt(t) * k for k in n3.kraus]
    return n1, Channel(kraus)


def ascent_from_every_start(n1, n2, kind, alpha, restarts, seed):
    """The best value of the input ascent run from all of channel_divergence's starts."""
    value_grad = _input_objective(n1, n2, kind, alpha, None, seed)
    starts = _seed_states(n1.d_in, restarts, np.random.default_rng([seed, 0x6368]))
    return max(stiefel_ascent(value_grad, psi.reshape(-1, 1), 60)[1] for psi in starts)


def pure_input_values(n1, n2, kind, alpha, rng, n):
    """The output divergence at n random unit inputs."""
    value_grad = _input_objective(n1, n2, kind, alpha, None, 0)
    d = n1.d_in
    vecs = rng.standard_normal((n, d * d)) + 1j * rng.standard_normal((n, d * d))
    return [value_grad(v / np.linalg.norm(v))[0] for v in vecs]


@pytest.mark.parametrize("kind,alpha", BRACKETED)
def test_bracket_upper_bounds_every_input(kind, alpha):
    """upper is at least the value of random inputs, of a 32-start search and the reported value.

    20 random channel pairs at d = 2 and 3 (channel_pair).  The
    1e-12 slack is rounding: two computed values of one supremum.  Where
    the gap closed early the value is within GAP_RTOL of the full search.
    """
    rng = np.random.default_rng(25)
    for trial in range(20):
        d = 2 + trial % 2
        n1, n2 = channel_pair(rng, d)
        res = channel_divergence(n1, n2, kind, alpha=alpha, seed=trial)
        tol = 1e-12 * max(1.0, abs(res.value))
        full = ascent_from_every_start(n1, n2, kind, alpha, 32, trial + 100)
        probes = pure_input_values(n1, n2, kind, alpha, rng, 200)
        assert res.upper >= max(res.value, full, *probes) - tol, (trial, res.upper, full)
        if res.restarts_used < max(32, d + 1):
            assert res.value >= full - GAP_RTOL * max(1.0, abs(full)), (trial, res.value, full)


@pytest.mark.parametrize("kind,alpha", BRACKETED)
def test_bracketed_kinds_are_concave_at_midpoints(kind, alpha):
    """f((rho + rho') / 2) >= (f(rho) + f(rho')) / 2 for the reduced input states of random inputs."""
    rng = np.random.default_rng(26)
    for trial in range(40):
        d = 2 + trial % 2
        n1, n2 = channel_pair(rng, d)
        value_grad = _input_objective(n1, n2, kind, alpha, None, 0)

        def f(rho):
            w, v = np.linalg.eigh(rho)
            return value_grad((np.sqrt(np.maximum(w, 0.0))[:, None] * v.conj().T).reshape(-1))[0]

        a, b = rand_density(rng, d).entries, rand_density(rng, d).entries
        ends = 0.5 * (f(a) + f(b))
        assert f(0.5 * (a + b)) >= ends - 1e-12 * max(1.0, abs(ends)), trial


def test_closed_gap_stops_the_search_for_bracketed_kinds_only():
    """Identity vs depolarizing: one start where the bracket closes, every start elsewhere."""
    n1, n2 = identity_channel(2), depolarizing_channel(0.2)
    bracketed = [(k, a, None) for k, a in BRACKETED] + [("daz", 1.5, 1.5), ("petz", 1.0, None)]
    for kind, alpha, z in bracketed:
        res = channel_divergence(n1, n2, kind, alpha=alpha, z=z, restarts=6, seed=0)
        assert res.restarts_used == 1, (kind, alpha)
        assert res.upper - res.value <= GAP_RTOL * max(1.0, abs(res.value)), (kind, alpha)
    for kind, alpha, z in [("petz", 1.5, None), ("petz", 0.7, None), ("daz", 1.5, 1.2),
                           ("daz", 0.7, math.inf), ("sandwiched", 0.7, None)]:
        for restarts in (2, 6):
            res = channel_divergence(n1, n2, kind, alpha=alpha, z=z, restarts=restarts, seed=0)
            assert res.restarts_used == max(restarts, 3) and res.upper == math.inf, (kind, alpha)
    # the theorem is for trace-preserving maps: a lossy first map gets no bracket
    lossy = Channel([0.9 * np.eye(2)])
    res = channel_divergence(lossy, n2, "umegaki", restarts=6, seed=0)
    assert res.restarts_used == 6 and res.upper == math.inf


def test_search_reaching_infinity_counts_only_the_starts_run():
    """Identity against the reset channel: the first start's outputs already leak out of support."""
    reset = Channel([np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])])
    res = channel_divergence(identity_channel(2), reset, "sandwiched", alpha=1.5, restarts=6, seed=0)
    assert (res.value, res.upper, res.restarts_used) == (math.inf, math.inf, 1)


def test_sandwiched_channel_divergence_falls_to_umegaki_on_amplitude_damping():
    """The paper's inf over alpha > 1 of D~_alpha is D, on a non-covariant pair.

    Amplitude damping (gamma = 0.3) against depolarizing(0.2): every
    sandwiched bracket lies above Umegaki's, and the sandwiched upper end
    comes within 0.25 (alpha - 1) of Umegaki's lower end (slopes 0.149 to
    0.194 on this grid).
    """
    gamma = 0.3
    damping = Channel([np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]]),
                       np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]])])
    dep = depolarizing_channel(0.2)
    d = channel_divergence(damping, dep, "umegaki", seed=0)
    assert 0.192260773 <= d.value <= d.upper <= 0.192260774, (d.value, d.upper)
    for alpha in (1.01, 1.05, 1.1, 1.2, 1.5, 2.0):
        res = channel_divergence(damping, dep, "sandwiched", alpha=alpha, seed=0)
        assert res.value >= d.upper, alpha
        assert res.upper - d.value <= 0.25 * (alpha - 1.0), alpha
