"""Exact gradients of the manifold ascents against central differences.

Every objective that opcore.stiefel_ascent climbs returns (value,
Euclidean gradient G).  Along a random tangent direction H at X the
directional derivative Re Tr G^dag H must match the central difference
of the value along the curve X + tH, which leaves the manifold only at
second order.
"""

import math

import numpy as np
import pytest

from qrd import channels
from qrd.channels import _input_objective, depolarizing_channel, identity_channel
from qrd.measured import _measured_pair, _povm_objective
from qrd.opcore import _checked_pair, _polar, _tangent, stiefel_ascent
from qrd.verify import rand_channel, rand_density, rand_pure


def assert_gradient_matches(value_grad, x, rng, h, rtol, trials=4):
    value, grad = value_grad(x)
    assert math.isfinite(value)
    for _ in range(trials):
        direction = _tangent(x, rng.normal(size=x.shape) + 1j * rng.normal(size=x.shape))
        direction /= np.linalg.norm(direction)
        exact = float(np.vdot(grad, direction).real)
        fd = (value_grad(x + h * direction)[0] - value_grad(x - h * direction)[0]) / (2 * h)
        assert exact == pytest.approx(fd, rel=rtol, abs=rtol * np.linalg.norm(grad))


def random_input(rng, d):
    return _polar(rng.normal(size=(d * d, 1)) + 1j * rng.normal(size=(d * d, 1)))


CHANNEL_KINDS = [
    ("daz", 2.0, 1.5),
    ("daz", 0.7, 0.8),
    ("daz", 0.7, math.inf),
    ("sandwiched", 1.5, None),
    ("sandwiched", 0.7, None),
    ("petz", 1.5, None),
    ("petz", 0.6, None),
    ("umegaki", None, None),
    # Danskin's gradient at the certificate; below alpha = 1 an outcome
    # that a pure output barely reaches (weight ~1e-20) makes the value
    # non-smooth on the scale of any usable difference step
    ("measured", 1.5, None),
    ("measured", 3.0, None),
]


@pytest.mark.parametrize("kind,alpha,z", CHANNEL_KINDS)
def test_channel_input_gradient(rng, kind, alpha, z):
    pairs = [
        (rand_channel(rng, 2, 2, 2), rand_channel(rng, 2, 2, 4)),
        (identity_channel(2), depolarizing_channel(0.2)),
    ]
    # the measured value is an L-BFGS optimum, resolved to about 1e-10
    h, rtol = (1e-4, 1e-4) if kind == "measured" else (1e-5, 1e-6)
    for n1, n2 in pairs:
        value_grad = _input_objective(n1, n2, kind, alpha, z, seed=0)
        assert_gradient_matches(value_grad, random_input(rng, 2), rng, h, rtol)


@pytest.mark.parametrize(
    "kind,alpha,z",
    [
        pytest.param("petz", 0.999, None, id="petz-0.999"),
        pytest.param("umegaki", None, None, id="umegaki-None"),
        pytest.param("daz", 0.7, math.inf, id="daz-0.7-inf"),
    ],
)
def test_channel_gradient_where_an_output_loses_rank(rng, kind, alpha, z):
    """Identity-channel outputs are pure: rho loses rank for every input.

    The divergence is not differentiable across rank changes, but every
    input keeps rho rank one, so along the sphere the value is smooth and
    the cutoff-convention gradient (zero on rho's kernel) is exact.
    Petz at alpha = 0.999 divides by alpha - 1, so its difference quotient
    carries 1e3 times the rounding of the value.  At z = inf the meet of
    the supports is rho's, and it moves with rho.
    """
    n1, n2 = identity_channel(2), depolarizing_channel(0.2)
    value_grad = _input_objective(n1, n2, kind, alpha, z, seed=0)
    for _ in range(3):
        assert_gradient_matches(value_grad, random_input(rng, 2), rng, h=1e-4, rtol=1e-5)


@pytest.mark.parametrize("alpha", [0.3, 0.45])
@pytest.mark.parametrize("d", [2, 3])
def test_povm_objective_gradient(rng, d, alpha):
    for rho in (rand_density(rng, d), rand_pure(rng, d)):
        pair, _ = _measured_pair(_checked_pair(rho, rand_density(rng, d)), alpha)
        value_grad = _povm_objective(pair, alpha)
        v = _polar(rng.normal(size=(d * d, d)) + 1j * rng.normal(size=(d * d, d)))
        assert_gradient_matches(value_grad, v, rng, h=1e-6, rtol=1e-6)


def test_stiefel_ascent_finds_the_top_eigenspace(rng):
    """max Re Tr X^dag A X over isometries X in C^(n x m) is the sum of A's top m eigenvalues."""
    n, m = 6, 2
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = g + g.conj().T
    x, value, converged = stiefel_ascent(
        lambda x: (float(np.trace(x.conj().T @ a @ x).real), 2.0 * a @ x),
        rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)),
        iters=500,
    )
    assert converged
    np.testing.assert_allclose(x.conj().T @ x, np.eye(m), atol=1e-12)
    assert value == pytest.approx(np.sum(np.linalg.eigvalsh(a)[-m:]), abs=1e-9)


def test_ascent_stops_where_a_step_cannot_beat_rounding(monkeypatch):
    """Halving until the Armijo test meets the value's rounding costs evaluations.

    On this Kraus-rank 2 vs 4 qubit pair an ascent without the rounding
    stop made 644 objective evaluations.
    """
    calls = []

    def counted(value_grad, x0, iters):
        def counting(x):
            calls.append(x)
            return value_grad(x)

        return stiefel_ascent(counting, x0, iters)

    monkeypatch.setattr(channels, "stiefel_ascent", counted)
    rng = np.random.default_rng(4)
    n1, n2 = rand_channel(rng, 2, 2, kraus_n=2), rand_channel(rng, 2, 2, kraus_n=4)
    res = channels.channel_divergence(n1, n2, "umegaki", restarts=4, seed=1, iters=30)
    assert res.converged
    assert len(calls) <= 100

