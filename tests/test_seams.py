"""Branch seams of the finite-z kernel: a value on a seam equals its neighbours'.

_log_q switches route at z = alpha and at z = 1, so D_{alpha,z} is
evaluated on each seam and at seam * (1 +- 1e-12), where the other route
runs; the family is smooth in z, so the three values agree to far below
the 1e-10 relative bound.
"""

import numpy as np
import pytest

from qrd.divergences import DivergenceParams, d_alpha_z
from qrd.opcore import HermitianOperator
from qrd.verify import rand_density, rand_pure

ALPHAS = (0.05, 0.1, 0.3, 0.45, 0.7, 1.5, 3.0, 8.0)

SEAM_RTOL = 1e-10


def ill_conditioned_pair(rng):
    """A random rho against a d = 5 sigma with eigenvalues logspaced from 1 to 1e-10."""
    u = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
    sigma = (u * np.logspace(0, -10, 5)) @ u.conj().T
    return rand_density(rng, 5), HermitianOperator(sigma / np.trace(sigma).real)


def pairs(kind):
    """Two pairs of the class: full rank, rank-deficient rho, pure rho, ill-conditioned sigma."""
    rng = np.random.default_rng(33)
    for d in (3, 4):
        if kind == "full":
            yield rand_density(rng, d), rand_density(rng, d)
        elif kind == "rho_deficient":
            yield rand_density(rng, d, rank=d - 1), rand_density(rng, d)
        elif kind == "pure":
            yield rand_pure(rng, d), rand_density(rng, d)
        else:
            yield ill_conditioned_pair(rng)


@pytest.mark.parametrize("kind", ["full", "rho_deficient", "pure", "ill_conditioned"])
@pytest.mark.parametrize("alpha", ALPHAS)
def test_values_agree_across_each_seam(alpha, kind):
    for rho, sigma in pairs(kind):
        for seam in (alpha, 1.0):
            on = d_alpha_z(rho, sigma, DivergenceParams(alpha, seam)).d_value
            for z in (seam * (1.0 - 1e-12), seam * (1.0 + 1e-12)):
                off = d_alpha_z(rho, sigma, DivergenceParams(alpha, z)).d_value
                assert abs(off - on) <= SEAM_RTOL * abs(on), (seam, z, on, off)
