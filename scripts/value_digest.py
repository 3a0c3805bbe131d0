#!/usr/bin/env python3
"""Print one repr line per public evaluation over a fixed, seeded input set.

The inputs are random pairs at d = 2, 3, 4 and 8 (full rank, sigma
rank-deficient, rho rank-deficient, pure rho), a pair whose leak out of
supp sigma sits just below and just above the support-test slack, the
near-product pair, a qubit pair whose sigma has an eigenvalue of 1e-8 and
a qutrit pair of orthogonal supports under a random unitary (each drawn
from its own generator, so the other pairs keep their draws), and a
qutrit pair whose supports overlap by 5e-9, pure rho = |0><0|; the
evaluations cover the divergence layer, D-hat and Petz (z = 1) at alpha =
1 -+ 1e-4, 1e-8 and 1e-12, where log Q / (alpha - 1) cancels, the
variational objective at
its own maximizer beside Q (pairs whose rho lies in supp sigma), the z -> 0 profile (the
eigenvalue blocks of both spectra, equality-case gaps, both genericity
conditions and the extrapolation oracle at two alphas), the maximal
divergence's reverse tests (the spectral test's weights, and maximal_divergence_upper's value,
exactness and column count), the measured and test-measured lower bounds at d <= 4 and channel
divergences on three random channel pairs (sandwiched, Umegaki or
measured, Petz, and the (alpha, z) family at z = inf and at a finite z),
each with its bracket's upper end and gap (+inf where it has none).
Every record of every verify suite at 2 trials follows, as its
(digest, ok, detail).  The qubit measured layer comes last: both lower
bounds, on arrays at default arguments, over a seeded set of 240 qubit
pairs (rho full, pure, near-pure or of trace 1e-3 against a random sigma
or one with an eigenvalue from 1e-6 to 1e-10) at ten alphas from 0.05 to
10, then per function, class and alpha the count of values below rho's
eigenbasis measurement.  Errors print as their type and message.  Two
checkouts compute the same values exactly when

    PYTHONPATH=src python3 scripts/value_digest.py > new.txt

and the same command run from the other checkout print identical files.
Arrays print as the SHA-256 of their bytes.
"""

import hashlib
import math

import numpy as np

from qrd import measured, opcore
from qrd.channels import (
    apply_extended,
    channel_divergence,
    depolarizing_channel,
    identity_channel,
)
from qrd.divergences import (
    DivergenceParams,
    alt_chain,
    d_alpha_z,
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
from qrd.measured import apply_povm, measured_renyi_lower, test_measured
from qrd.opcore import HermitianOperator, pinch_exp
from qrd.reversetests import maximal_divergence_upper, spectral_reverse_test
from qrd.verify import SUITES, rand_channel, rand_density, rand_pure, run_suite
from qrd.zlimits import (
    equality_case_check,
    genericity_condition_b,
    genericity_condition_b_prime,
    spectral_profile,
    zero_z_divergence,
    zero_z_oracle,
)

ALPHAS = (0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0)
ORACLE_ALPHAS = (0.6, 1.7)
MEASURED_ALPHAS = (0.3, 0.5, 0.7, 1.0, 1.5, 3.0)
MAXIMAL_ALPHAS = (0.5, 1.5, 2.0, 3.0, 5.0)
EPS_GRID = (1e-2, 1e-4, 1e-6, 1e-8)
VARIATIONAL_PARAMS = ((1.5, 1.5), (1.5, 1.0), (1.5, 0.2), (1.2, 0.05))
NEAR_ONE_STEPS = (1e-4, 1e-8, 1e-12)
SEED = 20261018
QUBIT_ALPHAS = (0.05, 0.2, 0.4, 0.6, 0.9, 1.0, 1.5, 2.0, 4.0, 10.0)
#: pairs per (rho kind, sigma kind) class of the qubit set, and their generator's seed
QUBIT_PAIRS = 30
QUBIT_SEED = 20261019


def digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def emit(label: str, fn) -> None:
    try:
        out = fn()
    except Exception as exc:  # the error is part of the digest
        out = f"{type(exc).__name__}: {exc}"
    print(f"{label}: {out}")


def zero_z_pair(rho, sigma, alpha: float):
    """zero_z_divergence's (value, used_fallback), the fields every version carries."""
    res = zero_z_divergence(rho, sigma, alpha)
    return res.value, res.used_fallback


def slack_pair(t: float):
    """d = 3, sigma of rank 2, rho = (1 - t) rho0 + t |k><k| with k spanning ker sigma."""
    sigma = np.diag([0.5, 0.5, 0.0]).astype(complex)
    u = np.linalg.qr(np.array([[1, 1, 1], [1, -1, 2], [0, 1, -1]], dtype=complex))[0]
    sigma = u @ sigma @ u.conj().T
    k = u[:, 2:3]
    v = u[:, :2] @ np.array([[0.8], [0.6j]])
    rho0 = 0.7 * (v @ v.conj().T) + 0.3 * (u[:, :1] @ u[:, :1].conj().T)
    return HermitianOperator((1 - t) * rho0 + t * (k @ k.conj().T)), HermitianOperator(sigma)


def near_product_pair():
    psi = np.array([1.0, 0.0, 0.0, 1e-6], dtype=complex)
    psi /= np.linalg.norm(psi)
    state = HermitianOperator(np.outer(psi, psi.conj()))
    rho = apply_extended(identity_channel(2), state)
    return rho, apply_extended(depolarizing_channel(0.2), state)


def pairs():
    rng = np.random.default_rng(SEED)
    out = []
    for d in (2, 3, 4, 8):
        out.append((f"full{d}", rand_density(rng, d), rand_density(rng, d)))
        out.append((f"sigdef{d}", rand_density(rng, d), rand_density(rng, d, rank=d - 1)))
        out.append((f"rhodef{d}", rand_density(rng, d, rank=d - 1), rand_density(rng, d)))
        out.append((f"pure{d}", rand_pure(rng, d), rand_density(rng, d, floor=0.05)))
    for t in (1e-10, 2e-8, 0.5):
        out.append((f"slack{t:g}", *slack_pair(t)))
    out.append(("nearproduct", *near_product_pair()))
    rng = np.random.default_rng([SEED, 2])
    u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    sigma = HermitianOperator((u * [1e-8, 1.0 - 1e-8]) @ u.conj().T)
    out.append(("illcond2", rand_density(rng, 2), sigma))
    rng = np.random.default_rng([SEED, 3])
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    rho = HermitianOperator((u[:, :2] * [0.7, 0.3]) @ u[:, :2].conj().T)
    out.append(("orth3", rho, HermitianOperator(u[:, 2:] @ u[:, 2:].conj().T)))
    phi = np.array([[5e-9], [math.sqrt(1.0 - 2.5e-17)], [0.0]])
    sigma = HermitianOperator(0.6 * (phi @ phi.T))
    out.append(("band3", HermitianOperator(np.diag([1.0, 0.0, 0.0])), sigma))
    return out


def divergence_layer(name, rho, sigma) -> None:
    emit(f"{name} umegaki", lambda: umegaki(rho, sigma))
    emit(f"{name} d_max", lambda: d_max(rho, sigma))
    emit(f"{name} ns", lambda: tuple(digest(w.values) for w in nussbaum_szkola(rho, sigma)))
    for alpha in ALPHAS:
        for z in (0.5, 1.0, alpha, math.inf, 0.0):
            if alpha == 1.0 and z == 0.0:
                continue
            params = DivergenceParams(alpha, z)
            emit(f"{name} daz a={alpha} z={z}", lambda: d_alpha_z(rho, sigma, params))
            if 0.0 < z < math.inf:
                emit(f"{name} q a={alpha} z={z}", lambda: q_alpha_z(rho, sigma, params))
        emit(f"{name} pinch a={alpha}", lambda: pinch_exp(rho, sigma, alpha))
        emit(f"{name} alt a={alpha}", lambda: alt_chain(rho, sigma, alpha, 0.7, 1.4))
        emit(
            f"{name} dom a={alpha}",
            lambda: dmax_domination_check(rho, sigma, DivergenceParams(alpha, 1.0)),
        )
        if alpha != 1.0:
            emit(f"{name} dhat a={alpha}", lambda: d_hat_alpha(rho, sigma, alpha))
            emit(f"{name} zero a={alpha}", lambda: zero_z_pair(rho, sigma, alpha))
    emit(
        f"{name} smooth",
        lambda: epsilon_smoothing_curve(rho, sigma, DivergenceParams(1.5, 1.5), EPS_GRID),
    )


def near_one_layer(name, rho, sigma) -> None:
    """D-hat and Petz's D at alpha = 1 - h and 1 + h."""
    for h in NEAR_ONE_STEPS:
        for sign, alpha in (("-", 1.0 - h), ("+", 1.0 + h)):
            emit(f"{name} near1 dhat a=1{sign}{h:g}", lambda: d_hat_alpha(rho, sigma, alpha))
            petz = DivergenceParams(alpha, 1.0)
            emit(f"{name} near1 petz a=1{sign}{h:g}", lambda: d_alpha_z(rho, sigma, petz).d_value)


def variational_layer(name, rho, sigma) -> None:
    """The objective at its maximizer H* beside Q, on pairs whose rho lies in supp sigma."""
    if math.isinf(d_max(rho, sigma)):
        return
    for alpha, z in VARIATIONAL_PARAMS:
        params = DivergenceParams(alpha, z)

        def at_maximizer():
            h_star = variational_optimizer_H(rho, sigma, params)
            return variational_objective(rho, sigma, params, h_star), q_alpha_z(rho, sigma, params)

        emit(f"{name} variational a={alpha} z={z}", at_maximizer)


def blocks(rho, sigma):
    """The equal-eigenvalue blocks of rho's and sigma's spectra, as bounds."""
    profile = spectral_profile(rho, sigma)
    return profile.i_bounds, profile.j_bounds


def zlimit_layer(name, rho, sigma) -> None:
    emit(f"{name} blocks", lambda: blocks(rho, sigma))
    for direction in ("below", "above"):
        emit(f"{name} equality {direction}", lambda: equality_case_check(rho, sigma, direction))
    emit(f"{name} gen_b", lambda: genericity_condition_b(spectral_profile(rho, sigma)))
    emit(f"{name} gen_b'", lambda: genericity_condition_b_prime(spectral_profile(rho, sigma)))
    for alpha in ORACLE_ALPHAS:
        emit(f"{name} oracle a={alpha}", lambda: zero_z_oracle(rho, sigma, alpha))


def reverse_layer(name, rho, sigma) -> None:
    def weights():
        rt = spectral_reverse_test(rho, sigma)
        return digest(rt.p.values), digest(rt.q.values)

    def maximal(alpha):
        res = maximal_divergence_upper(rho, sigma, alpha)
        return res.value, res.exact, res.rt.n_columns

    emit(f"{name} spectral_rt", weights)
    for alpha in MAXIMAL_ALPHAS:
        emit(f"{name} maximal a={alpha}", lambda: maximal(alpha))


def show(res):
    """A measured result as (value, restarts_used, converged, hash of the POVM factors)."""
    factors = "" if res.povm.factors is None else digest(np.hstack(res.povm.factors))
    return (res.value, res.restarts_used, res.converged, factors)


def measured_layer(name, rho, sigma) -> None:
    for alpha in MEASURED_ALPHAS:
        emit(
            f"{name} measured a={alpha}",
            lambda: show(measured_renyi_lower(rho, sigma, alpha, restarts=3, seed=5, iters=30)),
        )
        emit(f"{name} test a={alpha}", lambda: show(test_measured(rho, sigma, alpha)))


def channel_layer() -> None:
    rng = np.random.default_rng(7)
    jobs = (("sandwiched", 1.5), ("umegaki", None), ("measured", 1.5))
    # Kraus ranks (n1, n2): rank-2 outputs leak out of each other's support
    # for the first pair; n2's full-rank Choi matrix keeps the others finite
    for (kind, alpha), (k1, k2) in zip(jobs, ((2, 2), (2, 4), (3, 4))):
        n1, n2 = rand_channel(rng, 2, 2, kraus_n=k1), rand_channel(rng, 2, 2, kraus_n=k2)
        # daz at z = inf and at a finite z != alpha reach both branches of
        # the channel gradient that the sandwiched and Petz jobs miss
        for kind_, alpha_, z in (
            (kind, alpha, None),
            ("petz", 0.7, None),
            ("daz", 0.7, math.inf),
            ("daz", 1.5, 1.2),
        ):
            res = channel_divergence(
                n1, n2, kind_, alpha=alpha_, z=z, restarts=4, seed=3, iters=25
            )
            label = f"channel{k1}{k2} {kind_} a={alpha_}" + ("" if z is None else f" z={z}")
            # a checkout from before the bracket has no upper: +inf, as for unbracketed kinds
            upper = getattr(res, "upper", math.inf)
            fields = (res.value, res.restarts_used, res.converged, digest(res.argmax_state))
            print(f"{label}: {(*fields, upper, upper - res.value)}")


def verify_layer() -> None:
    for suite in SUITES:
        for rec in run_suite(suite, 2, SEED):
            print(f"verify {suite} {rec.case}: {(rec.digest, rec.ok, rec.detail)}")


def qubit_pairs():
    """(class, index, rho, sigma) of every pair of the qubit set, as arrays.

    Per index, one sigma is random and one has the eigenvalue
    10^-(6 + index % 5); against each, rho is full rank, pure, near-pure
    ((1 - 1e-6) psi psi^dag + 5e-7 I) or of trace 1e-3.
    """
    rng = np.random.default_rng(QUBIT_SEED)
    out = []
    for i in range(QUBIT_PAIRS):
        for s_kind in ("random", "ill"):
            if s_kind == "random":
                sigma = rand_density(rng, 2).entries
            else:
                u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
                small = 10.0 ** -(6 + i % 5)
                sigma = (u * [small, 1.0 - small]) @ u.conj().T
            psi = rand_pure(rng, 2).entries
            rhos = {
                "full": rand_density(rng, 2).entries,
                "pure": psi,
                "nearpure": (1.0 - 1e-6) * psi + 5e-7 * np.eye(2),
                "trace": 1e-3 * rand_density(rng, 2).entries,
            }
            out += [(f"{r_kind}/{s_kind}", i, rho, sigma) for r_kind, rho in rhos.items()]
    return out


def qubit_measured_layer() -> None:
    """Both lower bounds on the qubit set, then how many lie below rho's eigenbasis value.

    That value is the classical divergence of the weights rho's eigenbasis
    measurement gives, taken as apply_povm takes them; a bound below it by
    more than 1e-12 max(1, |D|) is counted, per function, class and alpha.
    """
    below = {}
    for cls, i, rho, sigma in qubit_pairs():
        basis = measured._povm(measured._projective(opcore._checked_pair(rho, sigma).rho_cut[1]))
        p, q = (apply_povm(basis, m).values for m in (rho, sigma))
        for alpha in QUBIT_ALPHAS:
            floor = float(measured._binary_values(p, q, alpha))
            for name, fn in (("measured", measured_renyi_lower), ("test", test_measured)):
                res = fn(rho, sigma, alpha)
                print(f"qubit {cls} {i} {name} a={alpha}: {show(res)}")
                key = (name, cls, alpha)
                below[key] = below.get(key, 0) + (res.value < floor - 1e-12 * max(1.0, abs(floor)))
    for (name, cls, alpha), count in below.items():
        print(f"qubit {cls} {name} a={alpha} below rho basis: {count}")


def main() -> None:
    for name, rho, sigma in pairs():
        divergence_layer(name, rho, sigma)
        near_one_layer(name, rho, sigma)
        variational_layer(name, rho, sigma)
        zlimit_layer(name, rho, sigma)
        reverse_layer(name, rho, sigma)
        if rho.dim <= 4:
            measured_layer(name, rho, sigma)
    channel_layer()
    verify_layer()
    qubit_measured_layer()


if __name__ == "__main__":
    main()
