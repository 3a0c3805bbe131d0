"""Randomized verification suites behind the ``qrd verify`` subcommand.

Each suite checks one cluster of library invariants.  A suite is a trial
generator, run on seeded random instances, and optionally a generator of
fixed cases; both yield (case, digest, ok, detail) checks, and run_suite
turns every check into a record.  Trials run in order, each with its own
generator derived from (seed, trial index), so extending the trial count
keeps the earlier records unchanged.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .channels import (
    Channel,
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
from .classical import classical_q, eta_spec, knife_edge_family, power_spec
from .divergences import (
    DivergenceParams,
    alt_chain,
    d_alpha_z,
    d_max,
    dmax_domination_check,
    epsilon_smoothing_curve,
    nussbaum_szkola,
    q_alpha_z,
    umegaki,
    variational_objective,
    variational_optimizer_H,
)
from .errors import BadParamsError
from .families import (
    a2_overlap_gap,
    congruence_norm,
    gen_a2,
    gen_congruence,
    gen_kappa,
    gen_pure,
    pure_family_dmax,
)
from .opcore import HermitianOperator, Projection, support_leq
from .reversetests import (
    ReverseTest,
    caratheodory_fixpoint,
    realized_pair,
    rt_f_divergence,
    validate_reverse_test,
)
from .serialize import SUITES, _digest
from .zlimits import (
    _limit_eigenvalues,
    equality_case_check,
    genericity_condition_b,
    genericity_condition_b_prime,
    reducing_subspace_check,
    spectral_profile,
    zero_z_divergence,
    zero_z_oracle,
)

#: adjacent ratio bound on the sorted z -> 0 limit eigenvalues; spectra
#: this well separated keep the extrapolation oracle inside 1e-4
LIMIT_SEPARATION = 0.85


@dataclass(frozen=True)
class ResultRecord:
    suite: str
    case: str
    digest: str
    ok: bool
    detail: str
    wall_time: float


def rand_unitary(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def rand_density(rng, d: int, rank: int | None = None, floor: float = 0.0) -> HermitianOperator:
    g = rng.standard_normal((d, rank or d)) + 1j * rng.standard_normal((d, rank or d))
    m = g @ g.conj().T
    m = m / np.trace(m).real + floor * np.eye(d)
    return HermitianOperator(m / np.trace(m).real)


def rand_pure(rng, d: int) -> HermitianOperator:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return HermitianOperator(np.outer(v, v.conj()))


def rand_balanced_pure(rng, sigma: HermitianOperator, min_overlap: float = 0.05) -> HermitianOperator:
    """Pure state with every sigma-eigenvector overlap at least min_overlap.

    Keeps the vector well away from sigma's eigenvectors, which is what
    makes the strict inequalities of the pure-state chains quantitative.
    """
    _, w = sigma.eig
    while True:
        v = rng.standard_normal(sigma.dim) + 1j * rng.standard_normal(sigma.dim)
        v /= np.linalg.norm(v)
        if np.min(np.abs(w.conj().T @ v) ** 2) >= min_overlap:
            return HermitianOperator(np.outer(v, v.conj()))


def rand_channel(rng, d_in: int = 2, d_out: int = 2, kraus_n: int = 2) -> Channel:
    """Trace-preserving channel from a Haar-ish Stinespring isometry."""
    g = rng.standard_normal((kraus_n * d_out, d_in)) + 1j * rng.standard_normal(
        (kraus_n * d_out, d_in)
    )
    q, _ = np.linalg.qr(g)
    return Channel([q[i * d_out : (i + 1) * d_out, :] for i in range(kraus_n)])


def generic_zero_z_pair(rng, d: int, alphas=(0.6, 1.7)) -> tuple[HermitianOperator, HermitianOperator]:
    """Invertible pair passing both genericity gates with separated limits."""
    while True:
        r = rand_density(rng, d, floor=0.02)
        s = rand_density(rng, d, floor=0.02)
        profile = spectral_profile(r, s)
        if not genericity_condition_b(profile).holds:
            continue
        if not genericity_condition_b_prime(profile).holds:
            continue
        # both conditions hold (one O(d^3) elimination each), so every
        # alpha's limit is the closed form
        if all(
            np.all(lam[1:] / lam[:-1] <= LIMIT_SEPARATION)
            for lam in (np.sort(_limit_eigenvalues(profile, a))[::-1] for a in alphas)
        ):
            return r, s




# ---------------------------------------------------------------- alt

ALT_ALPHAS = (0.3, 0.7, 1.5, 2.0, 3.0)
ALT_Z_PAIRS = ((0.5, 1.0), (0.7, 1.7), (1.0, 2.0), (0.3, 0.6), (1.5, 3.0))
ALT_Z_GRID = (0.4, 0.8, 1.3, 2.1)


def _transport_gap(alpha: float, pair, moved, shift: float = 0.0) -> float:
    """Largest |D(moved) - D(pair) - shift| over D_{alpha,1}, D_max and Umegaki.

    An infinity on one side only, or infinities that differ, gives inf.
    """
    daz = lambda a, b: d_alpha_z(a, b, DivergenceParams(alpha, 1.0)).d_value
    worst = 0.0
    for fn in (daz, d_max, umegaki):
        base, after = fn(*pair), fn(*moved)
        if math.isinf(base) or math.isinf(after):
            if base != after:
                worst = math.inf
        else:
            worst = max(worst, abs(after - base - shift))
    return worst


def _alt_trial(i: int, rng):
    d = int(rng.integers(2, 5))
    r = rand_density(rng, d, rank=int(rng.integers(1, d + 1)))
    s = rand_density(rng, d, rank=int(rng.integers(1, d + 1)))
    dig = _digest(r.entries, s.entries)
    alpha = ALT_ALPHAS[i % len(ALT_ALPHAS)]
    for z1, z2 in ALT_Z_PAIRS:
        rec = alt_chain(r, s, alpha, z1, z2)
        yield (
            f"chain-a{alpha}-z{z1}-{z2}",
            dig,
            rec.ok_lower and rec.ok_upper,
            f"power-sum chain in z: Q_z2={rec.q_z2:.6g} Q_z1={rec.q_z1:.6g} "
            f"upper={rec.upper:.6g}",
        )
    values = [d_alpha_z(r, s, DivergenceParams(alpha, z)).d_value for z in ALT_Z_GRID]
    pairs = list(zip(values, values[1:]))
    if alpha < 1.0:
        mono = all(b >= a - 1e-9 for a, b in pairs)
    else:
        mono = all(b <= a + 1e-9 or math.isinf(a) for a, b in pairs)
    yield (
        f"z-monotone-a{alpha}",
        dig,
        mono,
        f"divergence monotone in z: {['%.6g' % v for v in values]}",
    )
    # scaling law and isometric invariance ride along on the same pair
    lam, eta = float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0))
    scaled = (HermitianOperator(lam * r.entries), HermitianOperator(eta * s.entries))
    worst = _transport_gap(alpha, (r, s), scaled, math.log(lam) - math.log(eta))
    yield f"scaling-a{alpha}", dig, worst <= 1e-9, f"scaling law gap {worst:.3g}"
    big = 4
    iso = np.zeros((big, d), dtype=complex)
    iso[:d, :d] = np.eye(d)
    u = rand_unitary(rng, big)
    emb = lambda x: HermitianOperator(u @ iso @ x.entries @ iso.conj().T @ u.conj().T)
    worst = _transport_gap(alpha, (r, s), (emb(r), emb(s)))
    yield f"isometry-a{alpha}", dig, worst <= 1e-9, f"isometric invariance gap {worst:.3g}"


# ---------------------------------------------------------- variational

VAR_ALPHAS = (1.3, 1.7, 2.0)


def _variational_trial(i: int, rng):
    d = int(rng.integers(2, 4))
    r = rand_density(rng, d, floor=0.02)
    s = rand_density(rng, d, floor=0.02)
    dig = _digest(r.entries, s.entries)
    alpha = VAR_ALPHAS[i % len(VAR_ALPHAS)]
    for z in (alpha, alpha / 2 + 0.5, 1.0):
        params = DivergenceParams(alpha, z)
        q_true = q_alpha_z(r, s, params)
        h_star = variational_optimizer_H(r, s, params)
        rel = abs(variational_objective(r, s, params, h_star) - q_true) / q_true
        n_bad = 0
        for _ in range(20):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = g @ g.conj().T
            h = HermitianOperator(h * (rng.uniform(0.1, 2.0) / np.linalg.norm(h, 2)))
            if variational_objective(r, s, params, h) > q_true * (1.0 + 1e-9):
                n_bad += 1
        yield (
            f"a{alpha}-z{z:.2f}",
            dig,
            rel <= 1e-9 and n_bad == 0,
            f"plug-in optimality rel={rel:.3g}, random-H dominations broken={n_bad}",
        )


# ------------------------------------------------------------ dmaxbound

DMAX_ALPHAS = (1.5, 2.5, 4.0)


def _dmaxbound_trial(i: int, rng):
    d = int(rng.integers(2, 4))
    sig = rand_density(rng, d, floor=0.02)
    psi = rand_balanced_pure(rng, sig)
    dig = _digest(psi.entries, sig.entries)
    for alpha in DMAX_ALPHAS:
        rec = dmax_domination_check(psi, sig, DivergenceParams(alpha, 0.9 * (alpha - 1.0)))
        gap = rec.d_az - rec.d_max
        ok = (not rec.dominated) and gap > 1e-6
        yield f"strict-a{alpha}", dig, ok, f"strict violation below z=alpha-1: gap={gap:.3g}"
        oks, worst = [], -math.inf
        for z in (alpha - 1.0, alpha, 2.0 * alpha):
            rec = dmax_domination_check(psi, sig, DivergenceParams(alpha, z))
            oks.append(rec.dominated)
            worst = max(worst, rec.d_az - rec.d_max)
        yield (
            f"dominated-a{alpha}",
            dig,
            all(oks),
            f"domination at z >= alpha-1: worst excess {worst:.3g}",
        )
    mixed = rand_density(rng, d)
    rec = dmax_domination_check(mixed, sig, DivergenceParams(0.5, float(rng.uniform(0.5, 3.0))))
    yield (
        "below-one",
        _digest(mixed.entries, sig.entries),
        rec.dominated,
        f"domination for alpha<1: excess {rec.d_az - rec.d_max:.3g}",
    )


# -------------------------------------------------------------- nszkola

NS_ALPHAS = (0.3, 0.8, 1.5, 3.0)


def _nszkola_trial(i: int, rng):
    d = int(rng.integers(2, 5))
    r = rand_density(rng, d, rank=int(rng.integers(1, d + 1)))
    s = rand_density(rng, d, rank=int(rng.integers(1, d + 1)))
    dig = _digest(r.entries, s.entries)
    p, q = nussbaum_szkola(r, s)
    worst, inf_ok = 0.0, True
    for alpha in NS_ALPHAS:
        q_quantum = q_alpha_z(r, s, DivergenceParams(alpha, 1.0))
        q_classical = classical_q(p, q, alpha)
        if math.isinf(q_quantum) or math.isinf(q_classical):
            inf_ok = inf_ok and math.isinf(q_quantum) and math.isinf(q_classical)
        else:
            worst = max(worst, abs(q_quantum - q_classical) / max(q_classical, 1e-300))
    ok = inf_ok and worst <= 1e-10
    yield "", dig, ok, f"distribution identity for Q at z=1: rel={worst:.3g} inf-agree={inf_ok}"


# --------------------------------------------------------- caratheodory


def anchors_and_mixtures_rt(rng, n_anchors: int = 5, n_mix: int = 3) -> ReverseTest:
    """Qubit reverse test whose last columns are mixtures of the first.

    The mixture columns are convex combinations by construction, so the
    one-step hull reduction is guaranteed to find a removable column.
    """
    anchors = [rand_pure(rng, 2).entries for _ in range(n_anchors - 1)]
    anchors.append(rand_density(rng, 2).entries)
    omegas = list(anchors)
    for _ in range(n_mix):
        lam = rng.dirichlet(np.ones(n_anchors))
        omegas.append(sum(l * a for l, a in zip(lam, anchors)))
    n = len(omegas)
    return ReverseTest(
        omegas=tuple(HermitianOperator(w) for w in omegas),
        p=rng.dirichlet(np.ones(n)),
        q=rng.dirichlet(np.ones(n)),
    )


def _hull_fold(rt: ReverseTest, pair, f) -> tuple[bool, str]:
    """Fold rt's hull to a fixpoint under f: (ok, "<columns>, certificate <before> -> <after>").

    ok asks for at most 5 columns, a reduced test that still realizes
    pair, and a certificate that did not rise.
    """
    before = rt_f_divergence(rt, f)
    reduced = caratheodory_fixpoint(rt, f=f)
    after = rt_f_divergence(reduced, f)
    ok = (
        reduced.n_columns <= 5
        and validate_reverse_test(reduced, *pair)
        and after <= before + 1e-9
    )
    return ok, f"{reduced.n_columns}, certificate {before:.6g} -> {after:.6g}"


def _caratheodory_trial(i: int, rng):
    rt = anchors_and_mixtures_rt(rng)
    pair = realized_pair(rt)
    dig = _digest(*(w.entries for w in rt.omegas))
    for f, tag in ((power_spec(2.0), "f2"), (eta_spec(), "eta")):
        ok, folded = _hull_fold(rt, pair, f)
        yield tag, dig, ok, f"hull reduction 8 -> {folded}"


def _caratheodory_fixed():
    # duplicated column with proportional weights must merge away
    rng = np.random.default_rng(17)
    base = [rand_pure(rng, 2) for _ in range(4)] + [rand_density(rng, 2)]
    omegas = tuple(base) + (base[0],)
    p = np.array([0.2, 0.1, 0.15, 0.15, 0.2, 0.2])
    q = np.array([0.1, 0.2, 0.2, 0.2, 0.2, 0.1])
    rt = ReverseTest(omegas=omegas, p=p, q=q)
    ok, folded = _hull_fold(rt, realized_pair(rt), power_spec(2.0))
    yield (
        "duplicate-merge",
        _digest(*(w.entries for w in omegas)),
        ok,
        f"duplicate column merged: 6 -> {folded}",
    )


# -------------------------------------------------------------- zlimits

ZL_ALPHAS = (0.6, 1.7)


def _zlimits_trial(i: int, rng):
    d = int(rng.integers(2, 4))
    r, s = generic_zero_z_pair(rng, d, ZL_ALPHAS)
    dig = _digest(r.entries, s.entries)
    for alpha in ZL_ALPHAS:
        res = zero_z_divergence(r, s, alpha)
        oracle = zero_z_oracle(r, s, alpha)
        gap = abs(res.value - oracle)
        ok = (not res.used_fallback) and gap <= 1e-4
        yield f"oracle-a{alpha}", dig, ok, f"spectral formula vs extrapolation: gap={gap:.3g}"
        # the z -> 0 limit caps the z-monotone family from the right side
        worst = -math.inf
        for z in (0.3, 0.7, 1.4):
            dz = d_alpha_z(r, s, DivergenceParams(alpha, z)).d_value
            worst = max(worst, dz - res.value if alpha > 1.0 else res.value - dz)
        yield (
            f"endpoint-a{alpha}",
            dig,
            worst <= 1e-8,
            f"limit bounds finite-z values: worst excess {worst:.3g}",
        )
    sig = rand_density(rng, 3, floor=0.05)
    psi = rand_balanced_pure(rng, sig)
    b = sig.eigenvalues
    lo = zero_z_divergence(psi, sig, 0.5).value
    hi = zero_z_divergence(psi, sig, 2.5).value
    u_m, d_m = umegaki(psi, sig), d_max(psi, sig)
    closed = max(abs(lo - math.log(1.0 / b[0])), abs(hi - math.log(1.0 / b[-1])))
    margins = (u_m - lo, d_m - u_m, hi - d_m)
    yield (
        "pure-chain",
        _digest(psi.entries, sig.entries),
        closed <= 1e-8 and min(margins) > 1e-6,
        f"pure-state closed forms gap={closed:.3g}, chain margins "
        f"{['%.3g' % m for m in margins]}",
    )
    a_op = rand_density(rng, 3)
    top = a_op.eigenvectors[:, :1]
    p_top = Projection(top @ top.conj().T)
    mix = (a_op.eigenvectors[:, 0] + a_op.eigenvectors[:, 2]) / math.sqrt(2.0)
    p_mix = Projection(np.outer(mix, mix.conj()))
    rec_top = reducing_subspace_check(a_op, p_top)
    rec_mix = reducing_subspace_check(a_op, p_mix)
    ok = (
        rec_top.trace_attains_topk
        and rec_top.reduces
        and ((not rec_mix.trace_attains_topk) or rec_mix.reduces)
    )
    yield (
        "reducing", _digest(a_op.entries), ok, "top-k trace attainment forces an invariant subspace"
    )


def _zlimits_fixed():
    a = np.array([0.5, 0.3, 0.2])
    b = np.array([0.6, 0.25, 0.15])
    aligned = equality_case_check(HermitianOperator(np.diag(a)), HermitianOperator(np.diag(b)), "below")
    anti = equality_case_check(
        HermitianOperator(np.diag(a)), HermitianOperator(np.diag(b[::-1])), "above"
    )
    rng = np.random.default_rng(23)
    r2, s2 = generic_zero_z_pair(rng, 2, ZL_ALPHAS)
    nc_below = equality_case_check(r2, s2, "below")
    nc_above = equality_case_check(r2, s2, "above")
    ok = (
        aligned.gap <= 1e-8
        and aligned.commuting_aligned
        and anti.gap <= 1e-8
        and anti.commuting_aligned
        and nc_below.gap > 1e-6
        and not nc_below.commuting_aligned
        and nc_above.gap > 1e-6
    )
    yield (
        "equality-cases",
        _digest(a, b, r2.entries, s2.entries),
        ok,
        f"aligned gaps ({aligned.gap:.3g}, {anti.gap:.3g}); non-commuting "
        f"gaps ({nc_below.gap:.3g}, {nc_above.gap:.3g})",
    )


# ------------------------------------------------------------- families


def _families_trial(i: int, rng):
    gamma = float(rng.uniform(0.3, 2.0))
    n = int(rng.integers(2, 21))
    gap = a2_overlap_gap(gamma, n)
    r, s = gen_a2(gamma, n)
    traces = max(abs(r.trace - 1.0), abs(s.trace - 1.0))
    yield (
        f"a2-overlap-g{gamma:.2f}-n{n}",
        _digest(r.entries, s.entries),
        gap <= 1e-10 and traces <= 1e-10,
        f"eigenvector overlap identity gap={gap:.3g}, trace gap={traces:.3g}",
    )
    c = float(rng.uniform(0.3, 2.0))
    eps = float(rng.uniform(0.01, min(1.0, 1.0 / c) * 0.9))
    rp, sp = gen_pure(c, eps)
    alpha = float(rng.uniform(1.2, 3.0))
    dv = d_alpha_z(rp, sp, DivergenceParams(alpha, alpha - 1.0)).d_value
    dm = d_max(rp, sp)
    formula_gap = abs(dm - pure_family_dmax(c, eps))
    yield (
        f"pure-c{c:.2f}-e{eps:.3f}",
        _digest(rp.entries, sp.entries),
        formula_gap <= 1e-9 and abs(dv - dm) <= 1e-9,
        f"closed form gap={formula_gap:.3g}; D at z=alpha-1 vs dmax "
        f"gap={abs(dv - dm):.3g}",
    )


def _families_fixed():
    r, s = gen_kappa(1.0, 2.0, 1e-6)
    gap = abs(d_alpha_z(r, s, DivergenceParams(2.0, 1.0)).d_value - math.log(2.0))
    dmax_gap = abs(d_max(r, s) - math.log(2.0))
    yield (
        "kappa-unit",
        _digest(r.entries, s.entries),
        gap <= 1e-3 and dmax_gap <= 1e-3,
        f"kappa=1 limits: divergence gap={gap:.3g}, dmax gap={dmax_gap:.3g}",
    )
    trend = [d_max(*gen_kappa(0.5, 2.0, e)) for e in (1e-2, 1e-3, 1e-4)]
    yield (
        "kappa-blowup",
        _digest(np.array(trend)),
        trend[0] < trend[1] < trend[2],
        f"kappa<1 dmax grows along eps: {['%.4g' % t for t in trend]}",
    )
    raw_r, raw_s = gen_congruence(0.5, 1e-3, normalized=False)
    ident = abs(d_max(raw_r, raw_s) - math.log(congruence_norm(0.5)))
    yield (
        "congruence-identity",
        _digest(raw_r.entries, raw_s.entries),
        ident <= 1e-9,
        f"dmax equals the congruence norm exactly: gap={ident:.3g}",
    )
    knife = []
    for beta, expect in ((1.0, "knife"), (0.5, "blowup"), (1.5, "vanish")):
        p, q = knife_edge_family(1.0, 1.0, beta, 2.0, 10**6)
        qv = classical_q(p, q, 2.0)
        if expect == "knife":
            knife.append(abs(math.log(qv) - math.log(2.0)) <= 1e-3)
        elif expect == "blowup":
            knife.append(qv > 1e3)
        else:
            knife.append(math.log(qv) <= 1e-3)
    yield (
        "knife-trichotomy",
        _digest(np.array([1.0, 2.0])),
        all(knife),
        f"decay-ratio trichotomy at alpha=2: {knife}",
    )


# ------------------------------------------------------------- channels


def _channels_trial(i: int, rng):
    n1 = rand_channel(rng, 2, 2, 2)
    # full Kraus rank keeps the second Choi invertible, so the dmax
    # domination case is exercised on finite values, not vacuous infinities
    n2 = rand_channel(rng, 2, 2, 4)
    dig = _digest(n1.choi.entries, n2.choi.entries)
    roundtrip = Channel.from_choi(n1.choi, 2, 2)
    probe = rand_density(rng, 2)
    rt_gap = float(
        np.max(np.abs(roundtrip.apply(probe).entries - n1.apply(probe).entries))
    )
    ok = rt_gap <= 1e-9 and n1.trace_preserving and n1.cp_plus
    yield "choi-roundtrip", dig, ok, f"Kraus/Choi roundtrip gap={rt_gap:.3g}"
    dm = channel_dmax(n1, n2)
    bis = channel_dmax_bisection(n1, n2)
    agree = abs(dm - bis) <= 1e-6 if math.isfinite(dm) else math.isinf(bis)
    worst = -math.inf
    if math.isfinite(dm):
        for kind, alpha in (("sandwiched", 2.0), ("petz", 1.5), ("umegaki", 1.0)):
            res = channel_divergence(
                n1, n2, kind, alpha=alpha, restarts=4, seed=1000 + i, iters=30
            )
            worst = max(worst, res.value - dm)
    yield (
        "dmax-dominates",
        dig,
        agree and worst <= 1e-6,
        f"bisection gap={abs(dm - bis) if math.isfinite(dm) else 0:.3g}, "
        f"worst excess over channel dmax={worst:.3g}",
    )


def _channels_fixed():
    ident, dep = identity_channel(2), depolarizing_channel(0.2)
    val = channel_dmax(ident, dep)
    expected = math.log(1.0 / 0.85)
    yield (
        "depolarizing-dmax",
        _digest(dep.choi.entries),
        abs(val - expected) <= 1e-8,
        f"identity vs depolarizing(0.2): dmax={val:.8f}, "
        f"closed form gap={abs(val - expected):.3g}",
    )
    lam_star = math.exp(expected)
    order_ok = (not cp_order_check(ident, dep, lam_star - 1e-3)) and cp_order_check(
        ident, dep, lam_star + 2e-3
    )
    yield (
        "cp-order-threshold",
        _digest(dep.choi.entries),
        order_ok,
        "complete-positivity order flips exactly at the dmax scale",
    )
    table_ok = (
        kind_whitelisted("daz", 2.0, 1.5)
        and not kind_whitelisted("daz", 3.0, 1.0)
        and kind_whitelisted("daz", 0.7, 0.8)
        and not kind_whitelisted("daz", 0.7, 0.5)
        and kind_whitelisted("sandwiched", 0.6)
        and not kind_whitelisted("sandwiched", 0.4)
        and kind_whitelisted("petz", 2.0)
        and not kind_whitelisted("petz", 2.5)
        and kind_whitelisted("umegaki")
        and kind_whitelisted("dmax")
        and kind_whitelisted("measured", 5.0)
    )
    yield (
        "whitelist", _digest(np.array([0.0])), table_ok, "monotone-parameter whitelist truth table"
    )
    t1 = np.array([[0.8, 0.3], [0.2, 0.7]])
    t2 = np.array([[0.55, 0.45], [0.45, 0.55]])
    ch1, ch2 = classical_channel(t1), classical_channel(t2)
    res = channel_divergence(ch1, ch2, "sandwiched", alpha=1.5, restarts=6, seed=3, iters=40)
    oracle, _ = classical_channel_divergence_grid(t1, t2, 1.5)
    yield (
        "classical-oracle",
        _digest(t1, t2),
        abs(res.value - oracle) <= 1e-3,
        f"quantum optimizer vs simplex grid: gap={abs(res.value - oracle):.3g}",
    )
    zero = channel_divergence(ch1, ch1, "sandwiched", alpha=2.0, restarts=2, seed=0, iters=10)
    ok = abs(zero.value) <= 1e-9
    yield "self-zero", _digest(t1), ok, f"identical channels diverge by {zero.value:.3g}"


# ------------------------------------------------------------ smoothing

SMOOTH_GRID = tuple(10.0 ** (-k) for k in range(2, 9))
DEEP_GRID = tuple(10.0 ** (-k) for k in range(2, 165, 18))


def _smoothing_trial(i: int, rng):
    d = int(rng.integers(2, 4))
    params = DivergenceParams((1.6, 0.7, 3.0)[i % 3], 1.0)
    r = rand_density(rng, d)
    s = rand_density(rng, d, floor=0.02)
    dig = _digest(r.entries, s.entries)
    curve = epsilon_smoothing_curve(r, s, params, SMOOTH_GRID)
    mono = all(b >= a - 1e-10 for a, b in zip(curve, curve[1:]))
    target = d_alpha_z(r, s, params).d_value
    yield (
        f"converges-a{params.alpha}",
        dig,
        mono and abs(curve[-1] - target) <= 1e-3,
        f"monotone={mono}, final gap={abs(curve[-1] - target):.3g}",
    )
    r_wide = rand_density(rng, d)
    s_thin = rand_pure(rng, d)
    assert not support_leq(r_wide, s_thin)
    deep_params = DivergenceParams(3.0, 1.0)
    deep = epsilon_smoothing_curve(r_wide, s_thin, deep_params, DEEP_GRID)
    mono = all(b >= a - 1e-10 for a, b in zip(deep, deep[1:]))
    yield (
        "diverges",
        _digest(r_wide.entries, s_thin.entries),
        mono and max(deep) > 1e3,
        f"unsupported pair blows up: tail={deep[-1]}, monotone={mono}",
    )
    self_curve = epsilon_smoothing_curve(r, r, params, SMOOTH_GRID)
    ok = all(v <= 1e-12 for v in self_curve) and abs(self_curve[-1]) <= 1e-6
    yield (
        "self",
        _digest(r.entries),
        ok,
        f"self-divergence rises to zero from below: final={self_curve[-1]:.3g}",
    )


# --------------------------------------------------------------- runner


def _records(suite: str, prefix: str, checks) -> list[ResultRecord]:
    """One record per (case, digest, ok, detail) check, its case under prefix.

    wall_time is the time since the previous record of the same checks
    (since the start, for the first).
    """
    out = []
    t0 = time.perf_counter()
    for case, digest, ok, detail in checks:
        now = time.perf_counter()
        full = f"{prefix}/{case}" if case else prefix
        out.append(ResultRecord(suite, full, digest, bool(ok), detail, now - t0))
        t0 = now
    return out


def run_suite(name: str, trials: int, seed: int) -> list[ResultRecord]:
    """The suite's fixed cases under fixed/, then trials 0..trials-1 under trial-NNNN.

    Trial i draws from default_rng([seed, i]).
    """
    if name not in SUITES:
        raise BadParamsError(f"unknown suite {name!r}; choose from {SUITES}")
    if trials < 1:
        raise BadParamsError(f"trials must be positive, got {trials}")
    if seed < 0:
        raise BadParamsError(f"seed must be non-negative, got {seed}")
    # suite <name> is the generator _<name>_trial, plus _<name>_fixed if it has fixed cases
    trial, fixed = globals()[f"_{name}_trial"], globals().get(f"_{name}_fixed")
    records = _records(name, "fixed", fixed()) if fixed else []
    for i in range(trials):
        records += _records(name, f"trial-{i:04d}", trial(i, np.random.default_rng([seed, i])))
    return records
