"""Quantum Renyi divergence families at desk scale.

Evaluation of the (alpha, z) divergence family and its limits, measured
and maximal divergences, channel divergences, and the verification
suites for the inequality chains connecting them.

Submodules load on first use: ``from qrd import d_alpha_z`` imports
``qrd.divergences`` (and what it needs) but not the optimizers, the
verification suites or the channel calculus.
"""

from importlib import import_module

__version__ = "0.1.0"

#: submodule -> the public names it exports at package level
_EXPORTS = {
    "classical": (
        "ConvexFunctionSpec", "WeightVector", "classical_fdiv", "classical_q",
        "classical_renyi", "eta_spec", "knife_edge_family", "perspective", "power_spec",
    ),
    "divergences": (
        "DivergenceParams", "DivergenceValue", "alt_chain", "d_alpha_z", "d_alpha_zero",
        "d_hat_alpha", "d_max", "dmax_domination_check", "epsilon_smoothing_curve",
        "nussbaum_szkola", "q_alpha_z", "umegaki", "variational_objective",
        "variational_optimizer_H",
    ),
    "channels": (
        "Channel", "ChannelDivergenceResult", "channel_divergence", "channel_dmax",
        "cp_order_check", "depolarizing_channel", "identity_channel", "kind_whitelisted",
    ),
    "families": (
        "FamilySpec", "family_pair", "gen_a2", "gen_congruence", "gen_kappa", "gen_pure",
        "parse_family",
    ),
    "measured": ("POVM", "MeasuredResult", "measured_renyi_lower", "test_measured"),
    "opcore": (
        "HermitianOperator", "Projection", "logn", "pinch_exp", "psd_leq",
        "support_projection", "supported_power",
    ),
    "reversetests": (
        "MaximalDivergenceResult", "ReverseTest", "caratheodory_fixpoint",
        "caratheodory_reduce", "maximal_divergence_upper", "realized_pair",
        "rt_f_divergence", "spectral_reverse_test", "validate_reverse_test",
    ),
    "serialize": ("SUITES", "dump_channel", "dump_matrix", "load_channel", "load_state"),
    "verify": ("ResultRecord", "run_suite"),
    "zlimits": (
        "equality_case_check", "genericity_condition_b", "genericity_condition_b_prime",
        "reducing_subspace_check", "spectral_profile", "z_alpha_eigenvalues",
        "zero_z_divergence", "zero_z_oracle",
    ),
}
_SUBMODULES = frozenset(_EXPORTS) | {"errors", "lab"}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
