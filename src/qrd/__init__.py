"""Quantum Renyi divergence families at desk scale.

Evaluation of the (alpha, z) divergence family and its limits, measured
and maximal divergences, channel divergences, and the verification
suites for the inequality chains connecting them.
"""

from .classical import (
    ConvexFunctionSpec,
    WeightVector,
    classical_fdiv,
    classical_q,
    classical_renyi,
    eta_spec,
    knife_edge_family,
    perspective,
    power_spec,
)
from .divergences import (
    DivergenceParams,
    DivergenceValue,
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
from .channels import (
    Channel,
    ChannelDivergenceResult,
    channel_divergence,
    channel_dmax,
    cp_order_check,
    depolarizing_channel,
    identity_channel,
    kind_whitelisted,
)
from .families import (
    FamilySpec,
    family_pair,
    gen_a2,
    gen_congruence,
    gen_kappa,
    gen_pure,
    parse_family,
)
from .measured import (
    POVM,
    MeasuredResult,
    measured_renyi_lower,
    test_measured,
)
from .opcore import (
    HermitianOperator,
    Projection,
    logn,
    pinch_exp,
    projection_meet,
    psd_leq,
    support_projection,
    supported_power,
    trace_power,
)
from .reversetests import (
    MaximalDivergenceResult,
    ReverseTest,
    caratheodory_fixpoint,
    caratheodory_reduce,
    maximal_divergence_upper,
    realized_pair,
    rt_f_divergence,
    rt_renyi,
    spectral_reverse_test,
    validate_reverse_test,
)
from .serialize import (
    dump_channel,
    dump_matrix,
    load_channel,
    load_state,
)
from .verify import (
    SUITES,
    ResultRecord,
    run_suite,
)
from .zlimits import (
    SpectralProfile,
    equality_case_check,
    genericity_condition_b,
    genericity_condition_b_prime,
    reducing_subspace_check,
    spectral_profile,
    z_alpha_eigenvalues,
    zero_z_divergence,
    zero_z_oracle,
)

__version__ = "0.1.0"
