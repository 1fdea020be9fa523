"""Digital sequences modulo m' along squares: generation, normality
statistics, Fourier-term transfer machinery and the analytic toolbox."""

from .budget import BudgetExceededError
from .digital import (
    DigitalFunction,
    FunctionSpecError,
    WitnessNotFoundError,
    check_gcd_conditions,
    check_recursion,
    dump_function_spec,
    eval_b,
    eval_b_many,
    eval_b_truncated,
    eval_b_window,
    find_difference_witness,
    load_function_spec,
    make_digital_function,
    normalize,
    parse_function_spec,
)
from .seqgen import (
    IDENTITY,
    SQUARE,
    IndexMap,
    affine,
    digits,
    parse_index_map,
    parse_preset,
    preset,
    stream,
)
from .normality import (
    AlphaVector,
    BlockHistogram,
    block_histogram,
    decay_exponent,
    exp_sum_S0,
    normality_deviation,
    subword_complexity,
)
from .fourier import (
    FourierContext,
    TransferMatrix,
    WitnessRecord,
    build_transfer_matrix,
    check_condition1,
    check_condition2,
    enumerate_index_sets,
    find_saving_witness,
    fourier_G,
    fourier_G_all_h,
    fourier_H,
    g_recursion_residual,
    h_recursion_residual,
    make_context,
    parseval_sum,
    prop1_decay_profile,
    prop2_decay_check,
    prop2_saving_sweep,
    small_matrix_M,
    transform_T,
    weight_v,
    weight_v_phase,
)
from .analytic import (
    CarryExperiment,
    VaalerPolynomials,
    carry_decomposition_check,
    carry_exception_count,
    gauss_sum,
    geometric_min_bound,
    incomplete_gauss_sum,
    sinus_sum_checks,
    vaaler_build,
    van_der_corput_check,
)

__version__ = "0.1.0"
