"""Spectral multipliers of Laplace-transform type on finite reversible Markov chains.

The package provides weighted spaces and norms, reversible generators and heat
semigroups, spectral calculus, multiplier symbols and operators, the product
path-space dilation with its reverse martingales, and the inequality checks
tying these together.  Everything is deterministic given the seeds it is
handed.
"""

from .dilation import (
    DEFAULT_PATH_BUDGET,
    EnumerationBudgetError,
    ExactPaths,
    PathFunctional,
    PathSpace,
    all_paths,
    dilation_identity_check,
    hat_expectation,
    martingale_transform,
    path_lp_norm,
    path_measure,
    reverse_martingale,
    transform_expectation_identity,
    transition_products,
)
from .inequalities import (
    InequalityReport,
    approximation_limit_check,
    llogl_chain_check,
    multiplier_operator,
    multiplier_pnorm_check,
    opnorm_exact,
    opnorm_lower_estimate,
    reference_constant,
    step_convergence_check,
    transform_pnorm_check,
    verify_markov_conditions,
)
from .multiplier import (
    MultiplierSymbol,
    SampledMultiplier,
    StepMultiplier,
    apply_Tm,
    approximate_by_steps,
    imaginary_power_preset,
    symbol_of_sampled,
    symbol_of_step,
    telescoping_Tm,
)
from .semigroup import (
    MarkovKernel,
    ReversibleGenerator,
    heat_operator,
    random_reversible_generator,
)
from .space import (
    Field,
    WeightedSpace,
    constant_field,
    llogl_norm,
    lp_norm,
    weighted_inner,
    zero_field,
)
from .spectral import (
    SpectralDecomposition,
    decompose,
    operator_matrix,
    spectral_apply,
    spectral_measure,
)

__version__ = "0.1.0"
