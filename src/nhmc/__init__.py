"""Truncated nonhomogeneous Markov chains: kernels, ergodicity diagnostics,
variance rate functions, and desk-scale limit-law experiments."""

__version__ = "0.1.0"

from .kernels import (
    KernelValidationError,
    TailPolicy,
    TruncatedKernel,
    InitialDistribution,
    DistributionVector,
    Observable,
    ObservableSet,
    KernelFamily,
    make_kernel,
    make_limit_kernel,
    zeta2_family,
    zeta4_family,
    constant_family,
    table_family,
    family_from_config,
    family_to_config,
    kernel_product,
    propagate,
    expected_sum,
    indicator_observable,
    capped_identity_observable,
    point_mass,
    uniform_initial,
)
from .sampling import sample_trajectory, sample_paths, trial_seeds
from .ergodicity import (
    ReducibleKernelError,
    ConvergenceError,
    ConvergenceCondition,
    ConditionProfile,
    StationaryVector,
    sup_row_norm,
    dobrushin_delta,
    delta_sequence,
    condition_profile,
    stationary,
    period,
    strong_ergodicity_profile,
)
from .rates import (
    ThetaPositivityError,
    RateComputationError,
    asymptotic_variance,
    covariance_matrix,
    rate_1d,
    rate_multi,
    conjugate_gap,
    AtomicSignedMeasure,
    measure_rate_lower_bound,
    RateModel,
    build_rate_model,
)
from .sumdist import DPConsistencyError, SumDistribution, exact_sum_distribution
from .simulate import (
    SpeedFunction,
    CltDiagnostic,
    MdpEstimate,
    MartingaleResult,
    simulate_sums,
    clt_diagnostic,
    mdp_diagnostic,
    empirical_functionals,
    martingale_check,
)
from .config import ExperimentConfig, InvalidConfigError
