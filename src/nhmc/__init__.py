"""Truncated nonhomogeneous Markov chains: kernels, ergodicity diagnostics,
variance rate functions, and desk-scale limit-law experiments."""

__version__ = "0.1.0"

from .kernels import (
    KernelValidationError,
    TailPolicy,
    TruncatedKernel,
    InitialDistribution,
    Observable,
    ObservableSet,
    KernelFamily,
    make_kernel,
    make_limit_kernel,
    zeta2_family,
    zeta4_family,
    constant_family,
    table_family,
    propagate,
    expected_sum,
    indicator_observable,
    capped_identity_observable,
    point_mass,
    uniform_initial,
)
from .sampling import sample_paths
from .ergodicity import (
    ReducibleKernelError,
    ConvergenceError,
    ConvergenceCondition,
    ConditionProfile,
    StationaryVector,
    dobrushin_delta,
    delta_sequence,
    condition_profile,
    stationary,
)
from .rates import (
    ThetaPositivityError,
    RateComputationError,
    asymptotic_variance,
    covariance_matrix,
    rate_1d,
    rate_multi,
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
    martingale_check,
)
from .config import ExperimentConfig, InvalidConfigError, family_from_config
