"""The argument readers every entry point shares, and the result checks.

A count (a step, horizon, state, state count N, trial count, cap or seed) is read by
``kernels._count``: a fraction, a bool or a value outside its range is a
``KernelValidationError`` that names the argument.  The asymptotic variance θ
is read by ``rates._theta``: anything but a finite θ > 0, NaN included, is a
``ThetaPositivityError``.  A result type's own check refuses NaN.
"""

import math
import re

import numpy as np
import pytest

from nhmc import (
    ConditionProfile,
    ConvergenceCondition,
    ConvergenceError,
    KernelValidationError,
    MdpEstimate,
    ObservableSet,
    RateComputationError,
    RateModel,
    SpeedFunction,
    StationaryVector,
    SumDistribution,
    ThetaPositivityError,
    TruncatedKernel,
    capped_identity_observable,
    clt_diagnostic,
    condition_profile,
    delta_sequence,
    indicator_observable,
    make_kernel,
    make_limit_kernel,
    martingale_check,
    mdp_diagnostic,
    point_mass,
    propagate,
    rate_1d,
    rate_multi,
    sample_paths,
    simulate_sums,
    stationary,
    table_family,
    uniform_initial,
    zeta2_family,
    zeta4_family,
)
from nhmc.kernels import expected_step_values

from conftest import random_stochastic

SIZE = 30
FAM = zeta2_family(0.75, SIZE)
DENSE = TruncatedKernel(random_stochastic(np.random.default_rng(8), SIZE))
TABLE = table_family([DENSE], FAM.limit)
MU0 = point_mass(1, SIZE)
F = indicator_observable(1, SIZE)
OBS = ObservableSet((F,))

# entry point -> (a call of it with one count, the count's name, low, high or None)
COUNTS = {
    "propagate": (lambda v: propagate(MU0, FAM, v), "step count", 0, None),
    "expected_step_values": (lambda v: expected_step_values(MU0, FAM, OBS, v),
                             "step count", 0, None),
    "kernel_at": (lambda v: FAM.kernel_at(v), "time index k", 1, None),
    "table_kernel_at": (lambda v: TABLE.kernel_at(v), "time index k", 1, None),
    "steps": (lambda v: FAM.steps(v), "step count", 0, None),
    "table_steps": (lambda v: TABLE.steps(v), "step count", 0, None),
    "make_kernel": (lambda v: make_kernel("zeta2", v, SIZE, 0.75), "time index k", 1, None),
    "delta_sequence": (lambda v: delta_sequence(FAM, v), "k_max", 1, None),
    "condition_profile": (lambda v: condition_profile(FAM, "mean_kernel_deviation", [5], v),
                          "m_sup_range", 0, None),
    "sample_paths": (lambda v: sample_paths([0], MU0, FAM, v), "horizon", 0, None),
    "sample_paths_seed": (lambda v: sample_paths([0], MU0, FAM, 5, v), "base_seed", 0,
                          2**63 - 1),
    "simulate_sums": (lambda v: simulate_sums(MU0, FAM, F, 5, v, 0), "trials", 1, None),
    "mdp_diagnostic": (lambda v: mdp_diagnostic(FAM, MU0, F, SpeedFunction(0.6), [0.0], [5], 0.2,
                                                method="monte_carlo", trials=v),
                       "trials", 1, None),
    "martingale_check": (lambda v: martingale_check(FAM, MU0, OBS, [1.0], [5], v,
                                                    theta_value=0.2), "trials", 1, None),
    "martingale_check_seed": (lambda v: martingale_check(FAM, MU0, OBS, [1.0], [5], 4, v,
                                                         theta_value=0.2),
                              "base_seed", 0, 2**63 - 1),
    "clt_diagnostic": (lambda v: clt_diagnostic(np.arange(2000.0), 0.0, 1.0, v),
                       "horizon n", 1, None),
    "indicator_observable": (lambda v: indicator_observable(v, SIZE), "state", 1, SIZE),
    "point_mass": (lambda v: point_mass(v, SIZE), "state", 1, SIZE),
    "capped_identity_observable": (lambda v: capped_identity_observable(v, SIZE), "cap", 1, None),
    # the state count N of each family, limit kernel, start law and observable
    "zeta2_family_N": (lambda v: zeta2_family(0.75, v), "N", 3, None),
    "zeta4_family_N": (lambda v: zeta4_family(0.75, 1.0, v), "N", 3, None),
    "make_limit_kernel_N": (lambda v: make_limit_kernel("zeta2", v), "N", 3, None),
    "make_kernel_N": (lambda v: make_kernel("zeta2", 1, v, 0.75), "N", 3, None),
    "uniform_initial_N": (lambda v: uniform_initial(v), "N", 2, None),
    "point_mass_N": (lambda v: point_mass(1, v), "N", 2, None),
    "indicator_observable_N": (lambda v: indicator_observable(1, v), "N", 1, None),
    "capped_identity_observable_N": (lambda v: capped_identity_observable(2, v), "N", 1, None),
}


def _bad_counts():
    """(entry point, value, the message it must raise) for each entry point:
    a fraction, a bool, one below the range and, where it has one, one above."""
    for entry, (_, name, low, high) in COUNTS.items():
        not_int = f"{name} must be an integer"
        out_of_range = (f"{name} must be >= {low}" if high is None
                        else f"{name} must lie in {low}..{high}")
        yield pytest.param(entry, low + 1.5, not_int, id=f"{entry}-fraction")
        yield pytest.param(entry, True, not_int, id=f"{entry}-bool")
        yield pytest.param(entry, low - 1, out_of_range, id=f"{entry}-below")
        if high is not None:
            yield pytest.param(entry, high + 1, out_of_range, id=f"{entry}-above")


@pytest.mark.parametrize("entry, value, message", list(_bad_counts()))
def test_every_count_is_read_alike(entry, value, message):
    """A fraction is never truncated, a bool is never a count, and a value
    outside the range is refused by the argument's name, never indexed."""
    call = COUNTS[entry][0]
    with pytest.raises(KernelValidationError, match=re.escape(message)):
        call(value)


@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_every_count_takes_its_integral_float(entry):
    """An integral float (``1e4`` in a config) is that integer, at the low end."""
    call, _, low, _ = COUNTS[entry]
    call(float(low + 1))


THETAS = {
    "rate_1d": lambda theta: rate_1d(1.0, theta),
    "clt_diagnostic": lambda theta: clt_diagnostic(np.arange(2000.0), 0.0, theta, 10),
    "mdp_exact_dp": lambda theta: mdp_diagnostic(FAM, MU0, F, SpeedFunction(0.6), [0.4], [5],
                                                 theta),
    "mdp_monte_carlo": lambda theta: mdp_diagnostic(FAM, MU0, F, SpeedFunction(0.6), [0.4], [5],
                                                    theta, method="monte_carlo", trials=10),
    "martingale_check": lambda theta: martingale_check(FAM, MU0, OBS, [1.0], [5], 4,
                                                       theta_value=theta),
}


@pytest.mark.parametrize("theta", [0.0, -1.0, math.nan, math.inf, True], ids=str)
@pytest.mark.parametrize("entry", sorted(THETAS))
def test_every_theta_is_finite_and_positive(entry, theta):
    """The rate x²/(2θ) needs a finite θ > 0: a NaN θ no longer comes back as
    a NaN rate, an infinite one as a rate of 0, nor True as θ = 1."""
    with pytest.raises(ThetaPositivityError, match="asymptotic variance must be strictly positive"):
        THETAS[entry](theta)


class TestResultChecksRefuseNan:
    """Each check reads ``not x >= bound``: NaN fails it, as NaN fails every comparison."""

    def test_condition_profile_values(self):
        with pytest.raises(KernelValidationError, match="values must be nonnegative"):
            ConditionProfile(ConvergenceCondition.SCALED_DOBRUSHIN_SUM, [1, 2], [math.nan, 0.1], 0)

    def test_sum_distribution_pmf(self):
        with pytest.raises(KernelValidationError, match="pmf has negative or NaN mass"):
            SumDistribution(2, 0, [math.nan, 0.5, 0.5], 1.0, 1.0)

    @pytest.mark.parametrize("pi, residual", [([math.nan, 0.5, 0.5], 0.0),
                                              ([0.25, 0.25, 0.5], math.nan)],
                             ids=["pi", "residual"])
    def test_stationary_vector(self, pi, residual):
        with pytest.raises(KernelValidationError, match="stationary"):
            StationaryVector(pi, residual)

    def test_stationary_solve_residual(self, monkeypatch):
        """A solve that returns NaN fails the residual check of ``stationary``
        itself, before a StationaryVector is built."""
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(b.shape, math.nan))
        with pytest.raises(ConvergenceError, match="residual nan"):
            stationary(DENSE)

    @pytest.mark.parametrize("theta, q", [([math.nan], [[math.nan]]), ([math.nan], [[0.2]])],
                             ids=["theta_and_q", "theta"])
    def test_rate_model(self, theta, q):
        with pytest.raises(RateComputationError):
            RateModel(stationary(FAM.limit), theta, q)

    def test_rate_1d(self):
        with pytest.raises(KernelValidationError, match="x must be a number"):
            rate_1d(math.nan, 1.0)
        assert rate_1d(math.inf, 1.0) == rate_1d(-math.inf, 1.0) == math.inf

    def test_rate_multi(self):
        with pytest.raises(KernelValidationError, match="x entries must be numbers"):
            rate_multi([math.nan], np.eye(1))

    @pytest.mark.parametrize("field", ["log_prob", "scaled"])
    def test_mdp_estimate(self, field):
        values = {"log_prob": -1.0, "scaled": -0.5, field: math.nan}
        with pytest.raises(KernelValidationError, match="tail log-probabilities"):
            MdpEstimate(n=10, x=0.4, method="exact_dp", target=-0.1, **values)

