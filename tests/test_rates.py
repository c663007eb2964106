import math
import tracemalloc

import numpy as np
import pytest

import nhmc
from nhmc import (
    AtomicSignedMeasure,
    KernelValidationError,
    Observable,
    ObservableSet,
    RateComputationError,
    ThetaPositivityError,
    TruncatedKernel,
    asymptotic_variance,
    build_rate_model,
    capped_identity_observable,
    covariance_matrix,
    indicator_observable,
    make_limit_kernel,
    measure_rate_lower_bound,
    rate_1d,
    rate_multi,
    stationary,
)

from conftest import random_stochastic


def ascent_supremum(x, Q):
    """Conjugate-direction ascent oracle for sup_z { <x,z> - z'Qz/2 }.

    Purely first-order (no eigendecomposition); exact for quadratics after
    dim steps up to rounding, so extra sweeps only polish the value.
    """
    z = np.zeros_like(x)
    r = x - Q @ z
    p = r.copy()
    for _ in range(8 * len(x)):
        Qp = Q @ p
        curv = p @ Qp
        if curv <= 1e-300:
            break
        step = (r @ r) / curv
        z = z + step * p
        r_new = r - step * Qp
        if np.linalg.norm(r_new) < 1e-13:
            break
        p = r_new + (r_new @ r_new) / (r @ r) * p
        r = r_new
    return float(x @ z - 0.5 * z @ Q @ z)


def assert_dominates_chords(x, Q, value, probes=20):
    """The conjugate value is at least ``<x, z> - z'Qz/2`` at ``probes``
    seeded random points z around the maximiser ``Q^+ x``."""
    rng = np.random.default_rng(0)
    z_star = np.linalg.pinv(Q) @ x
    for _ in range(probes):
        z = z_star + rng.standard_normal(x.shape)
        assert float(x @ z - 0.5 * z @ Q @ z) <= value + 1e-9 * max(1.0, abs(value))


def random_psd(rng, m, rank=None):
    rank = m if rank is None else rank
    A = rng.standard_normal((m, rank))
    return A @ A.T + 0.0


class TestAsymptoticVariance:
    def test_constant_observable_gives_zero(self, iid_family):
        pi = stationary(iid_family.limit)
        f = Observable(np.full(200, 3.0))
        assert asymptotic_variance(pi, iid_family.limit, f) == pytest.approx(0.0, abs=1e-12)

    def test_identical_rows_kernel_gives_row_variance(self):
        """For a rank-one kernel theta(f) is the plain variance under the row."""
        rng = np.random.default_rng(7)
        row = random_stochastic(rng, 30)[0]
        kern = TruncatedKernel(np.tile(row, (30, 1)))
        f = Observable(rng.uniform(-2, 2, 30))
        direct = float(row @ f.values**2 - (row @ f.values) ** 2)
        val = asymptotic_variance(stationary(kern), kern, f)
        assert val == pytest.approx(direct, abs=1e-12)

    def test_large_limit_model_is_held_in_linear_memory(self):
        """At N = 32767 a dense limit would take 8 GiB; the limit held as its
        one row, pi = b and the rate model of two observables peak under
        32 MiB together."""
        size = 32767
        obs = ObservableSet((indicator_observable(1, size), capped_identity_observable(3, size)))
        tracemalloc.start()
        try:
            lim = make_limit_kernel("zeta2", size)
            model = build_rate_model(lim, obs, stationary(lim))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        q = 6 / np.pi**2
        assert model.theta(0) == pytest.approx(q * (1 - q), rel=1e-12)

    def test_zeta2_indicator_value(self, q_zeta2):
        lim = make_limit_kernel("zeta2", 1000)
        pi = stationary(lim)
        f = indicator_observable(1, 1000)
        assert asymptotic_variance(pi, lim, f) == pytest.approx(
            q_zeta2 * (1 - q_zeta2), abs=1e-12
        )

    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        kern = TruncatedKernel(random_stochastic(rng, 25))
        pi = stationary(kern)
        for _ in range(20):
            f = Observable(rng.uniform(-1, 1, 25))
            c = rng.uniform(-5, 5)
            a = asymptotic_variance(pi, kern, f)
            b = asymptotic_variance(pi, kern, Observable(f.values + c))
            assert b == pytest.approx(a, abs=1e-10)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(13)
        kern = TruncatedKernel(random_stochastic(rng, 25))
        pi = stationary(kern)
        f = Observable(rng.uniform(-1, 1, 25))
        base = asymptotic_variance(pi, kern, f)
        for a in (-2.0, 0.5, 3.7):
            scaled = asymptotic_variance(pi, kern, Observable(f.values * a))
            assert scaled == pytest.approx(a**2 * base, rel=1e-10)
            # hence the 1-d rate is invariant under joint rescaling
            assert rate_1d(a * 0.3, scaled) == pytest.approx(rate_1d(0.3, base), rel=1e-10)

    def test_broken_pi_detected(self):
        rng = np.random.default_rng(17)
        kern = TruncatedKernel(random_stochastic(rng, 10))
        wrong_pi = np.full(10, 0.1)  # not stationary for a random kernel
        f = Observable(rng.uniform(-1, 1, 10))
        with pytest.raises(RateComputationError):
            asymptotic_variance(wrong_pi, kern, f)


class TestRate1d:
    def test_zero_point(self):
        assert rate_1d(0.0, 1.3) == 0.0

    def test_unit_values(self):
        assert rate_1d(1.0, 1.0) == pytest.approx(0.5)

    def test_zeta2_theta_value(self):
        assert rate_1d(0.5, 0.23836) == pytest.approx(0.25 / (2 * 0.23836), rel=1e-12)
        assert rate_1d(0.5, 0.23836) == pytest.approx(0.52442, abs=5e-6)

    @pytest.mark.parametrize("x", [1e300, -1e300, 1.7e308, -1.7e308])
    def test_overflowing_square_is_infinite(self, x):
        """x^2 above the largest float is a rate of +inf, not an OverflowError."""
        assert rate_1d(x, 0.2) == math.inf

    def test_largest_finite_square_is_unchanged(self):
        assert rate_1d(1e154, 0.5) == 1e154**2

    def test_nonpositive_theta_rejected(self):
        with pytest.raises(ThetaPositivityError):
            rate_1d(1.0, 0.0)
        with pytest.raises(ThetaPositivityError):
            rate_1d(1.0, -0.2)


class TestCovarianceMatrix:
    def test_single_observable_reduces_to_theta(self, iid_family, ind200):
        pi = stationary(iid_family.limit)
        Q = covariance_matrix(pi, iid_family.limit, ObservableSet((ind200,)))
        theta = asymptotic_variance(pi, iid_family.limit, ind200)
        assert Q.shape == (1, 1) and Q[0, 0] == pytest.approx(theta, abs=1e-14)

    def test_duplicated_observable_makes_rank_one(self, iid_family, ind200):
        pi = stationary(iid_family.limit)
        Q = covariance_matrix(pi, iid_family.limit, ObservableSet((ind200, ind200)))
        assert Q[0, 0] == pytest.approx(Q[0, 1], abs=1e-14)
        assert Q[0, 0] == pytest.approx(Q[1, 1], abs=1e-14)
        assert np.linalg.matrix_rank(Q, tol=1e-10) == 1

    def test_quadratic_form_identity(self):
        """z'Qz must equal the variance of the z-weighted combination."""
        lim = make_limit_kernel("zeta2", 200)
        pi = stationary(lim)
        obs = ObservableSet(
            (
                indicator_observable(1, 200),
                indicator_observable(2, 200),
                capped_identity_observable(4, 200),
            )
        )
        Q = covariance_matrix(pi, lim, obs)
        rng = np.random.default_rng(23)
        for _ in range(100):
            z = rng.uniform(-2, 2, 3)
            theta_z = asymptotic_variance(pi, lim, obs.combine(z))
            assert float(z @ Q @ z) == pytest.approx(theta_z, abs=1e-10)

    @pytest.mark.parametrize("pi_size, obs_size", [(199, 200), (200, 199)],
                             ids=["pi", "observables"])
    def test_size_mismatch_is_a_validation_error(self, iid_family, pi_size, obs_size):
        pi = np.full(pi_size, 1.0 / pi_size)
        obs = ObservableSet((indicator_observable(1, obs_size),))
        with pytest.raises(KernelValidationError, match="sizes must agree"):
            covariance_matrix(pi, iid_family.limit, obs)


class TestRateMulti:
    def test_zero_is_free(self):
        assert rate_multi(np.zeros(3), np.eye(3)) == 0.0

    def test_identity_quadratic(self):
        assert rate_multi(np.array([1.0, 1.0]), np.eye(2)) == pytest.approx(1.0)

    def test_off_range_is_infinite(self):
        assert rate_multi(np.array([0.0, 1.0]), np.diag([1.0, 0.0])) == math.inf

    def test_matches_ascent_oracle_on_range_points(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            m = int(rng.integers(2, 5))
            Q = random_psd(rng, m)
            x = Q @ rng.standard_normal(m)
            val = rate_multi(x, Q)
            assert_dominates_chords(x, Q, val)
            assert val == pytest.approx(ascent_supremum(x, Q), abs=1e-6)

    def test_level_sets_bounded_on_range(self):
        """Points of the level set {rate <= l} have norm <= sqrt(2 l lam_max)."""
        rng = np.random.default_rng(41)
        Q = random_psd(rng, 3)
        lam_max = np.linalg.eigvalsh(Q).max()
        level = 2.5
        for _ in range(200):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            denom = rate_multi(u, Q)
            if not math.isfinite(denom) or denom <= 0:
                continue
            boundary = u * math.sqrt(level / denom)
            assert np.linalg.norm(boundary) <= math.sqrt(2 * level * lam_max) + 1e-9

    @pytest.mark.parametrize("x, Q", [(np.ones(3), np.eye(2)), (np.ones(2), np.ones((2, 3)))],
                             ids=["longer_x", "non_square_Q"])
    def test_size_mismatch_is_a_validation_error(self, x, Q):
        with pytest.raises(KernelValidationError, match="square Q"):
            rate_multi(x, Q)


class TestMeasureRate:
    def test_zero_measure_costs_nothing(self, iid_family, ind200):
        pi = stationary(iid_family.limit)
        nu = AtomicSignedMeasure({})
        obs = ObservableSet((ind200,))
        assert measure_rate_lower_bound(nu, pi, iid_family.limit, obs) == 0.0

    def test_single_observable_reduces_to_rate_1d(self, iid_family, ind200):
        pi = stationary(iid_family.limit)
        nu = AtomicSignedMeasure({1: 0.35})  # <f, nu> = 0.35 for the state-1 indicator
        obs = ObservableSet((ind200,))
        theta = asymptotic_variance(pi, iid_family.limit, ind200)
        val = measure_rate_lower_bound(nu, pi, iid_family.limit, obs)
        assert val == pytest.approx(rate_1d(0.35, theta), rel=1e-10)

    def test_nested_families_are_monotone(self, iid_family):
        """Adding observables can only tighten the lower bound."""
        pi = stationary(iid_family.limit)
        rng = np.random.default_rng(43)
        nu = AtomicSignedMeasure({int(s): float(w) for s, w in
                                  zip(rng.integers(1, 20, 6), rng.uniform(-0.2, 0.2, 6))})
        fs = [
            indicator_observable(1, 200),
            indicator_observable(3, 200),
            capped_identity_observable(5, 200),
        ]
        bounds = [
            measure_rate_lower_bound(nu, pi, iid_family.limit, ObservableSet(tuple(fs[:m])))
            for m in (1, 2, 3)
        ]
        assert bounds[0] <= bounds[1] + 1e-12
        assert bounds[1] <= bounds[2] + 1e-12

    def test_pair_reads_each_atom_off_the_values(self):
        """<f, nu> = sum_x nu(x) f(x); an integral float atom is that state."""
        nu = AtomicSignedMeasure({2: 0.5, 5.0: -1.0, 200: 0.25})
        assert nu.pair(Observable(np.arange(1.0, 201.0))) == 0.5 * 2 - 5 + 0.25 * 200

    @pytest.mark.parametrize("atom", [0, 3.5, 201])
    def test_atom_off_the_states_is_a_validation_error(self, atom):
        """Every observable lives on 1..N: an atom elsewhere has no value to read."""
        nu = AtomicSignedMeasure({1: 0.5, atom: 1.0})
        with pytest.raises(KernelValidationError, match=f"atom {atom} is not a state in 1..200"):
            nu.pair(Observable(np.arange(1.0, 201.0)))

    def test_size_mismatch_is_a_validation_error(self, iid_family):
        pi = stationary(iid_family.limit)
        obs = ObservableSet((indicator_observable(1, 150),))
        with pytest.raises(KernelValidationError, match="sizes must agree"):
            measure_rate_lower_bound(AtomicSignedMeasure({1: 0.3}), pi, iid_family.limit, obs)


class TestRateModel:
    def test_build_and_export(self, iid_family, ind200):
        model = build_rate_model(iid_family.limit, ObservableSet((ind200,)))
        payload = model.to_json_dict()
        assert set(payload) == {"theta", "Q", "pi_residual"}
        assert payload["Q"][0][0] == pytest.approx(payload["theta"][0], abs=1e-14)
        assert payload["pi_residual"] <= 1e-10

    def test_diag_matches_theta(self):
        lim = make_limit_kernel("zeta4", 100)
        obs = ObservableSet((indicator_observable(1, 100), capped_identity_observable(3, 100)))
        model = build_rate_model(lim, obs)
        for l, f in enumerate(obs):
            assert model.theta(l) == pytest.approx(
                asymptotic_variance(model.pi, lim, f), abs=1e-12
            )
