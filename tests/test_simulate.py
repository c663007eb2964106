import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

import nhmc
from nhmc import (
    KernelValidationError,
    Observable,
    ObservableSet,
    SpeedFunction,
    ThetaPositivityError,
    asymptotic_variance,
    clt_diagnostic,
    empirical_functionals,
    expected_sum,
    indicator_observable,
    martingale_check,
    mdp_diagnostic,
    sample_trajectory,
    simulate_sums,
    stationary,
    zeta2_family,
)


class TestSpeedFunction:
    def test_value(self):
        assert SpeedFunction(0.6)(1000) == pytest.approx(1000**0.6)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 0.2, 1.4])
    def test_exponent_range_is_strict(self, beta):
        with pytest.raises(KernelValidationError):
            SpeedFunction(beta)

    def test_scale_log(self):
        sp = SpeedFunction(0.75)
        assert sp.scale_log(100, -2.0) == pytest.approx(100 / 100**1.5 * -2.0)


class TestSimulateSums:
    def test_single_trial_reproduces_trajectory_sum(self, zeta2_small, start200, ind200):
        sums = simulate_sums(start200, zeta2_small, ind200, 50, 1, base_seed=42)
        path = sample_trajectory(42, start200, zeta2_small, 50)
        assert sums[0] == pytest.approx((path[1:] == 1).sum())

    def test_mean_within_monte_carlo_error(self, iid_family, start200, ind200, q_zeta2):
        trials = 10**5
        sums = simulate_sums(start200, iid_family, ind200, 60, trials, 8)
        se = sums.std(ddof=1) / math.sqrt(trials)
        assert abs(sums.mean() - 60 * q_zeta2) <= 4 * se

    def test_worker_count_does_not_change_output(self, zeta2_small, start200, ind200):
        a = simulate_sums(start200, zeta2_small, ind200, 200, 3000, 5, workers=1)
        b = simulate_sums(start200, zeta2_small, ind200, 200, 3000, 5, workers=8)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_horizon_grid_equals_one_call_per_horizon(self, zeta2_small, start200, workers):
        """Grid sums come off one set of paths and must match, bit for bit, a
        separate pass per horizon, also for a non-integer observable."""
        table = Observable(np.random.default_rng(3).normal(size=200) / 7.0)
        obs = ObservableSet((indicator_observable(1, 200), table))
        grid = [0, 7, 50, 120]
        sums = simulate_sums(start200, zeta2_small, obs, grid, 4500, 13, workers=workers)
        assert sums.shape == (len(grid), 4500, 2)  # two blocks: 4096 + 404 trials
        for i, n in enumerate(grid):
            np.testing.assert_array_equal(
                sums[i], simulate_sums(start200, zeta2_small, obs, n, 4500, 13)
            )
        single = simulate_sums(start200, zeta2_small, table, grid, 4500, 13, workers=workers)
        assert single.shape == (len(grid), 4500)
        for i, n in enumerate(grid):
            np.testing.assert_array_equal(
                single[i], simulate_sums(start200, zeta2_small, table, n, 4500, 13)
            )

    def test_table_sums_do_not_depend_on_the_observable_set(self, zeta2_small, start200):
        """A non-integer observable's sums are the same bits alone and next to
        others, in either position."""
        table = Observable(np.random.default_rng(5).normal(size=200) / 7.0)
        other = indicator_observable(2, 200)
        grid = [50, 120, 700]
        alone = simulate_sums(start200, zeta2_small, table, grid, 700, 21)
        first = simulate_sums(start200, zeta2_small, ObservableSet((table, other)), grid, 700, 21)
        last = simulate_sums(start200, zeta2_small, ObservableSet((other, other, table)),
                             grid, 700, 21)
        np.testing.assert_array_equal(first[..., 0], alone)
        np.testing.assert_array_equal(last[..., 2], alone)

    def test_sums_do_not_depend_on_block_and_tile_budgets(self, zeta2_small, start200,
                                                          monkeypatch):
        """Blocks of a few trials and tiles of a few steps give the bits of one
        block in one tile, non-integer observables included."""
        obs = ObservableSet((indicator_observable(1, 200),
                             Observable(np.random.default_rng(6).normal(size=200) / 3.0)))
        grid = [3, 255, 256, 257, 600]
        whole = simulate_sums(start200, zeta2_small, obs, grid, 90, 31)
        monkeypatch.setattr(nhmc.sampling, "_MIN_TILE", 1)
        monkeypatch.setattr(nhmc.sampling, "_BLOCK_BYTES", 20 * (4 * 601 + 8 * 7))
        assert len(next(nhmc.sampling.iter_seed_blocks(np.arange(90), 600))) == 20
        assert nhmc.sampling._tile_width(20, 601, 4) == 7
        np.testing.assert_array_equal(simulate_sums(start200, zeta2_small, obs, grid, 90, 31),
                                      whole)

    def test_negative_horizon_in_grid_rejected(self, zeta2_small, start200, ind200):
        with pytest.raises(KernelValidationError, match="horizons"):
            simulate_sums(start200, zeta2_small, ind200, [5, -1, 9], 10, 1)

    def test_observable_set_returns_matrix(self, zeta2_small, start200):
        obs = ObservableSet(
            (indicator_observable(1, 200), indicator_observable(2, 200))
        )
        sums = simulate_sums(start200, zeta2_small, obs, 30, 10, 1)
        assert sums.shape == (10, 2)


class TestCltDiagnostic:
    def test_null_calibration(self):
        """Exact normal samples stay under the 99th-percentile KS band."""
        rng = np.random.default_rng(20260810)
        n, theta, ev, m = 400, 0.25, 37.0, 5000
        samples = ev + math.sqrt(n * theta) * rng.standard_normal(m)
        diag = clt_diagnostic(samples, ev, theta, n)
        assert diag.ks_statistic <= 1.63 / math.sqrt(m)
        assert 0.9 <= diag.variance_ratio <= 1.1

    def test_wrong_scaling_detected(self):
        rng = np.random.default_rng(7)
        samples = 3.0 * rng.standard_normal(5000)
        diag = clt_diagnostic(samples, 0.0, 1.0, 1)  # claims variance 1, actual 9
        assert diag.ks_statistic > 0.2
        assert diag.variance_ratio > 5

    def test_nonpositive_theta_rejected(self):
        with pytest.raises(ThetaPositivityError):
            clt_diagnostic(np.zeros(2000), 0.0, 0.0, 10)

    def test_too_few_samples_rejected(self):
        with pytest.raises(KernelValidationError):
            clt_diagnostic(np.arange(10.0), 0.0, 1.0, 10)

    def test_degenerate_samples_rejected(self):
        with pytest.raises(KernelValidationError):
            clt_diagnostic(np.full(2000, 3.0), 3.0, 1.0, 10)


@pytest.fixture(scope="module")
def theta_iid(iid_family, ind200):
    pi = stationary(iid_family.limit)
    return asymptotic_variance(pi, iid_family.limit, ind200)


class TestMdpDiagnostic:
    def test_zero_threshold_has_vanishing_exponent(self, iid_family, start200, ind200,
                                                   theta_iid):
        sp = SpeedFunction(0.6)
        ests = mdp_diagnostic(iid_family, start200, ind200, sp, [0.0],
                              [200, 800, 3200], theta_iid)
        probs = [math.exp(e.log_prob) for e in ests]
        assert all(0.4 <= p <= 0.6 for p in probs)  # tail at the mean is about 1/2
        scaled = [abs(e.scaled) for e in ests]
        assert scaled[-1] < scaled[0]
        assert all(e.target == 0.0 for e in ests)

    def test_scaled_antitone_in_threshold(self, iid_family, start200, ind200, theta_iid):
        """Exact-DP tail exponents fall as the threshold moves outward."""
        sp = SpeedFunction(0.6)
        ests = mdp_diagnostic(iid_family, start200, ind200, sp,
                              [0.0, 0.2, 0.4, 0.8], [1000], theta_iid)
        scaled = [e.scaled for e in ests]
        assert all(b < a for a, b in zip(scaled, scaled[1:]))

    @pytest.mark.parametrize("n_grid", [[200], [200, 800], [50, 200, 800, 1600]],
                             ids=["one", "two", "four"])
    def test_exact_dp_sweeps_and_propagates_once_per_grid(self, iid_family, start200, ind200,
                                                          theta_iid, monkeypatch, n_grid):
        """Whatever the grid's length, one DP sweep to its largest horizon and
        one propagation (the DP's own mean check, which also supplies E S_n)
        serve every horizon."""
        def second_propagation(*args):
            raise AssertionError("E S_n propagated outside the DP")

        sweeps, propagations = [], []
        real_sweep, real_steps = nhmc.sumdist._window_sweep, nhmc.kernels._propagation_steps

        def sweep(*args):
            sweeps.append(args[-1])
            return real_sweep(*args)

        def steps(mu0, family, n):
            propagations.append(n)
            return real_steps(mu0, family, n)

        monkeypatch.setattr(nhmc.simulate, "expected_sum", second_propagation)
        monkeypatch.setattr(nhmc.sumdist, "_window_sweep", sweep)
        monkeypatch.setattr(nhmc.kernels, "_propagation_steps", steps)
        ests = mdp_diagnostic(iid_family, start200, ind200, SpeedFunction(0.6), [0.0],
                              n_grid, theta_iid)
        assert [e.n for e in ests] == n_grid
        assert sweeps == [tuple(n_grid)] and propagations == [n_grid[-1]]

    def test_monte_carlo_propagates_once_per_grid(self, iid_family, start200, ind200,
                                                  theta_iid, monkeypatch):
        propagations = []
        real_steps = nhmc.kernels._propagation_steps

        def steps(mu0, family, n):
            propagations.append(n)
            return real_steps(mu0, family, n)

        monkeypatch.setattr(nhmc.kernels, "_propagation_steps", steps)
        ests = mdp_diagnostic(iid_family, start200, ind200, SpeedFunction(0.6), [0.0, 0.3],
                              [20, 60, 90], theta_iid, method="monte_carlo", trials=200)
        assert len(ests) == 6 and propagations == [90]

    def test_monte_carlo_tracks_exact_dp(self, iid_family, start200, ind200, theta_iid):
        sp = SpeedFunction(0.6)
        exact = mdp_diagnostic(iid_family, start200, ind200, sp, [0.3], [500],
                               theta_iid, method="exact_dp")[0]
        mc = mdp_diagnostic(iid_family, start200, ind200, sp, [0.3], [500],
                            theta_iid, method="monte_carlo", trials=40000,
                            base_seed=17)[0]
        p_exact = math.exp(exact.log_prob)
        p_mc = math.exp(mc.log_prob)
        se = math.sqrt(p_exact * (1 - p_exact) / 40000)
        assert abs(p_mc - p_exact) <= 4 * se
        assert mc.std_error is not None

    def test_zero_hits_flagged_not_raised(self, iid_family, start200, ind200, theta_iid):
        sp = SpeedFunction(0.9)
        est = mdp_diagnostic(iid_family, start200, ind200, sp, [5.0], [100],
                             theta_iid, method="monte_carlo", trials=50,
                             base_seed=3)[0]
        assert est.zero_hits and est.log_prob == -math.inf

    def test_target_is_quadratic_rate(self, iid_family, start200, ind200, theta_iid):
        sp = SpeedFunction(0.6)
        est = mdp_diagnostic(iid_family, start200, ind200, sp, [0.4], [100], theta_iid)[0]
        assert est.target == pytest.approx(-0.4**2 / (2 * theta_iid), rel=1e-12)

    @pytest.mark.parametrize("method", ["exact_dp", "monte_carlo"])
    @pytest.mark.parametrize("n_grid", [[10, 10], [], [0, 10]], ids=["repeat", "empty", "zero"])
    def test_bad_grid_rejected_before_any_work(self, iid_family, start200, ind200,
                                               theta_iid, monkeypatch, method, n_grid):
        """Repeats, an empty grid and a zero horizon are refused before any
        DP or sampling pass starts."""
        def no_work(*args, **kwargs):
            raise AssertionError("DP or sampling ran on a bad n_grid")

        monkeypatch.setattr(nhmc.simulate, "simulate_sums", no_work)
        monkeypatch.setattr(nhmc.simulate, "exact_sum_distribution", no_work)
        with pytest.raises(KernelValidationError, match="n_grid"):
            mdp_diagnostic(iid_family, start200, ind200, SpeedFunction(0.6), [0.3],
                           n_grid, theta_iid, method=method, trials=10)


class TestEmpiricalFunctionals:
    def test_single_observable_consistent_with_sums(self, zeta2_small, start200, ind200):
        sp = SpeedFunction(0.6)
        n, trials = 100, 64
        vals = empirical_functionals(zeta2_small, start200, ObservableSet((ind200,)),
                                     sp, n, trials, 5)
        sums = simulate_sums(start200, zeta2_small, ind200, n, trials, 5)
        expected = expected_sum(start200, zeta2_small, ind200, n)
        np.testing.assert_allclose(vals[:, 0], (sums - expected) / sp(n), atol=1e-10)

    def test_negated_observable_negates_coordinate(self, zeta2_small, start200, ind200):
        sp = SpeedFunction(0.6)
        neg = Observable(-ind200.values, -ind200.tail_value)
        vals = empirical_functionals(zeta2_small, start200, ObservableSet((ind200, neg)),
                                     sp, 50, 32, 9)
        np.testing.assert_allclose(vals[:, 1], -vals[:, 0], atol=1e-12)

    def test_crude_bound_holds(self, zeta2_small, start200, ind200):
        sp = SpeedFunction(0.6)
        n = 80
        vals = empirical_functionals(zeta2_small, start200, ObservableSet((ind200,)),
                                     sp, n, 128, 2)
        assert np.abs(vals).max() <= 2 * n * ind200.bound / sp(n)

    def test_half_space_probability_reduces_to_one_dimensional(
        self, iid_family, start200, ind200
    ):
        """P(y_1 >= x) from the functional vectors equals the 1-d MC tail."""
        sp = SpeedFunction(0.6)
        pi = stationary(iid_family.limit)
        theta = asymptotic_variance(pi, iid_family.limit, ind200)
        n, trials, x = 400, 20000, 0.3
        obs = ObservableSet((ind200, indicator_observable(2, 200)))
        vals = empirical_functionals(iid_family, start200, obs, sp, n, trials, 23)
        p_vec = (vals[:, 0] >= x - 1e-9).mean()
        est = mdp_diagnostic(iid_family, start200, ind200, sp, [x], [n], theta,
                             method="monte_carlo", trials=trials, base_seed=23)[0]
        assert p_vec == pytest.approx(math.exp(est.log_prob), abs=1e-12)
        Q = nhmc.covariance_matrix(pi, iid_family.limit, obs)
        assert est.target == pytest.approx(-x**2 / (2 * Q[0, 0]), rel=1e-10)


class TestMartingaleCheck:
    def test_rank_one_kernel_has_zero_drift(self, iid_family, start200, ind200):
        """(P g)(i) is constant for identical rows, so the drift vanishes exactly."""
        res = martingale_check(iid_family, start200, ObservableSet((ind200,)), [1.0],
                               [50, 100], trials=16, base_seed=1)
        np.testing.assert_allclose(res.drift_values, 0.0, atol=1e-12)

    def test_rank_one_kernel_variance_is_theta(self, iid_family, start200, ind200,
                                               q_zeta2):
        res = martingale_check(iid_family, start200, ObservableSet((ind200,)), [1.0],
                               [10, 40], trials=8, base_seed=1)
        direct = q_zeta2 * (1 - q_zeta2)
        np.testing.assert_allclose(res.variance_values, direct, atol=1e-12)
        assert res.theta_g == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("n_grid", [[], [0], [10, 10]])
    def test_empty_zero_or_repeated_grid_is_a_validation_error(self, iid_family, start200,
                                                               ind200, n_grid):
        with pytest.raises(KernelValidationError):
            martingale_check(iid_family, start200, ObservableSet((ind200,)), [1.0], n_grid,
                             trials=4)

    def test_band_step_matches_dense_step(self):
        """The O(N) band pull and the dense kernel rows give the same variance profile."""
        fam = zeta2_family(0.75, 60)
        twin = nhmc.table_family([fam.kernel_at(k) for k in range(1, 41)], fam.limit)
        obs = ObservableSet((indicator_observable(1, 60), indicator_observable(2, 60)))
        mu0 = nhmc.point_mass(1, 60)
        band, dense = (
            martingale_check(f, mu0, obs, [1.0, -0.5], [10, 40], trials=16, base_seed=3)
            for f in (fam, twin)
        )
        np.testing.assert_allclose(band.variance_values, dense.variance_values,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["zeta2", "zeta4"])
    def test_renormalize_variance_matches_dense_twin(self, kind):
        fam = (zeta2_family(0.75, 60, nhmc.TailPolicy.RENORMALIZE) if kind == "zeta2"
               else nhmc.zeta4_family(0.75, 1.0, 60, nhmc.TailPolicy.RENORMALIZE))
        twin = dataclasses.replace(fam, structure=None)
        obs = ObservableSet((indicator_observable(1, 60), indicator_observable(60, 60)))
        mu0 = nhmc.uniform_initial(60)
        band, dense = (
            martingale_check(f, mu0, obs, [1.0, -0.5], [10, 80], trials=16, base_seed=3)
            for f in (fam, twin)
        )
        np.testing.assert_allclose(band.variance_values, dense.variance_values,
                                   rtol=1e-12, atol=0)

    def test_start_with_tail_mass_rejected_before_exact_pass(self, zeta2_small,
                                                            monkeypatch):
        def no_propagation(*args):
            raise AssertionError("the exact pass ran")

        monkeypatch.setattr(nhmc.simulate, "_propagation_steps", no_propagation)
        mu0 = nhmc.InitialDistribution(np.full(200, 0.9 / 200), tail_mass=0.1)
        obs = ObservableSet((indicator_observable(1, 200),))
        with pytest.raises(KernelValidationError, match="resolve all mass"):
            martingale_check(zeta2_small, mu0, obs, [1.0], [10], trials=8, theta_value=0.2)

    def test_monte_carlo_pass_memory_is_bounded(self):
        """The pass walks the steps without keeping them: one length-N vector
        per step alone would be 40 MB at N=1000 and n=5000."""
        fam = zeta2_family(0.75, 1000)
        obs = ObservableSet((indicator_observable(1, 1000),))
        tracemalloc.start()
        try:
            martingale_check(fam, nhmc.point_mass(1, 1000), obs, [1.0], [5000], trials=16,
                             base_seed=5, theta_value=0.2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("policy", list(nhmc.TailPolicy))
    def test_output_does_not_depend_on_block_and_tile_budgets(self, policy, monkeypatch):
        """Walk blocks of 16 trials and tiles of 5 steps give the bits of one
        block in one tile; renormalize exercises the last-row term."""
        fam = zeta2_family(0.75, 40, policy)
        obs = ObservableSet((indicator_observable(1, 40), indicator_observable(40, 40),
                             Observable(np.random.default_rng(8).normal(size=40))))
        mu0 = nhmc.uniform_initial(40)

        def run():
            return martingale_check(fam, mu0, obs, [1.0, -0.5, 0.25], [7, 64, 300],
                                    trials=70, base_seed=9)

        whole = run()
        monkeypatch.setattr(nhmc.sampling, "_MIN_TILE", 5)
        monkeypatch.setattr(nhmc.sampling, "_BLOCK_BYTES", 16 * 8 * 5)
        assert len(next(nhmc.sampling.iter_seed_blocks(np.arange(70), 300, paths=False))) == 16
        assert nhmc.sampling._tile_width(16, 301, 0) == 5
        tiled = run()
        for field in ("drift_values", "variance_values", "theta_g", "max_pathwise_residual"):
            np.testing.assert_array_equal(getattr(tiled, field), getattr(whole, field))

    def test_pathwise_identity_residual_is_float_noise(self, zeta2_small, start200):
        obs = ObservableSet(
            (indicator_observable(1, 200), indicator_observable(3, 200))
        )
        res = martingale_check(zeta2_small, start200, obs, [1.0, -0.5], [200, 1000],
                               trials=64, base_seed=6)
        assert res.max_pathwise_residual <= 1e-10

    def test_variance_profile_approaches_theta(self, zeta2_small, start200, ind200):
        res = martingale_check(zeta2_small, start200, ObservableSet((ind200,)), [1.0],
                               [100, 1000, 4000], trials=8, base_seed=2)
        gaps = np.abs(res.variance_values - res.theta_g)
        assert gaps[-1] < gaps[0]
        assert gaps[-1] <= 0.01

    def test_drift_shrinks_with_horizon(self, zeta2_small, start200, ind200):
        res = martingale_check(zeta2_small, start200, ObservableSet((ind200,)), [1.0],
                               [100, 1000, 10000], trials=128, base_seed=4)
        assert res.drift_values[-1] < res.drift_values[0]
