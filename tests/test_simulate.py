import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr
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
    indicator_observable,
    martingale_check,
    mdp_diagnostic,
    rate_1d,
    sample_paths,
    simulate_sums,
    stationary,
    zeta2_family,
)
from nhmc.simulate import _normal_cdf

from conftest import martingale_theta


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
        path = sample_paths([0], start200, zeta2_small, 50, 42)[0] + 1
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
        grid = [1, 7, 50, 120]
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

    def test_sums_do_not_depend_on_the_block_budget(self, zeta2_small, start200, monkeypatch):
        """Blocks of a few trials give the bits of one block, non-integer
        observables included."""
        obs = ObservableSet((indicator_observable(1, 200),
                             Observable(np.random.default_rng(6).normal(size=200) / 3.0)))
        grid = [3, 255, 256, 257, 600]
        whole = simulate_sums(start200, zeta2_small, obs, grid, 90, 31)
        monkeypatch.setattr(nhmc.sampling, "_BLOCK_BYTES", 20 * 4 * 601)
        assert len(next(nhmc.sampling.iter_seed_blocks(np.arange(90), 600))) == 16
        np.testing.assert_array_equal(simulate_sums(start200, zeta2_small, obs, grid, 90, 31),
                                      whole)

    def test_rows_pair_with_expected_sum_on_an_unsorted_grid(self, zeta2_small, start200,
                                                             ind200):
        """Both read the grid [9, 5] as (5, 9): row i of the sums and of the
        means are the same horizon, so a caller can zip them."""
        sums = simulate_sums(start200, zeta2_small, ind200, [9, 5], 40, 3)
        expected = nhmc.expected_sum(start200, zeta2_small, ind200, [9, 5])
        for i, n in enumerate((5, 9)):
            np.testing.assert_array_equal(sums[i],
                                          simulate_sums(start200, zeta2_small, ind200, n, 40, 3))
            assert expected[i] == nhmc.expected_sum(start200, zeta2_small, ind200, n)

    def test_negative_horizon_in_grid_rejected(self, zeta2_small, start200, ind200):
        with pytest.raises(KernelValidationError, match="horizons"):
            simulate_sums(start200, zeta2_small, ind200, [5, -1, 9], 10, 1)

    @pytest.mark.parametrize("n", [[5.9], 5.9, True, [True, 3]],
                             ids=["grid_fraction", "fraction", "bool", "grid_bool"])
    def test_non_integer_horizon_rejected(self, zeta2_small, start200, ind200, n):
        """A fraction or a bool is refused, never truncated to a horizon."""
        with pytest.raises(KernelValidationError, match="horizons entry must be an integer"):
            simulate_sums(start200, zeta2_small, ind200, n, 3, 1)

    def test_integral_float_horizon_is_that_integer(self, zeta2_small, start200, ind200):
        np.testing.assert_array_equal(simulate_sums(start200, zeta2_small, ind200, [5.0], 3, 1),
                                      simulate_sums(start200, zeta2_small, ind200, [5], 3, 1))

    @pytest.mark.parametrize("trials", [2.5, True], ids=["fraction", "bool"])
    def test_non_integer_trial_count_rejected(self, zeta2_small, start200, ind200, trials):
        """A fraction or a bool is refused, never rounded to a trial count."""
        with pytest.raises(KernelValidationError, match="trials must be an integer"):
            simulate_sums(start200, zeta2_small, ind200, 5, trials, 1)

    @pytest.mark.parametrize("trials", [0, -2])
    def test_trial_count_below_one_rejected(self, zeta2_small, start200, ind200, trials):
        with pytest.raises(KernelValidationError, match="trials must be >= 1"):
            simulate_sums(start200, zeta2_small, ind200, 5, trials, 1)

    def test_integral_float_trial_count_is_that_integer(self, zeta2_small, start200, ind200):
        sums = simulate_sums(start200, zeta2_small, ind200, 5, 3.0, 1)
        assert sums.shape == (3,)
        np.testing.assert_array_equal(sums, simulate_sums(start200, zeta2_small, ind200, 5, 3, 1))

    def test_observable_set_returns_matrix(self, zeta2_small, start200):
        obs = ObservableSet(
            (indicator_observable(1, 200), indicator_observable(2, 200))
        )
        sums = simulate_sums(start200, zeta2_small, obs, 30, 10, 1)
        assert sums.shape == (10, 2)

    @pytest.mark.parametrize("obs_size, start_size, match", [
        (40, 30, "observable size"), (20, 30, "observable size"),
        (30, 20, "initial distribution size"),
    ], ids=["observable_40", "observable_20", "start_20"])
    def test_sizes_off_the_family_rejected_before_sampling(self, monkeypatch, obs_size,
                                                           start_size, match):
        """An observable or a start law on another state count than the
        family's is refused before any path is sampled: a longer observable
        was read at the family's states alone, a shorter one raised IndexError."""
        def no_sampling(*args):
            raise AssertionError("paths were sampled")

        monkeypatch.setattr(nhmc.simulate, "sample_paths", no_sampling)
        fam = zeta2_family(0.75, 30)
        for f in (indicator_observable(1, obs_size),
                  ObservableSet((indicator_observable(1, obs_size),))):
            with pytest.raises(KernelValidationError, match=match):
                simulate_sums(nhmc.point_mass(1, start_size), fam, f, [10, 20], 8, 1)


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

    def test_zero_horizon_rejected(self):
        with pytest.raises(KernelValidationError, match="horizon"):
            clt_diagnostic(np.arange(2000.0), 0.0, 1.0, 0)

    def test_normal_cdf_matches_ndtr_in_both_tails(self):
        z = np.linspace(-38.0, 9.0, 47001)
        cdf, oracle = _normal_cdf(z), ndtr(z)
        np.testing.assert_allclose(cdf, oracle, rtol=1e-14, atol=2.3e-16)
        # relative, where the oracle is a normal float: ndtr takes exp(-z²/2)
        # unsplit, so its own error grows by about z²/2 ulp (5.7e-14 near
        # z = -35 against 50-digit arithmetic, where erfc stays within 3e-16);
        # 0.5 + 0.5·erf returns 0 from z = -8.4 on
        normal = oracle >= np.finfo(float).tiny
        rel = np.abs(cdf[normal] - oracle[normal]) / oracle[normal]
        assert (rel <= 1e-14 + z[normal] ** 2 / 2 * np.finfo(float).eps).all()
        assert z[normal].min() < -37

    def test_ks_statistic_matches_an_ndtr_recomputation(self):
        """Integer sums, as the clt command feeds it: ties and a skewed law."""
        n, p = 60, 0.2
        samples = np.random.default_rng(2).binomial(n, p, 40000).astype(float)
        diag = clt_diagnostic(samples, n * p, p * (1 - p), n)
        centered = samples - n * p
        cdf = ndtr(np.sort(centered / math.sqrt(n * p * (1 - p))))
        m = cdf.size
        ks = max((np.arange(1, m + 1) / m - cdf).max(), (cdf - np.arange(0, m) / m).max())
        assert diag.ks_statistic == pytest.approx(ks, rel=1e-14, abs=0)
        assert diag.variance_ratio == float(centered.var(ddof=1) / n / (p * (1 - p)))


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

    @pytest.mark.parametrize("method", ["exact_dp", "monte_carlo"])
    def test_non_finite_x_rejected_before_any_pass(self, iid_family, start200, ind200,
                                                   theta_iid, monkeypatch, method):
        def no_pass(*args, **kwargs):
            raise AssertionError("a pass ran")

        monkeypatch.setattr(nhmc.simulate, "exact_sum_distribution", no_pass)
        monkeypatch.setattr(nhmc.simulate, "simulate_sums", no_pass)
        with pytest.raises(KernelValidationError, match="x_grid entries must be finite"):
            mdp_diagnostic(iid_family, start200, ind200, SpeedFunction(0.6),
                           [0.0, float("nan")], [50], theta_iid, method=method)

    @pytest.mark.parametrize("method", ["exact_dp", "monte_carlo"])
    def test_huge_thresholds_have_certain_tails(self, iid_family, start200, ind200,
                                                theta_iid, method):
        """x = +-1e300 (and x a(n) overflowing at 1.7e308) give tails of 0 and 1,
        where x^2 and the DP threshold used to overflow; the target is -inf
        above and 0 below, the upper tail's limit -inf_{y >= x} y^2/(2 theta)."""
        xs = [1e300, -1e300, 1.7e308, -1.7e308]
        ests = mdp_diagnostic(iid_family, start200, ind200, SpeedFunction(0.6), xs, [50],
                              theta_iid, method=method, trials=200)
        assert [e.x for e in ests] == xs
        assert [e.log_prob for e in ests] == [-math.inf, 0.0, -math.inf, 0.0]
        assert [e.scaled for e in ests] == [-math.inf, 0.0, -math.inf, 0.0]
        assert [e.target for e in ests] == [-math.inf, 0.0, -math.inf, 0.0]

    @pytest.mark.parametrize("n_grid", [[200], [200, 800], [50, 200, 800, 1600]],
                             ids=["one", "two", "four"])
    def test_exact_dp_sweeps_and_propagates_once_per_grid(self, iid_family, start200, ind200,
                                                          theta_iid, monkeypatch, n_grid):
        """Whatever the grid's length, one DP sweep to its largest horizon and
        one pass of the exact means (the DP's own mean check, which also
        supplies E S_n; the band series on this constant family) serve every
        horizon."""
        def second_propagation(*args):
            raise AssertionError("E S_n propagated outside the DP")

        sweeps, propagations = [], []
        real_sweep, real_series = nhmc.sumdist._window_sweep, nhmc.kernels._band_series

        def sweep(*args):
            sweeps.append(args[-1])
            return real_sweep(*args)

        def series(mu0, family, values, n):
            propagations.append(n)
            return real_series(mu0, family, values, n)

        monkeypatch.setattr(nhmc.simulate, "expected_sum", second_propagation)
        monkeypatch.setattr(nhmc.sumdist, "_window_sweep", sweep)
        monkeypatch.setattr(nhmc.kernels, "_band_series", series)
        ests = mdp_diagnostic(iid_family, start200, ind200, SpeedFunction(0.6), [0.0],
                              n_grid, theta_iid)
        assert [e.n for e in ests] == n_grid
        assert sweeps == [tuple(n_grid)] and propagations == [n_grid[-1]]

    def test_monte_carlo_propagates_once_per_grid(self, iid_family, start200, ind200,
                                                  theta_iid, monkeypatch):
        propagations = []
        real_series = nhmc.kernels._band_series

        def series(mu0, family, values, n):
            propagations.append(n)
            return real_series(mu0, family, values, n)

        monkeypatch.setattr(nhmc.kernels, "_band_series", series)
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

    @pytest.mark.parametrize("trials", [2.5, True], ids=["fraction", "bool"])
    def test_non_integer_trial_count_rejected(self, iid_family, start200, ind200, theta_iid,
                                              trials):
        """Hits are divided by the trial count, so a fraction is refused, not
        sampled as its ceiling and divided as itself."""
        with pytest.raises(KernelValidationError, match="trials must be an integer"):
            mdp_diagnostic(iid_family, start200, ind200, SpeedFunction(0.6), [0.0], [10],
                           theta_iid, method="monte_carlo", trials=trials)

    def test_trial_count_below_one_rejected(self, iid_family, start200, ind200, theta_iid):
        with pytest.raises(KernelValidationError, match="trials must be >= 1"):
            mdp_diagnostic(iid_family, start200, ind200, SpeedFunction(0.6), [0.0], [10],
                           theta_iid, method="monte_carlo", trials=0)

    def test_integral_float_trial_count_is_that_integer(self, iid_family, start200, ind200,
                                                        theta_iid):
        """Hits are divided by the trial count itself: 3.0 gives the estimate of 3."""
        est, ref = (
            mdp_diagnostic(iid_family, start200, ind200, SpeedFunction(0.6), [0.0], [10],
                           theta_iid, method="monte_carlo", trials=t, base_seed=0)[0]
            for t in (3.0, 3)
        )
        assert est == ref

    def test_target_is_quadratic_rate(self, iid_family, start200, ind200, theta_iid):
        sp = SpeedFunction(0.6)
        est = mdp_diagnostic(iid_family, start200, ind200, sp, [0.4], [100], theta_iid)[0]
        assert est.target == pytest.approx(-0.4**2 / (2 * theta_iid), rel=1e-12)

    def test_target_below_zero_is_zero(self):
        """The upper tail's limit is -inf_{y >= x} y^2/(2 theta), 0 for x <= 0:
        at x = -0.4 the tail tends to 1 and |scaled| falls toward 0, where the
        quadratic rate gave -0.336.  The x = 0.4 rows are those of a run
        without x = -0.4."""
        fam, start, f = zeta2_family(0.75, 30), nhmc.point_mass(1, 30), indicator_observable(1, 30)
        theta = asymptotic_variance(stationary(fam.limit), fam.limit, f)
        sp, n_grid = SpeedFunction(0.6), [500, 2000, 10**4]
        both = mdp_diagnostic(fam, start, f, sp, [-0.4, 0.4], n_grid, theta)
        below = [e for e in both if e.x == -0.4]
        assert [e.target for e in below] == [0.0] * 3
        scaled = [abs(e.scaled) for e in below]
        assert scaled[0] > scaled[1] > scaled[2] and scaled[2] < 0.005
        above = mdp_diagnostic(fam, start, f, sp, [0.4], n_grid, theta)
        assert [e for e in both if e.x == 0.4] == above
        assert above[0].target == -rate_1d(0.4, theta) < -0.3

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


class TestMartingaleCheck:
    def test_rank_one_kernel_has_zero_drift(self, iid_family, start200, ind200):
        """(P g)(i) is constant for identical rows, so the drift vanishes exactly."""
        obs = ObservableSet((ind200,))
        res = martingale_check(iid_family, start200, obs, [1.0], [50, 100], trials=16,
                               base_seed=1, theta_value=martingale_theta(iid_family, obs, [1.0]))
        np.testing.assert_allclose(res.drift_values, 0.0, atol=1e-12)

    def test_rank_one_kernel_variance_is_theta(self, iid_family, start200, ind200,
                                               q_zeta2):
        obs = ObservableSet((ind200,))
        res = martingale_check(iid_family, start200, obs, [1.0], [10, 40], trials=8,
                               base_seed=1, theta_value=martingale_theta(iid_family, obs, [1.0]))
        direct = q_zeta2 * (1 - q_zeta2)
        np.testing.assert_allclose(res.variance_values, direct, atol=1e-12)
        assert res.theta_g == pytest.approx(direct, abs=1e-12)

    def test_theta_is_the_callers(self, iid_family, start200, ind200):
        """θ is an argument: the library computes no stationary law of its own here."""
        obs = ObservableSet((ind200,))
        with pytest.raises(TypeError, match="theta_value"):
            martingale_check(iid_family, start200, obs, [1.0], [10], trials=4)
        res = martingale_check(iid_family, start200, obs, [1.0], [10], trials=4, theta_value=0.3)
        assert res.theta_g == 0.3

    @pytest.mark.parametrize("n_grid", [[], [0], [10, 10]])
    def test_empty_zero_or_repeated_grid_is_a_validation_error(self, iid_family, start200,
                                                               ind200, n_grid):
        with pytest.raises(KernelValidationError):
            martingale_check(iid_family, start200, ObservableSet((ind200,)), [1.0], n_grid,
                             trials=4, theta_value=1.0)

    @pytest.mark.parametrize("trials", [2.5, True], ids=["fraction", "bool"])
    def test_non_integer_trial_count_rejected(self, iid_family, start200, ind200, trials):
        with pytest.raises(KernelValidationError, match="trials must be an integer"):
            martingale_check(iid_family, start200, ObservableSet((ind200,)), [1.0], [10],
                             trials=trials, theta_value=1.0)

    def test_trial_count_below_one_rejected(self, iid_family, start200, ind200):
        with pytest.raises(KernelValidationError, match="trials must be >= 1"):
            martingale_check(iid_family, start200, ObservableSet((ind200,)), [1.0], [10],
                             trials=0, theta_value=1.0)

    @pytest.mark.parametrize("obs_size, start_size, match", [
        (20, 30, "observable size"), (40, 30, "observable size"),
        (30, 20, "initial distribution size"),
    ], ids=["observables_20", "observables_40", "start_20"])
    def test_sizes_off_the_family_rejected_before_any_pass(self, monkeypatch, obs_size,
                                                           start_size, match):
        """Observables or a start law on another state count than the
        family's are refused before the exact pass and the walk, where a
        shorter one raised numpy's broadcast error."""
        def no_pass(*args):
            raise AssertionError("a pass ran")

        for name in ("_band_series", "_propagation_steps", "_walk"):
            monkeypatch.setattr(nhmc.simulate, name, no_pass)
        obs = ObservableSet((indicator_observable(1, obs_size),))
        with pytest.raises(KernelValidationError, match=match):
            martingale_check(zeta2_family(0.75, 30), nhmc.point_mass(1, start_size), obs, [1.0],
                             [10, 20], trials=8, theta_value=0.2)

    def test_integral_float_trial_count_is_that_integer(self, iid_family, start200, ind200):
        obs = ObservableSet((ind200,))
        res, ref = (
            martingale_check(iid_family, start200, obs, [1.0], [10, 20], trials=t, base_seed=1,
                             theta_value=martingale_theta(iid_family, obs, [1.0]))
            for t in (4.0, 4)
        )
        assert res.trials == 4 and type(res.trials) is int
        np.testing.assert_array_equal(res.drift_values, ref.drift_values)
        np.testing.assert_array_equal(res.variance_values, ref.variance_values)

    def test_band_step_matches_dense_step(self):
        """The O(N) band pull and the dense kernel rows give the same variance profile."""
        fam = zeta2_family(0.75, 60)
        twin = nhmc.table_family([fam.kernel_at(k) for k in range(1, 41)], fam.limit)
        obs = ObservableSet((indicator_observable(1, 60), indicator_observable(2, 60)))
        mu0 = nhmc.point_mass(1, 60)
        band, dense = (
            martingale_check(f, mu0, obs, [1.0, -0.5], [10, 40], trials=16, base_seed=3,
                             theta_value=martingale_theta(f, obs, [1.0, -0.5]))
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
            martingale_check(f, mu0, obs, [1.0, -0.5], [10, 80], trials=16, base_seed=3,
                             theta_value=martingale_theta(f, obs, [1.0, -0.5]))
            for f in (fam, twin)
        )
        np.testing.assert_allclose(band.variance_values, dense.variance_values,
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", ["zeta2", "zeta4", "constant"])
    def test_series_variance_matches_propagation_loop(self, kind):
        """The series' three functionals give the variance profile of the
        step-by-step loop, E[(P_k g^2 - (P_k g)^2)(X_{k-1})] summed over k."""
        fam = {"zeta2": lambda: zeta2_family(0.75, 80),
               "zeta4": lambda: nhmc.zeta4_family(0.75, 1.0, 80),
               "constant": lambda: nhmc.constant_family(nhmc.make_limit_kernel("zeta4", 80)),
               }[kind]()
        assert fam._series_terms is not None
        rng = np.random.default_rng(11)
        obs = ObservableSet((indicator_observable(1, 80), Observable(rng.normal(size=80))))
        z, grid = [1.0, -0.5], [1, 30, 700]
        mu0 = nhmc.uniform_initial(80)
        g = obs.combine(z)
        total, law, var_cum = 0.0, mu0.probs, []
        for step, probs in nhmc.kernels._propagation_steps(mu0, fam, grid[-1]):
            pg = step.apply_to_function(g.values)
            pg2 = step.apply_to_function(g.values**2)
            total += float(law @ (pg2 - pg**2))
            var_cum.append(total)
            law = probs
        want = np.array(var_cum)[np.array(grid) - 1] / grid
        res = martingale_check(fam, mu0, obs, z, grid, trials=4, base_seed=1,
                               theta_value=martingale_theta(fam, obs, z))
        np.testing.assert_allclose(res.variance_values, want, rtol=1e-13, atol=0)

    def test_exact_pass_runs_once_per_grid(self, iid_family, start200, ind200, monkeypatch):
        calls = []
        real = nhmc.kernels._band_series

        def series(mu0, family, values, n):
            calls.append(n)
            return real(mu0, family, values, n)

        monkeypatch.setattr(nhmc.simulate, "_band_series", series)
        obs = ObservableSet((ind200,))
        martingale_check(iid_family, start200, obs, [1.0], [20, 60, 90], trials=8, base_seed=1,
                         theta_value=martingale_theta(iid_family, obs, [1.0]))
        assert calls == [90]

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
    def test_output_does_not_depend_on_the_block_budget(self, policy, monkeypatch):
        """Walk blocks of 16 trials give the bits of one block; renormalize
        exercises the last-row term."""
        fam = zeta2_family(0.75, 40, policy)
        obs = ObservableSet((indicator_observable(1, 40), indicator_observable(40, 40),
                             Observable(np.random.default_rng(8).normal(size=40))))
        mu0 = nhmc.uniform_initial(40)

        def run():
            return martingale_check(fam, mu0, obs, [1.0, -0.5, 0.25], [7, 64, 300],
                                    trials=70, base_seed=9,
                                    theta_value=martingale_theta(fam, obs, [1.0, -0.5, 0.25]))

        whole = run()
        monkeypatch.setattr(nhmc.sampling, "_MAX_BLOCK", 16)
        assert len(next(nhmc.sampling.iter_seed_blocks(np.arange(70), 300, paths=False))) == 16
        split = run()
        for field in ("drift_values", "variance_values", "theta_g", "max_pathwise_residual"):
            np.testing.assert_array_equal(getattr(split, field), getattr(whole, field))

    def test_pathwise_identity_residual_is_float_noise(self, zeta2_small, start200):
        obs = ObservableSet(
            (indicator_observable(1, 200), indicator_observable(3, 200))
        )
        res = martingale_check(zeta2_small, start200, obs, [1.0, -0.5], [200, 1000],
                               trials=64, base_seed=6,
                               theta_value=martingale_theta(zeta2_small, obs, [1.0, -0.5]))
        assert res.max_pathwise_residual <= 1e-10

    def test_variance_profile_approaches_theta(self, zeta2_small, start200, ind200):
        obs = ObservableSet((ind200,))
        res = martingale_check(zeta2_small, start200, obs, [1.0], [100, 1000, 4000], trials=8,
                               base_seed=2, theta_value=martingale_theta(zeta2_small, obs, [1.0]))
        gaps = np.abs(res.variance_values - res.theta_g)
        assert gaps[-1] < gaps[0]
        assert gaps[-1] <= 0.01

    def test_drift_shrinks_with_horizon(self, zeta2_small, start200, ind200):
        obs = ObservableSet((ind200,))
        res = martingale_check(zeta2_small, start200, obs, [1.0], [100, 1000, 10000],
                               trials=128, base_seed=4,
                               theta_value=martingale_theta(zeta2_small, obs, [1.0]))
        assert res.drift_values[-1] < res.drift_values[0]
