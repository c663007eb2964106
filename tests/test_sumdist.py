import dataclasses

import numpy as np
import pytest
from scipy.stats import binom

import nhmc
from nhmc import (
    KernelValidationError,
    Observable,
    capped_identity_observable,
    constant_family,
    exact_sum_distribution,
    expected_sum,
    indicator_observable,
    make_limit_kernel,
    point_mass,
    simulate_sums,
    zeta2_family,
)


class TestExactSumDistribution:
    def test_single_step_indicator(self, iid_family, start200, ind200, q_zeta2):
        dist = exact_sum_distribution(start200, iid_family, ind200, 1)
        assert dist.support_offset == 0
        np.testing.assert_allclose(dist.pmf, [1 - q_zeta2, q_zeta2], atol=1e-14)

    def test_two_steps_binomial(self, iid_family, start200, ind200, q_zeta2):
        """Identical rows make the step values independent Bernoulli draws."""
        dist = exact_sum_distribution(start200, iid_family, ind200, 2)
        np.testing.assert_allclose(dist.pmf, binom.pmf([0, 1, 2], 2, q_zeta2), atol=1e-14)

    def test_long_horizon_matches_binomial(self, iid_family, start200, ind200, q_zeta2):
        dist = exact_sum_distribution(start200, iid_family, ind200, 400)
        np.testing.assert_allclose(dist.pmf, binom.pmf(np.arange(401), 400, q_zeta2),
                                   atol=1e-13)

    def test_merged_equals_raw_state_dp(self, start200, ind200):
        fam = zeta2_family(0.75, 200)
        merged = exact_sum_distribution(start200, fam, ind200, 25)
        raw = exact_sum_distribution(start200, fam, ind200, 25, merge=False)
        np.testing.assert_allclose(merged.pmf, raw.pmf, atol=1e-14)

    def test_merged_equals_raw_for_capped_identity(self, start200):
        fam = zeta2_family(0.75, 200)
        f = capped_identity_observable(3, 200)
        merged = exact_sum_distribution(start200, fam, f, 12)
        raw = exact_sum_distribution(start200, fam, f, 12, merge=False)
        np.testing.assert_allclose(merged.pmf, raw.pmf, atol=1e-13)
        assert merged.support_offset == 12

    @pytest.mark.parametrize("kind", ["zeta2", "zeta4"])
    def test_renormalize_raw_dp_matches_dense_twin(self, kind):
        """Raw-state DP through the band steps, start tail mass included."""
        fam = (zeta2_family(0.75, 40, nhmc.TailPolicy.RENORMALIZE) if kind == "zeta2"
               else nhmc.zeta4_family(0.75, 1.0, 40, nhmc.TailPolicy.RENORMALIZE))
        mu0 = nhmc.InitialDistribution(np.full(40, 0.9 / 40), tail_mass=0.1)
        f = capped_identity_observable(3, 40)
        band = exact_sum_distribution(mu0, fam, f, 60)
        dense = exact_sum_distribution(mu0, dataclasses.replace(fam, structure=None), f, 60)
        assert band.support_offset == dense.support_offset
        np.testing.assert_allclose(band.pmf, dense.pmf, rtol=1e-12, atol=0)

    def test_monte_carlo_histogram_oracle(self, start200):
        """50-step pmf against 10^6 sampled trajectories, 4 SE per likely bin."""
        fam = zeta2_family(0.75, 200)
        f = indicator_observable(1, 200)
        dist = exact_sum_distribution(start200, fam, f, 50)
        trials = 10**6
        sums = simulate_sums(start200, fam, f, 50, trials, 314159).astype(np.int64)
        counts = np.bincount(sums, minlength=51)
        freq = counts / trials
        likely = dist.pmf >= 1e-4
        se = np.sqrt(dist.pmf * (1 - dist.pmf) / trials)
        assert (np.abs(freq - dist.pmf) <= 4 * se)[likely].all()

    def test_mean_matches_expected_sum(self, start200):
        fam = zeta2_family(0.75, 200)
        f = indicator_observable(1, 200)
        dist = exact_sum_distribution(start200, fam, f, 300)
        assert dist.mean == pytest.approx(expected_sum(start200, fam, f, 300), abs=1e-8)

    def test_pmf_is_a_distribution(self, start200):
        fam = zeta2_family(0.6, 200)
        dist = exact_sum_distribution(start200, fam, indicator_observable(2, 200), 120)
        assert abs(dist.pmf.sum() - 1.0) <= 1e-9
        assert dist.pmf.min() >= 0.0

    def test_non_integer_observable_rejected(self, iid_family, start200):
        f = Observable(np.linspace(0, 0.5, 200))
        with pytest.raises(KernelValidationError):
            exact_sum_distribution(start200, iid_family, f, 5)

    def test_cell_budget_enforced(self, iid_family, start200, ind200):
        with pytest.raises(KernelValidationError):
            exact_sum_distribution(start200, iid_family, ind200, 10**5, merge=False,
                                   cell_budget=10**6)

    def test_tail_probability_thresholds(self, iid_family, start200, ind200):
        dist = exact_sum_distribution(start200, iid_family, ind200, 10)
        assert dist.tail_probability(-3) == 1.0
        assert dist.tail_probability(11) == 0.0
        assert dist.tail_probability(4.0) == pytest.approx(dist.pmf[4:].sum())
        assert dist.tail_probability(3.2) == pytest.approx(dist.pmf[4:].sum())

    def test_constant_observable_is_degenerate(self, iid_family, start200):
        f = Observable(np.full(200, 2.0), 2.0)
        dist = exact_sum_distribution(start200, iid_family, f, 9)
        assert dist.support_offset == 18
        np.testing.assert_allclose(dist.pmf, [1.0])

    def test_json_round_trip(self, iid_family, start200, ind200):
        dist = exact_sum_distribution(start200, iid_family, ind200, 4)
        payload = dist.to_json_dict()
        assert payload["offset"] == 0
        assert len(payload["pmf"]) == 5
