import numpy as np
import pytest

import nhmc
from nhmc import (
    KernelValidationError,
    TruncatedKernel,
    constant_family,
    point_mass,
    sample_paths,
    sample_trajectory,
    table_family,
    trial_seeds,
    uniform_initial,
    zeta2_family,
)


class TestDeterminism:
    def test_same_seed_same_path(self, zeta2_small, start200):
        p1 = sample_trajectory(123, start200, zeta2_small, 200)
        p2 = sample_trajectory(123, start200, zeta2_small, 200)
        np.testing.assert_array_equal(p1, p2)

    def test_different_seeds_differ(self, zeta2_small, start200):
        p1 = sample_trajectory(1, start200, zeta2_small, 200)
        p2 = sample_trajectory(2, start200, zeta2_small, 200)
        assert (p1 != p2).any()

    def test_batched_equals_individual(self, zeta2_small, start200):
        seeds = trial_seeds(50, 7)
        batch = sample_paths(seeds, start200, zeta2_small, 64)
        for i, seed in enumerate(seeds):
            np.testing.assert_array_equal(
                batch[i] + 1, sample_trajectory(int(seed), start200, zeta2_small, 64)
            )


class TestSamplerCorrectness:
    def test_identity_kernel_freezes_the_path(self):
        kern = TruncatedKernel(np.eye(4), np.zeros(4))
        fam = constant_family(kern)
        mu0 = point_mass(3, 4)
        path = sample_trajectory(9, mu0, fam, 100)
        assert (path == 3).all()

    def test_structured_and_general_paths_agree(self, start200):
        """The base-CDF-plus-promotion shortcut must equal row-by-row inverse CDF."""
        fam = zeta2_family(0.75, 200)
        general = table_family([fam.kernel_at(k) for k in range(1, 81)], fam.limit)
        for seed in (0, 1, 2, 3, 11):
            np.testing.assert_array_equal(
                sample_trajectory(seed, start200, fam, 80),
                sample_trajectory(seed, start200, general, 80),
            )

    def test_uniform_just_below_one_stays_on_the_states(self):
        """The zeta4 base CDF sums to 1 - 5.6e-16 at N=150; both samplers
        must still map the largest uniform below 1 onto state N."""
        from nhmc.sampling import _sample_block_general, _sample_block_structured

        fam = nhmc.zeta4_family(0.75, 1.0, 150)
        mu0 = point_mass(1, 150)
        u = np.full((2, 4), 1.0 - 2.0**-53)
        for sampler in (_sample_block_structured, _sample_block_general):
            paths = sampler(fam, mu0, 3, u)
            np.testing.assert_array_equal(paths[:, 1:], 149)

    def test_law_of_large_numbers(self, iid_family, q_zeta2):
        """State-1 frequency over 10^6 steps of the identical-rows chain."""
        mu0 = point_mass(1, 200)
        path = sample_trajectory(20260810, mu0, iid_family, 10**6)
        freq = (path[1:] == 1).mean()
        se = np.sqrt(q_zeta2 * (1 - q_zeta2) / 10**6)
        assert abs(freq - q_zeta2) <= 3 * se

    def test_initial_distribution_sampled(self, iid_family):
        mu0 = uniform_initial(200)
        paths = sample_paths(trial_seeds(4, 4000), mu0, iid_family, 0)
        counts = np.bincount(paths[:, 0], minlength=200)
        assert counts.min() > 0  # every state reachable under uniform start

    def test_tail_mass_rejected(self):
        rows = np.array([[0.5, 0.3], [0.2, 0.7]])
        fam = constant_family(TruncatedKernel(rows, np.array([0.2, 0.1])))
        with pytest.raises(KernelValidationError):
            sample_trajectory(0, point_mass(1, 2), fam, 5)

    def test_truncation_invariance_of_indicator_path(self, start200):
        """For the built-in family the state-1 indicator path does not depend on N."""
        fam_a = zeta2_family(0.75, 200)
        fam_b = zeta2_family(0.75, 400)
        mu_a = point_mass(1, 200)
        mu_b = point_mass(1, 400)
        pa = sample_trajectory(31, mu_a, fam_a, 2000)
        pb = sample_trajectory(31, mu_b, fam_b, 2000)
        np.testing.assert_array_equal(pa == 1, pb == 1)
