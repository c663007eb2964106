import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from nhmc.sampling import _uniforms, iter_seed_blocks


def default_rng_rows(seeds, count):
    """The reference stream: one ``default_rng`` per seed."""
    return np.array([np.random.default_rng(int(s)).random(count) for s in seeds])


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**40 + 7, 2**63 - 1]


class TestStream:
    @pytest.mark.parametrize("count", [1, 4, 21, 101])
    def test_bulk_seeding_equals_default_rng(self, count):
        seeds = np.array(EDGE_SEEDS, dtype=np.int64)
        np.testing.assert_array_equal(_uniforms(seeds, count), default_rng_rows(seeds, count))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=8), st.integers(1, 40))
    def test_bulk_seeding_equals_default_rng_on_drawn_seeds(self, seeds, count):
        seeds = np.array(seeds, dtype=np.int64)
        np.testing.assert_array_equal(_uniforms(seeds, count), default_rng_rows(seeds, count))

    @pytest.mark.parametrize("seeds", [[-1], [3, -5], [2**63], [2**64 + 1]],
                             ids=["minus1", "one_negative", "2^63", "2^64+1"])
    def test_seed_outside_int64_range_rejected(self, seeds, start200, zeta2_small):
        with pytest.raises(KernelValidationError, match="seeds must lie in"):
            sample_paths(seeds, start200, zeta2_small, 5)

    def test_negative_base_seed_rejected_by_the_martingale_pass(self, start200, zeta2_small,
                                                                ind200):
        with pytest.raises(KernelValidationError, match="seeds must lie in"):
            nhmc.martingale_check(zeta2_small, start200, nhmc.ObservableSet((ind200,)),
                                  [1.0], [10], 5, base_seed=-3, theta_value=1.0)

    @pytest.mark.parametrize("n, block", [(10**3, 4096), (10**6, 8), (10**7, 1)])
    def test_blocks_fit_the_uniforms_budget(self, n, block):
        """Block sizes are read off the seed slices; no uniforms are drawn."""
        seeds = np.arange(20, dtype=np.int64)
        blocks = list(iter_seed_blocks(seeds, n))
        assert len(blocks[0]) == min(block, len(seeds))
        np.testing.assert_array_equal(np.concatenate(blocks), seeds)
        if block > 1:  # a single trial's uniforms can exceed the budget on their own
            assert block * 8 * (n + 1) <= 64 * 2**20


class TestDeterminism:
    def test_same_seed_same_path(self, zeta2_small, start200):
        p1 = sample_trajectory(123, start200, zeta2_small, 200)
        p2 = sample_trajectory(123, start200, zeta2_small, 200)
        np.testing.assert_array_equal(p1, p2)

    def test_different_seeds_differ(self, zeta2_small, start200):
        p1 = sample_trajectory(1, start200, zeta2_small, 200)
        p2 = sample_trajectory(2, start200, zeta2_small, 200)
        assert (p1 != p2).any()

    def test_path_prefix_does_not_depend_on_the_horizon(self, zeta2_small, start200):
        long = sample_paths(trial_seeds(9, 30), start200, zeta2_small, 300)
        for n in (0, 1, 17, 299):
            np.testing.assert_array_equal(
                sample_paths(trial_seeds(9, 30), start200, zeta2_small, n), long[:, : n + 1]
            )

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

    @pytest.mark.parametrize(
        "fam",
        [zeta2_family(0.75, 200), nhmc.zeta4_family(0.75, 1.0, 200)],
        ids=["zeta2", "zeta4"],  # zeta4 has s(1) = 0: its first band step has zero scale
    )
    def test_structured_and_general_paths_agree(self, fam, start200):
        """The base-CDF-plus-promotion draw must equal row-by-row inverse CDF."""
        general = table_family([fam.kernel_at(k) for k in range(1, 81)], fam.limit)
        for seed in (0, 1, 2, 3, 11):
            np.testing.assert_array_equal(
                sample_trajectory(seed, start200, fam, 80),
                sample_trajectory(seed, start200, general, 80),
            )

    def test_uniform_just_below_one_stays_on_the_states(self):
        """The zeta4 base CDF sums to 1 - 5.6e-16 at N=150; the band step and
        the dense kernel must still map the largest uniform below 1 onto state N."""
        fam = nhmc.zeta4_family(0.75, 1.0, 150)
        state = np.array([0, 148, 149])
        u = np.full(3, 1.0 - 2.0**-53)
        *_, band_step = fam.steps(3)
        for step in (band_step, fam.kernel_at(3)):
            np.testing.assert_array_equal(step.draw(state, u), 149)

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
