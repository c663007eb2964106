import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nhmc
from nhmc import (
    KernelValidationError,
    TruncatedKernel,
    constant_family,
    indicator_observable,
    point_mass,
    sample_paths,
    table_family,
    trial_seeds,
    uniform_initial,
    zeta2_family,
)
from nhmc import sampling
from nhmc.sampling import _initial_states, _tile_width, _uniform_tiles, iter_seed_blocks


def default_rng_rows(seeds, count):
    """The reference stream: one ``default_rng`` per seed."""
    return np.array([np.random.default_rng(int(s)).random(count) for s in seeds])


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**40 + 7, 2**63 - 1]


def stepwise_paths(seeds, mu0, steps, n):
    """The plain walk: X_0 drawn from mu0, then ``step.draw(state, u)`` one
    column at a time over the n ``steps``, on one tile of the stream."""
    u = next(_uniform_tiles(seeds, n + 1, n + 1))
    cols = [_initial_states(mu0, u[:, 0])]
    for k, step in enumerate(steps, start=1):
        cols.append(step.draw(cols[-1], u[:, k]))
    return np.stack(cols, axis=1)


class TestStream:
    @pytest.mark.parametrize("count", [1, 4, 21, 101])
    def test_bulk_seeding_equals_default_rng(self, count):
        seeds = np.array(EDGE_SEEDS, dtype=np.int64)
        one_tile = next(_uniform_tiles(seeds, count, count))
        np.testing.assert_array_equal(one_tile, default_rng_rows(seeds, count))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=8), st.integers(1, 40))
    def test_bulk_seeding_equals_default_rng_on_drawn_seeds(self, seeds, count):
        seeds = np.array(seeds, dtype=np.int64)
        one_tile = next(_uniform_tiles(seeds, count, count))
        np.testing.assert_array_equal(one_tile, default_rng_rows(seeds, count))

    @pytest.mark.parametrize("count", [3, 21, 101])
    def test_tiles_concatenate_to_the_stream(self, count, monkeypatch):
        """With the budget shrunk to a third of the stream, each trial's PCG64
        state must carry over every tile boundary."""
        seeds = np.array(EDGE_SEEDS, dtype=np.int64)
        width = -(-count // 3)
        monkeypatch.setattr(sampling, "_MIN_TILE", 1)
        monkeypatch.setattr(sampling, "_BLOCK_BYTES", 8 * len(seeds) * width)
        assert _tile_width(len(seeds), count, 0) == width
        tiles = [t.copy() for t in _uniform_tiles(seeds, count, width)]
        assert len(tiles) == 3
        np.testing.assert_array_equal(np.hstack(tiles), default_rng_rows(seeds, count))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=8), st.integers(3, 60),
           st.integers(1, 20))
    def test_tiles_concatenate_to_the_stream_on_drawn_seeds(self, seeds, count, width):
        seeds = np.array(seeds, dtype=np.int64)
        width = min(width, count // 3)  # at least three tiles
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampling, "_MIN_TILE", 1)
            mp.setattr(sampling, "_BLOCK_BYTES", 8 * len(seeds) * width)
            tiles = [t.copy() for t in
                     _uniform_tiles(seeds, count, _tile_width(len(seeds), count, 0))]
        assert len(tiles) >= 3
        np.testing.assert_array_equal(np.hstack(tiles), default_rng_rows(seeds, count))

    @pytest.mark.parametrize("seeds", [[-1], [3, -5], [2**63], [2**64 + 1]],
                             ids=["minus1", "one_negative", "2^63", "2^64+1"])
    def test_seed_outside_int64_range_rejected(self, seeds, start200, zeta2_small):
        with pytest.raises(KernelValidationError, match="seeds must lie in"):
            sample_paths(seeds, start200, zeta2_small, 5)

    @pytest.mark.parametrize("seeds", [[], [[1, 2], [3, 4]]], ids=["empty", "2d"])
    def test_seeds_must_be_a_nonempty_vector(self, seeds, start200, zeta2_small, monkeypatch):
        """No seed, or a seed table, is refused before any block is sampled."""
        def sample_block(*args):
            raise AssertionError("a block was sampled")

        monkeypatch.setattr(sampling, "_sample_block", sample_block)
        with pytest.raises(KernelValidationError, match="non-empty 1-d"):
            sample_paths(seeds, start200, zeta2_small, 5)

    def test_negative_base_seed_rejected_by_the_martingale_pass(self, start200, zeta2_small,
                                                                ind200):
        with pytest.raises(KernelValidationError, match="seeds must lie in"):
            nhmc.martingale_check(zeta2_small, start200, nhmc.ObservableSet((ind200,)),
                                  [1.0], [10], 5, base_seed=-3, theta_value=1.0)

    @pytest.mark.parametrize("n, block", [(10**3, 4096), (10**6, 16), (10**7, 1)])
    def test_blocks_fit_the_uniforms_budget(self, n, block):
        """A path table of at most 4 bytes a state plus its uniforms tile fit
        64 MiB, the tile at most 4 MiB; a walk that keeps no path holds 4096 trials at any
        horizon.  Block sizes are read off the seed slices; no uniforms are
        drawn."""
        seeds = np.arange(5000, dtype=np.int64)
        blocks = list(iter_seed_blocks(seeds, n))
        assert len(blocks[0]) == block
        np.testing.assert_array_equal(np.concatenate(blocks), seeds)
        tile_bytes = block * 8 * _tile_width(block, n + 1, 4)
        assert tile_bytes <= 4 * 2**20
        if block > 1:  # a single trial's path table can exceed the budget on its own
            assert block * (n + 1) * 4 + tile_bytes <= 64 * 2**20
        walk_blocks = list(iter_seed_blocks(seeds, n, paths=False))
        assert [len(b) for b in walk_blocks] == [4096, 904]
        assert 4096 * 8 * _tile_width(4096, n + 1, 0) <= 4 * 2**20


class TestHorizon:
    @pytest.mark.parametrize("n", [3.5, True], ids=["fraction", "bool"])
    def test_non_integer_horizon_rejected(self, n, start200, zeta2_small):
        with pytest.raises(KernelValidationError, match="horizon must be an integer"):
            sample_paths(trial_seeds(1, 2), start200, zeta2_small, n)

    def test_integral_float_horizon_is_that_integer(self, start200, zeta2_small):
        np.testing.assert_array_equal(sample_paths(trial_seeds(1, 2), start200, zeta2_small, 3.0),
                                      sample_paths(trial_seeds(1, 2), start200, zeta2_small, 3))


class TestDeterminism:
    def test_same_seed_same_path(self, zeta2_small, start200):
        p1 = sample_paths([123], start200, zeta2_small, 200)[0] + 1
        p2 = sample_paths([123], start200, zeta2_small, 200)[0] + 1
        np.testing.assert_array_equal(p1, p2)

    def test_different_seeds_differ(self, zeta2_small, start200):
        p1 = sample_paths([1], start200, zeta2_small, 200)[0] + 1
        p2 = sample_paths([2], start200, zeta2_small, 200)[0] + 1
        assert (p1 != p2).any()

    def test_path_prefix_does_not_depend_on_the_horizon(self, zeta2_small, start200):
        long = sample_paths(trial_seeds(9, 30), start200, zeta2_small, 300)
        for n in (0, 1, 17, 299):
            np.testing.assert_array_equal(
                sample_paths(trial_seeds(9, 30), start200, zeta2_small, n), long[:, : n + 1]
            )

    @pytest.mark.parametrize("family", [
        zeta2_family(0.75, 200),
        nhmc.zeta4_family(0.75, 1.0, 200, nhmc.TailPolicy.RENORMALIZE),
        table_family([zeta2_family(0.75, 200).kernel_at(k) for k in (1, 2, 3)],
                     zeta2_family(0.75, 200).limit),
        constant_family(nhmc.make_limit_kernel("zeta2", 200)),
    ], ids=["band", "renormalize", "table", "constant"])
    def test_paths_do_not_depend_on_block_and_tile_budgets(self, family, start200,
                                                          monkeypatch):
        """Blocks of 3 trials walking tiles of 2 to 3 steps give the paths of
        one block in one tile."""
        seeds = trial_seeds(77, 40)
        whole = sample_paths(seeds, start200, family, 120)
        monkeypatch.setattr(sampling, "_MIN_TILE", 1)
        monkeypatch.setattr(sampling, "_BLOCK_BYTES", 3 * (4 * 121 + 8 * 2) + 8)
        monkeypatch.setattr(sampling, "_TILE_BYTES", 3 * 8 * 2)
        assert [len(b) for b in iter_seed_blocks(seeds, 120)][:2] == [3, 3]
        assert _tile_width(3, 121, whole.itemsize) == 2
        np.testing.assert_array_equal(sample_paths(seeds, start200, family, 120), whole)

    def test_batched_equals_individual(self, zeta2_small, start200):
        seeds = trial_seeds(50, 7)
        batch = sample_paths(seeds, start200, zeta2_small, 64)
        for i, seed in enumerate(seeds):
            np.testing.assert_array_equal(
                batch[i] + 1, sample_paths([int(seed)], start200, zeta2_small, 64)[0] + 1
            )


class TestSamplerCorrectness:
    def test_identity_kernel_freezes_the_path(self):
        kern = TruncatedKernel(np.eye(4))
        fam = constant_family(kern)
        mu0 = point_mass(3, 4)
        path = sample_paths([9], mu0, fam, 100)[0] + 1
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
                sample_paths([seed], start200, fam, 80)[0] + 1,
                sample_paths([seed], start200, general, 80)[0] + 1,
            )

    @pytest.mark.parametrize("width", [5, 11, 121])
    @pytest.mark.parametrize("family", [
        zeta2_family(0.75, 4),
        zeta2_family(0.75, 4, nhmc.TailPolicy.RENORMALIZE),
        nhmc.zeta4_family(0.75, 1.0, 4),
        nhmc.zeta4_family(0.75, 1.0, 4, nhmc.TailPolicy.RENORMALIZE),
        constant_family(nhmc.make_limit_kernel("zeta2", 4)),
    ], ids=["zeta2", "zeta2_renormalize", "zeta4", "zeta4_renormalize", "constant"])
    def test_span_walk_equals_the_stepwise_draw(self, family, width, monkeypatch):
        """Spans searched and promotion-tested in bulk, cut at tile ends of
        ``width`` columns, give the paths of one ``step.draw`` per step, at
        an N small enough that the walk reaches state N and its last row.
        Those paths are also the dense kernels' (no uniform lies within an
        ulp of a row-CDF entry here)."""
        seeds = trial_seeds(123, 40)
        mu0 = uniform_initial(4)
        want = stepwise_paths(seeds, mu0, family.steps(120), 120)
        dense = stepwise_paths(seeds, mu0, (family.kernel_at(k) for k in range(1, 121)), 120)
        np.testing.assert_array_equal(want, dense)
        monkeypatch.setattr(sampling, "_MIN_TILE", 1)
        monkeypatch.setattr(sampling, "_TILE_BYTES", 40 * 8 * width)
        assert _tile_width(40, 121, 1) == width
        np.testing.assert_array_equal(sample_paths(seeds, mu0, family, 120), want)
        assert (want == 3).sum() > 20 and (np.diff(want, axis=1) == 1).sum() > 100

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
        path = sample_paths([20260810], mu0, iid_family, 10**6)[0] + 1
        freq = (path[1:] == 1).mean()
        se = np.sqrt(q_zeta2 * (1 - q_zeta2) / 10**6)
        assert abs(freq - q_zeta2) <= 3 * se

    def test_initial_distribution_sampled(self, iid_family):
        mu0 = uniform_initial(200)
        paths = sample_paths(trial_seeds(4, 4000), mu0, iid_family, 0)
        counts = np.bincount(paths[:, 0], minlength=200)
        assert counts.min() > 0  # every state reachable under uniform start

    def test_truncation_invariance_of_indicator_path(self, start200):
        """For the built-in family the state-1 indicator path does not depend on N."""
        fam_a = zeta2_family(0.75, 200)
        fam_b = zeta2_family(0.75, 400)
        mu_a = point_mass(1, 200)
        mu_b = point_mass(1, 400)
        pa = sample_paths([31], mu_a, fam_a, 2000)[0] + 1
        pb = sample_paths([31], mu_b, fam_b, 2000)[0] + 1
        np.testing.assert_array_equal(pa == 1, pb == 1)


class TestPathTable:
    @pytest.mark.parametrize("size, dtype", [
        (127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32),
    ])
    def test_smallest_type_that_holds_every_label(self, size, dtype):
        """State N - 1 is stored and label N returned without wrapping, at
        the edges where N + 1 would leave the type."""
        fam = zeta2_family(0.75, size)
        mu0 = point_mass(size, size)
        paths = sample_paths(trial_seeds(5, 3), mu0, fam, 4)
        assert paths.dtype == dtype
        np.testing.assert_array_equal(paths[:, 0], size - 1)
        path = sample_paths([5], mu0, fam, 4)[0] + 1
        assert path.dtype == dtype and path[0] == size

    def test_sums_hold_a_two_byte_table_and_one_uniforms_tile(self):
        """At N = 1000 the table takes 2 bytes a state: the peak of
        ``simulate_sums`` stays within 1.2x of that table plus its tile."""
        fam = zeta2_family(0.75, 1000)
        mu0 = point_mass(1, 1000)
        f = indicator_observable(1, 1000)
        trials, n = 200, 2 * 10**4
        table = trials * (n + 1) * 2
        tile = trials * 8 * _tile_width(trials, n + 1, 2)
        tracemalloc.start()
        try:
            nhmc.simulate_sums(mu0, fam, f, n, trials, base_seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * (table + tile)
