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
    uniform_initial,
    zeta2_family,
)
from nhmc import sampling
from nhmc.sampling import _initial_states, _spans, iter_seed_blocks


def lane_uniforms(base_seed, trials, count):
    """The reference stream, from numpy alone: row i holds the first
    ``count`` step uniforms of trial ``trials[i]`` of ``base_seed``, lane
    ``t % 256`` of the outputs of ``PCG64DXSM(SeedSequence(base_seed,
    spawn_key=(t // 256,)))``, 256 a step."""
    rows = {}
    for g in {int(t) // 256 for t in trials}:
        gen = np.random.Generator(np.random.PCG64DXSM(
            np.random.SeedSequence(base_seed, spawn_key=(g,))))
        rows[g] = gen.random(256 * count).reshape(count, 256).T
    return np.array([rows[int(t) // 256][int(t) % 256] for t in trials])


def span_uniforms(base_seed, trials, count, family=zeta2_family(0.75, 4)):
    """``_spans``'s step-major spans, stacked to (trials, count)."""
    trials = np.asarray(trials, dtype=np.int64)
    return np.concatenate([u.copy() for _, u, _ in _spans(family, trials, count, base_seed)]).T


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**40 + 7, 2**63 - 1]
GROUP_EDGES = [0, 1, 255, 256, 257, 511, 1000, 5, 2**40 + 3]


def stepwise_paths(base_seed, trials, mu0, steps, n):
    """The plain walk: X_0 drawn from mu0, then ``step.draw(state, u)`` one
    step at a time over the n ``steps``, on the reference stream."""
    u = lane_uniforms(base_seed, trials, n + 1)
    cols = [_initial_states(mu0, u[:, 0])]
    for k, step in enumerate(steps, start=1):
        cols.append(step.draw(cols[-1], u[:, k]))
    return np.stack(cols, axis=1)


def set_block(monkeypatch, trials_per_block, n):
    """Shrink the path-table budget so blocks to horizon n hold ``trials_per_block``."""
    monkeypatch.setattr(sampling, "_BLOCK_BYTES", trials_per_block * 4 * (n + 1))


class TestStream:
    @pytest.mark.parametrize("count", [1, 4, 8, 21, 101])
    @pytest.mark.parametrize("base_seed", EDGE_SEEDS)
    def test_spans_are_the_lane_group_outputs(self, base_seed, count):
        """Trials on either side of group edges, out of order, across spans
        cut anywhere in the last one."""
        np.testing.assert_array_equal(span_uniforms(base_seed, GROUP_EDGES, count),
                                      lane_uniforms(base_seed, GROUP_EDGES, count))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**63 - 1),
           st.lists(st.integers(0, 2**63 - 1) | st.integers(0, 1500), min_size=1, max_size=8),
           st.integers(1, 40))
    def test_spans_are_the_lane_group_outputs_on_drawn_trials(self, base_seed, trials, count):
        np.testing.assert_array_equal(span_uniforms(base_seed, trials, count),
                                      lane_uniforms(base_seed, trials, count))

    def test_stream_matches_the_recorded_outputs(self):
        """Known answers recorded on numpy 2.4.6: step 0..2 uniforms of trials
        on either side of group edges at base seeds 0 and 11, and the first
        states of three zeta2 paths.  The other stream tests rebuild the
        lanes from numpy, so a numpy release that moved ``PCG64DXSM``,
        ``SeedSequence`` or ``Generator.random`` would pass them.  A failure
        here means the stream moved: bump ``RNG_VERSION["rng_version"]`` and
        list the artifacts that moved."""
        trials = [0, 1, 255, 256, 511]
        recorded = {
            0: [["0x1.3b33d51891ff4p-3", "0x1.57bed94524c35p-1", "0x1.f5514389d22d5p-1"],
                ["0x1.b7631cfb66374p-1", "0x1.0322680055f70p-4", "0x1.a69bcf9b3aa16p-2"],
                ["0x1.d22f9dd2b8e14p-3", "0x1.b5365c43dd188p-1", "0x1.afe3b30a56bcdp-1"],
                ["0x1.d9532bd679800p-11", "0x1.ae01835954fe2p-2", "0x1.34d05238bebc9p-1"],
                ["0x1.c66edf35b9830p-4", "0x1.2664e2eab27ccp-1", "0x1.18675e762f310p-3"]],
            11: [["0x1.14ceb7be866acp-1", "0x1.a467cdd351081p-1", "0x1.12c4d19bbce5cp-1"],
                 ["0x1.9bf58f1c8ef33p-1", "0x1.19a0f2cab184ap-1", "0x1.1c8df11832d5fp-1"],
                 ["0x1.2ee9f1884630dp-1", "0x1.3b6bc6456f510p-5", "0x1.9cd89aa134055p-1"],
                 ["0x1.67df27d88b863p-1", "0x1.6518b2c2f7884p-2", "0x1.2875e97262f80p-1"],
                 ["0x1.765edc596c0c8p-3", "0x1.a1073937aa577p-1", "0x1.6299523e5b818p-3"]],
        }
        for base_seed, rows in recorded.items():
            expected = [[float.fromhex(x) for x in row] for row in rows]
            assert span_uniforms(base_seed, trials, 3).tolist() == expected
        paths = sample_paths([0, 1, 256], point_mass(1, 30), zeta2_family(0.75, 30), 3, 11)
        assert paths.tolist() == [[0, 2, 0, 29], [0, 1, 0, 1], [0, 1, 0, 1]]

    def test_adjacent_base_seeds_share_no_trial(self):
        """No trial stream of base seed b is one of b + 1, nor another
        trial's of b (streams seeded base + t would make base 8's trial 0
        base 7's trial 1)."""
        for b in (7, 2**32 - 1):
            streams = [span_uniforms(base, np.arange(1000), 4) for base in (b, b + 1)]
            rows = [{row.tobytes() for row in u} for u in streams]
            assert len(rows[0]) == len(rows[1]) == 1000
            assert not rows[0] & rows[1]

    def test_lanes_of_a_group_are_distinct_and_uncorrelated(self):
        """The 256 lanes of one group over 10^4 steps: no two equal, and every
        lane's lag-1 correlation and every adjacent pair's correlation within
        5 SE (1/sqrt(steps)) of 0."""
        steps = 10**4
        u = span_uniforms(3, np.arange(256), steps)
        assert len({row.tobytes() for row in u}) == 256
        z = (u - u.mean(axis=1, keepdims=True)) / u.std(axis=1, keepdims=True)
        lag1 = (z[:, :-1] * z[:, 1:]).mean(axis=1)
        adjacent = (z[:-1] * z[1:]).mean(axis=1)
        assert np.abs(lag1).max() <= 5 / np.sqrt(steps)
        assert np.abs(adjacent).max() <= 5 / np.sqrt(steps)

    @pytest.mark.parametrize("trials", [[-1], [3, -5], [2**63], [2**64 + 1]],
                             ids=["minus1", "one_negative", "2^63", "2^64+1"])
    def test_trial_index_outside_int64_range_rejected(self, trials, start200, zeta2_small):
        with pytest.raises(KernelValidationError, match="trial indices must lie in"):
            sample_paths(trials, start200, zeta2_small, 5)

    @pytest.mark.parametrize("base_seed", [-1, 2**63, 2.5, True])
    def test_base_seed_outside_int64_range_rejected(self, base_seed, start200, zeta2_small):
        with pytest.raises(KernelValidationError, match="base_seed must"):
            sample_paths([0], start200, zeta2_small, 5, base_seed)

    @pytest.mark.parametrize("trials", [[], [[1, 2], [3, 4]]], ids=["empty", "2d"])
    def test_trials_must_be_a_nonempty_vector(self, trials, start200, zeta2_small,
                                              monkeypatch):
        """No trial, or a trial table, is refused before any block is sampled."""
        def sample_block(*args):
            raise AssertionError("a block was sampled")

        monkeypatch.setattr(sampling, "_sample_block", sample_block)
        with pytest.raises(KernelValidationError, match="non-empty 1-d"):
            sample_paths(trials, start200, zeta2_small, 5)

    def test_negative_base_seed_rejected_by_the_martingale_pass(self, start200, zeta2_small,
                                                                ind200):
        with pytest.raises(KernelValidationError, match="base_seed must lie in"):
            nhmc.martingale_check(zeta2_small, start200, nhmc.ObservableSet((ind200,)),
                                  [1.0], [10], 5, base_seed=-3, theta_value=1.0)

    @pytest.mark.parametrize("n, block", [(10**3, 4096), (10**4, 1536), (10**5, 128),
                                          (10**6, 16), (10**7, 1)])
    def test_blocks_fit_the_path_budget_at_whole_groups(self, n, block):
        """A path table of at most 4 bytes a state fits 64 MiB; a block is a
        whole number of 256-trial groups or a power of two inside one, so no
        block of consecutive trials straddles a group; a walk that keeps no
        path holds 4096 trials at any horizon.  Block sizes are read off the
        trial slices; no uniforms are drawn."""
        trials = np.arange(5000, dtype=np.int64)
        blocks = list(iter_seed_blocks(trials, n))
        assert len(blocks[0]) == block
        np.testing.assert_array_equal(np.concatenate(blocks), trials)
        if block > 1:  # a single trial's path table can exceed the budget on its own
            assert block * (n + 1) * 4 <= 64 * 2**20
        for b in blocks:
            assert b[0] % 256 == 0 or b[0] // 256 == b[-1] // 256
        walk_blocks = list(iter_seed_blocks(trials, n, paths=False))
        assert [len(b) for b in walk_blocks] == [4096, 904]


class TestHorizon:
    @pytest.mark.parametrize("n", [3.5, True], ids=["fraction", "bool"])
    def test_non_integer_horizon_rejected(self, n, start200, zeta2_small):
        with pytest.raises(KernelValidationError, match="horizon must be an integer"):
            sample_paths(np.arange(2), start200, zeta2_small, n, 1)

    def test_integral_float_horizon_is_that_integer(self, start200, zeta2_small):
        np.testing.assert_array_equal(sample_paths(np.arange(2), start200, zeta2_small, 3.0, 1),
                                      sample_paths(np.arange(2), start200, zeta2_small, 3, 1))


class TestDeterminism:
    def test_same_seed_same_path(self, zeta2_small, start200):
        p1 = sample_paths([0], start200, zeta2_small, 200, 123)[0] + 1
        p2 = sample_paths([0], start200, zeta2_small, 200, 123)[0] + 1
        np.testing.assert_array_equal(p1, p2)

    def test_different_seeds_differ(self, zeta2_small, start200):
        p1 = sample_paths([0], start200, zeta2_small, 200, 1)[0] + 1
        p2 = sample_paths([0], start200, zeta2_small, 200, 2)[0] + 1
        assert (p1 != p2).any()

    def test_path_prefix_does_not_depend_on_the_horizon(self, zeta2_small, start200):
        long = sample_paths(np.arange(30), start200, zeta2_small, 300, 9)
        for n in (0, 1, 17, 299):
            np.testing.assert_array_equal(
                sample_paths(np.arange(30), start200, zeta2_small, n, 9), long[:, : n + 1]
            )

    @pytest.mark.parametrize("family", [
        zeta2_family(0.75, 200),
        nhmc.zeta4_family(0.75, 1.0, 200, nhmc.TailPolicy.RENORMALIZE),
        table_family([zeta2_family(0.75, 200).kernel_at(k) for k in (1, 2, 3)],
                     zeta2_family(0.75, 200).limit),
        constant_family(nhmc.make_limit_kernel("zeta2", 200)),
    ], ids=["band", "renormalize", "table", "constant"])
    def test_trial_path_does_not_depend_on_trials_blocks_or_horizon(
            self, family, start200, monkeypatch):
        """Trial t's path is the same at 300 and at 1000 trials, picked out
        alone, in blocks of two trials inside a group or of one group, and as
        the prefix of a longer horizon; its indicator sums are the same at 300
        and 1000 trials over blocks of one group."""
        n = 120
        whole = sample_paths(np.arange(1000), start200, family, n, 77)
        np.testing.assert_array_equal(sample_paths(np.arange(300), start200, family, n, 77),
                                      whole[:300])
        picked = [999, 3, 256, 255]
        np.testing.assert_array_equal(sample_paths(picked, start200, family, n, 77),
                                      whole[picked])
        np.testing.assert_array_equal(sample_paths(np.arange(1000), start200, family, 40, 77),
                                      whole[:, :41])
        np.testing.assert_array_equal(
            sample_paths(np.arange(1000), start200, family, 2 * n + 3, 77)[:, : n + 1], whole)
        with monkeypatch.context() as mp:
            set_block(mp, 3, n)
            assert len(next(iter_seed_blocks(np.arange(1000), n))) == 2
            np.testing.assert_array_equal(
                sample_paths(np.arange(1000), start200, family, n, 77), whole)
        set_block(monkeypatch, 256, n)
        assert len(next(iter_seed_blocks(np.arange(1000), n))) == 256
        np.testing.assert_array_equal(sample_paths(np.arange(1000), start200, family, n, 77), whole)
        f = indicator_observable(1, 200)
        want = (whole[:, 1:] == 0).sum(axis=1)
        for trials in (300, 1000):
            sums = nhmc.simulate_sums(start200, family, f, n, trials, 77)
            np.testing.assert_array_equal(sums, want[:trials])

    def test_batched_equals_individual(self, zeta2_small, start200):
        batch = sample_paths(np.arange(7), start200, zeta2_small, 64, 50)
        for t in range(7):
            np.testing.assert_array_equal(
                batch[t] + 1, sample_paths([t], start200, zeta2_small, 64, 50)[0] + 1
            )


class TestSamplerCorrectness:
    def test_only_a_band_that_moves_no_mass_draws_without_a_walk(self, start200, monkeypatch):
        """An identical-rows constant family's band moves no mass: its draws
        are the base-CDF search alone, the walk's paths without the walk.  A
        band that moves mass walks."""
        iid = constant_family(nhmc.make_limit_kernel("zeta2", 200))
        walk = nhmc.sampling._walk(iid, start200, 40, np.arange(300), 6)
        walked = np.array([state for _, _, state in walk]).T

        def no_walk(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(nhmc.sampling, "_walk", no_walk)
        np.testing.assert_array_equal(sample_paths(np.arange(300), start200, iid, 40, 6), walked)
        with pytest.raises(AssertionError, match="walked"):
            sample_paths(np.arange(3), start200, zeta2_family(0.75, 200), 40, 6)

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

    @pytest.mark.parametrize("n", [5, 11, 121])
    @pytest.mark.parametrize("family", [
        zeta2_family(0.75, 4),
        zeta2_family(0.75, 4, nhmc.TailPolicy.RENORMALIZE),
        nhmc.zeta4_family(0.75, 1.0, 4),
        nhmc.zeta4_family(0.75, 1.0, 4, nhmc.TailPolicy.RENORMALIZE),
        constant_family(nhmc.make_limit_kernel("zeta2", 4)),
    ], ids=["zeta2", "zeta2_renormalize", "zeta4", "zeta4_renormalize", "constant"])
    def test_span_walk_equals_the_stepwise_draw(self, family, n):
        """Spans searched and promotion-tested in bulk, the last one cut short
        at horizons 5, 11 and 121, give the paths of one ``step.draw`` per
        step on the reference stream, for trials of three groups, at an N
        small enough that the walk reaches state N and its last row.  Those
        paths are also the dense kernels' (no uniform lies within an ulp of a
        row-CDF entry here)."""
        trials = [*range(200), *range(256, 300), *range(5000, 5050)]
        mu0 = uniform_initial(4)
        want = stepwise_paths(123, trials, mu0, family.steps(n), n)
        dense = stepwise_paths(123, trials, mu0, (family.kernel_at(k) for k in range(1, n + 1)), n)
        np.testing.assert_array_equal(want, dense)
        np.testing.assert_array_equal(sample_paths(trials, mu0, family, n, 123), want)
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
        """State-1 frequency over 10^6 steps of the identical-rows chain: the
        256 lanes of one group, 3906 steps each."""
        mu0 = point_mass(1, 200)
        paths = sample_paths(np.arange(256), mu0, iid_family, 3906, 20260810) + 1
        freq = (paths[:, 1:] == 1).mean()
        se = np.sqrt(q_zeta2 * (1 - q_zeta2) / paths[:, 1:].size)
        assert abs(freq - q_zeta2) <= 3 * se

    def test_initial_distribution_sampled(self, iid_family):
        mu0 = uniform_initial(200)
        paths = sample_paths(np.arange(4000), mu0, iid_family, 0, 4)
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
        paths = sample_paths(np.arange(3), mu0, fam, 4, 5)
        assert paths.dtype == dtype
        np.testing.assert_array_equal(paths[:, 0], size - 1)
        path = sample_paths([0], mu0, fam, 4, 5)[0] + 1
        assert path.dtype == dtype and path[0] == size

    def test_sums_hold_a_two_byte_table_and_a_few_spans(self):
        """At N = 1000 the table takes 2 bytes a state: the peak of
        ``simulate_sums`` stays within 1.3x of that table, the uniforms
        taking a few spans (tens of KiB) and the rest the per-step scales
        and the summing tile."""
        fam = zeta2_family(0.75, 1000)
        mu0 = point_mass(1, 1000)
        f = indicator_observable(1, 1000)
        trials, n = 200, 2 * 10**4
        table = trials * (n + 1) * 2
        tracemalloc.start()
        try:
            nhmc.simulate_sums(mu0, fam, f, n, trials, base_seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * table

    def test_sums_hold_the_table_and_one_tile_of_256_trials(self):
        """Past 256 trials the sums gather 256 trials x 256 steps at a time:
        an intp window and a float64 tile of at most 1 MiB together, not 16
        bytes per trial-step of the block (6.1 MB at 1500 trials)."""
        fam = zeta2_family(0.75, 1000)
        mu0 = point_mass(1, 1000)
        f = indicator_observable(1, 1000)
        trials, n = 1500, 2000
        table = trials * (n + 1) * 2
        tracemalloc.start()
        try:
            nhmc.simulate_sums(mu0, fam, f, n, trials, base_seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= table + 2.5 * 2**20

    def test_row_tiles_keep_the_bits(self, monkeypatch):
        """700 trials sum in row tiles of 256, 256 and 188; a real-valued
        observable's sums, at a horizon inside a step tile and at tile ends,
        equal byte for byte those of blocks of 256 trials, each one row tile."""
        fam = zeta2_family(0.75, 50)
        mu0 = uniform_initial(50)
        f = nhmc.Observable(np.sin(np.arange(1.0, 51.0)) * 1.7)
        grid = [37, 256, 300, 512]
        whole = nhmc.simulate_sums(mu0, fam, f, grid, 700, base_seed=9)
        monkeypatch.setattr(sampling, "_MAX_BLOCK", 256)
        split = nhmc.simulate_sums(mu0, fam, f, grid, 700, base_seed=9)
        assert whole.shape == (4, 700)
        assert whole.tobytes() == split.tobytes()
