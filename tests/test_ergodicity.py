import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nhmc
from nhmc import (
    ConditionProfile,
    ConvergenceCondition,
    KernelFamily,
    KernelValidationError,
    ReducibleKernelError,
    TruncatedKernel,
    condition_profile,
    constant_family,
    delta_sequence,
    dobrushin_delta,
    ergodicity,
    make_kernel,
    make_limit_kernel,
    stationary,
    zeta2_family,
    zeta4_family,
)

from conftest import martingale_theta, random_stochastic


class TestDobrushinDelta:
    def test_identical_rows_gives_zero(self, iid_family):
        assert dobrushin_delta(iid_family.limit) == 0.0

    def test_identity_gives_one(self):
        kern = TruncatedKernel(np.eye(6))
        assert dobrushin_delta(kern) == pytest.approx(1.0)

    def test_zeta2_bounded_and_closed_form_matches_dense(self):
        kern = make_kernel("zeta2", 10, 500, alpha=0.75)
        dense = dobrushin_delta(kern)
        closed = delta_sequence(zeta2_family(0.75, 500), 10)[9]
        assert dense == pytest.approx(closed, abs=1e-14)
        assert dense <= 12 / np.pi**2 * 10**-0.75

    @given(st.integers(2, 12), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_bounded_by_unit_interval(self, n, seed):
        rng = np.random.default_rng(seed)
        kern = TruncatedKernel(random_stochastic(rng, n))
        val = dobrushin_delta(kern)
        assert -1e-12 <= val <= 1.0 + 1e-12

    def test_zero_iff_identical_rows(self):
        rng = np.random.default_rng(1)
        row = random_stochastic(rng, 8)[0]
        rank_one = TruncatedKernel(np.tile(row, (8, 1)))
        assert dobrushin_delta(rank_one) == 0.0
        perturbed = rank_one.rows.copy()
        perturbed[0, 0] += 0.01
        perturbed[0, 1] -= 0.01
        assert dobrushin_delta(TruncatedKernel(perturbed)) > 0.0

    @pytest.mark.parametrize("policy", list(nhmc.TailPolicy))
    @pytest.mark.parametrize("kind", ["zeta2", "zeta4"])
    def test_closed_forms_match_dense_evaluation(self, kind, policy):
        """delta(P_k) and ||P_k - P|| from the band structure against the dense
        scan and the row distance, including the pairs with the last row."""
        for size in (3, 4, 60, 150):
            fam = (zeta2_family(0.75, size, policy) if kind == "zeta2"
                   else zeta4_family(0.75, 1.0, size, policy))
            deltas = delta_sequence(fam, 1000)
            deviations = ergodicity._deviation_sequence(fam, 1000)
            for k in (1, 2, 3, 10, 1000):
                kern = fam.kernel_at(k)
                assert deltas[k - 1] == pytest.approx(
                    dobrushin_delta(kern), rel=1e-12, abs=0)
                assert deviations[k - 1] == pytest.approx(
                    ergodicity._kernel_distance(kern, fam.limit), rel=1e-12, abs=0)

    def test_closed_forms_where_the_last_row_dominates(self):
        """Bands whose replaced last row sits farther from the others than any
        band row: the last-row terms of both closed forms decide the values.
        In the fifth band the largest column-(i+1) term moves from i = 0 to
        i = 1 as s(k) falls; the last has N = 2."""
        rng = np.random.default_rng(11)
        bands = []
        for size in (3, 4, 7):
            w = rng.random(size) + 0.1
            w[-1] = w[:-1].sum()  # base_row[-1] = 0.5
            base = w / w.sum()
            pert = 0.05 * base * rng.random(size)
            pert[-1] = 0.0
            bands.append((base, pert))
        bands.append((np.array([0.25, 0.2, 0.02, 0.03, 0.5]),
                      np.array([0.2, 0.065, 0.001, 0.001, 0.0])))
        bands.append((np.array([0.4, 0.6]), np.array([0.03, 0.0])))  # no row below N - 1
        for base, pert in bands:
            size = base.size
            band = nhmc.kernels._make_structure(base, pert, float(base[-1]))
            limit = TruncatedKernel(np.tile(base, (size, 1)))
            fam = dataclasses.replace(zeta2_family(0.75, 3, nhmc.TailPolicy.RENORMALIZE),
                                      size=size, structure=band, limit=limit)
            deltas = delta_sequence(fam, 20)
            deviations = ergodicity._deviation_sequence(fam, 20)
            for k, step in enumerate(fam.steps(20), start=1):
                kern = TruncatedKernel(step.push(np.eye(size)))
                assert deltas[k - 1] == pytest.approx(dobrushin_delta(kern), rel=1e-12, abs=0)
                assert deltas[k - 1] > step.scale * np.sort(pert)[-2:].sum()
                assert deviations[k - 1] == pytest.approx(
                    ergodicity._kernel_distance(kern, limit), rel=1e-12, abs=0)
                assert deviations[k - 1] > 2.0 * step.scale * pert.max()

    def test_tables_scan_each_listed_kernel_and_the_limit_once(self, monkeypatch):
        """Past a table every step is the limit, so 1000 steps of a 3-kernel
        table take 4 dense scans (a constant family, the empty table, takes
        1), with the values of the scan at every step."""
        rng = np.random.default_rng(8)
        size = 20
        limit = TruncatedKernel(random_stochastic(rng, size))
        table = [TruncatedKernel(random_stochastic(rng, size))
                 for _ in range(3)]
        scan = ergodicity.dobrushin_delta
        for fam, scans in ((nhmc.table_family(table, limit), 4), (constant_family(limit), 1)):
            assert fam.structure is None
            oracle = [scan(fam.kernel_at(k)) for k in range(1, 1001)]
            calls = []
            monkeypatch.setattr(ergodicity, "dobrushin_delta",
                                lambda P: calls.append(P) or scan(P))
            seq = delta_sequence(fam, 1000)
            monkeypatch.undo()
            assert len(calls) == scans
            np.testing.assert_array_equal(seq, oracle)

    def test_delta_sequence_matches_per_step_evaluation(self):
        """The scale shortcut must equal direct evaluation at every sampled k."""
        fam = zeta4_family(0.75, 1.0, 120)
        seq = delta_sequence(fam, 50)
        for k in (1, 2, 3, 17, 50):
            assert seq[k - 1] == pytest.approx(
                dobrushin_delta(fam.kernel_at(k)), abs=1e-14
            )


class TestConditionProfiles:
    def test_constant_identical_rows_all_zero(self, iid_family):
        for condition in ConvergenceCondition:
            prof = condition_profile(iid_family, condition, [1, 2, 5, 10], m_sup_range=3)
            np.testing.assert_allclose(prof.values, 0.0, atol=1e-12)

    def test_mean_deviation_matches_partial_sum_oracle(self):
        """At m = 0 the profile is (12/pi^2) (1/n) sum_k k^(-alpha), and the
        log-log slope over 10^2..10^5 sits in the expected window."""
        fam = zeta2_family(0.75, 100)
        grid = [100, 1000, 10**4, 10**5]
        prof = condition_profile(fam, "mean_kernel_deviation", grid, m_sup_range=200)
        k = np.arange(1, 10**5 + 1, dtype=float)
        cum = np.cumsum(12 / np.pi**2 * k**-0.75)
        oracle = cum[np.array(grid) - 1] / np.array(grid)
        np.testing.assert_allclose(prof.values, oracle, atol=1e-10)
        assert (prof.m_argmax == 0).all()  # deviations decrease in m
        slope = np.polyfit(np.log10(grid), np.log10(prof.values), 1)[0]
        assert -0.80 <= slope <= -0.70

    def test_delta_sum_profile_matches_direct_summation(self):
        fam = zeta4_family(0.75, 1.0, 80)
        grid = [10, 100, 1000]
        prof = condition_profile(fam, "scaled_dobrushin_sum", grid)
        deltas = np.array([dobrushin_delta(fam.kernel_at(k)) for k in range(1, 1001)])
        oracle = np.cumsum(deltas)[np.array(grid) - 1] / np.sqrt(grid)
        np.testing.assert_allclose(prof.values, oracle, rtol=1e-12)

    def test_delta_sum_eventually_decreasing_for_zeta4(self):
        fam = zeta4_family(0.75, 1.0, 80)
        grid = [10**4, 3 * 10**4, 10**5, 3 * 10**5, 10**6]
        prof = condition_profile(fam, "scaled_dobrushin_sum", grid)
        assert (np.diff(prof.values) < 0).all()

    def test_monotone_in_alpha(self):
        """At fixed n the mean-deviation statistic shrinks as alpha grows."""
        grid = [500]
        vals = [
            condition_profile(zeta2_family(a, 50), "mean_kernel_deviation", grid, 0).values[0]
            for a in (0.6, 0.75, 1.0)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_cesaro_profile_decays_for_perturbed_family(self):
        fam = zeta2_family(0.75, 40)
        prof = condition_profile(fam, "cesaro_product_average", [1, 4, 16, 64], m_sup_range=2)
        assert prof.values[-1] < prof.values[0]
        assert prof.values.min() >= 0.0

    def test_csv_rows_schema(self):
        fam = zeta2_family(0.75, 30)
        prof = condition_profile(fam, "mean_kernel_deviation", [5, 10], 7)
        rows = list(prof.csv_rows())
        assert rows[0][0] == "mean_kernel_deviation"
        assert [r[1] for r in rows] == [5, 10]
        assert all(r[2] == 7 for r in rows)


def _count_kernel_at(monkeypatch):
    """Patch KernelFamily.kernel_at to count its calls; returns the counter."""
    calls = []
    original = KernelFamily.kernel_at

    def counted(self, k):
        calls.append(k)
        return original(self, k)

    monkeypatch.setattr(KernelFamily, "kernel_at", counted)
    return calls


def _cesaro_by_start(family, n_grid, m_sup_range):
    """The scan as a plain loop over starts: m outer, dense row stacks, strict-> argmax."""
    pi = stationary(family.limit).pi
    R = np.tile(pi, (family.size, 1))
    values = np.zeros(len(n_grid))
    argmax = np.zeros(len(n_grid), dtype=np.int64)
    for m in range(m_sup_range + 1):
        rows, running = np.eye(family.size), np.zeros_like(R)
        for t in range(1, n_grid[-1] + 1):
            rows = family.kernel_at(m + t).push(rows)
            running += rows
            if t in n_grid:
                g = n_grid.index(t)
                val = float(np.abs(running / t - R).sum(axis=1).max())
                if val > values[g]:
                    values[g], argmax[g] = val, m
    return values, argmax


class TestCesaroScan:
    # n = 1 and n past the carried band width (26 steps for zeta2, 61 for zeta4)
    CASES = {
        "zeta2": (lambda: zeta2_family(0.75, 40), [1, 3, 20, 60]),
        "zeta4": (lambda: zeta4_family(0.75, 1.0, 50), [1, 3, 40, 100]),
    }

    @pytest.mark.parametrize("m_sup", [0, 2, 8])
    @pytest.mark.parametrize("kind", ["zeta2", "zeta4"])
    def test_structured_matches_dense_twin(self, kind, m_sup, monkeypatch):
        make, grid = self.CASES[kind]
        fam = make()
        calls = _count_kernel_at(monkeypatch)
        band = condition_profile(fam, "cesaro_product_average", grid, m_sup)
        assert calls == []
        dense = condition_profile(
            dataclasses.replace(fam, structure=None), "cesaro_product_average", grid, m_sup
        )
        assert len(calls) <= m_sup + grid[-1]
        np.testing.assert_allclose(band.values, dense.values, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(band.m_argmax, dense.m_argmax)
        assert 0.0 <= band.error_bound <= 1e-15
        assert dense.error_bound == 0.0

    def test_large_n_scan_holds_one_start_of_temporaries(self):
        """At N = 32767 a chunk's running band sums take 16 starts x N x 27
        floats (108 MiB; zeta2 carries 26 band steps).  Every other array of
        that size is made one start at a time, so the peak stays within
        1.75x the sums (a whole-chunk temporary would add 108 MiB each)."""
        size = 32767
        fam = zeta2_family(0.75, size)
        held = ergodicity._CESARO_CHUNK * size * 27 * 8
        tracemalloc.start()
        try:
            prof = condition_profile(fam, "cesaro_product_average", [100],
                                     ergodicity._CESARO_CHUNK - 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * held
        assert prof.m_argmax.tolist() == [0] and 0.0 < prof.values[0] < 1.0

    @staticmethod
    def assert_closed_form_matches_the_loop(fam, grid, m_sup):
        """Within 1e-10 relative, exactly 0 where the loop gives 0, the same argmax."""
        prof = condition_profile(fam, "cesaro_product_average", grid, m_sup)
        values, argmax = _cesaro_by_start(fam, grid, m_sup)
        np.testing.assert_allclose(prof.values, values, rtol=1e-10, atol=0)
        np.testing.assert_array_equal(prof.m_argmax, argmax)
        assert prof.error_bound == 0.0
        return values

    @given(size=st.integers(2, 60), listed=st.integers(0, 5), m_sup=st.integers(0, 12),
           grid=st.lists(st.integers(1, 200), max_size=3), past=st.integers(6, 200),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_closed_form_matches_the_loop_over_starts(self, size, listed, m_sup, grid, past,
                                                      seed):
        """Random tables, and constant families (no listed kernel), against
        dense row stacks pushed start by start; the grid always holds a
        horizon ``past`` every listed step."""
        rng = np.random.default_rng(seed)
        limit = TruncatedKernel(random_stochastic(rng, size))
        table = [TruncatedKernel(random_stochastic(rng, size)) for _ in range(listed)]
        fam = nhmc.table_family(table, limit) if listed else constant_family(limit)
        assert fam.structure is None
        self.assert_closed_form_matches_the_loop(fam, sorted(set(grid) | {past}), m_sup)

    def test_closed_form_on_a_periodic_chain(self):
        """The swap [[0, 1], [1, 0]] never converges: the loop's gap is exactly
        0 at every even n and 1/n at odd n, and so is the closed form's."""
        fam = constant_family(TruncatedKernel(np.array([[0.0, 1.0], [1.0, 0.0]])))
        values = self.assert_closed_form_matches_the_loop(fam, [1, 2, 7, 64, 199, 200], 3)
        np.testing.assert_array_equal(values == 0.0, [False, True, False, True, False, True])

    def test_closed_form_on_two_nearly_uncoupled_blocks(self):
        """Two 3-state blocks coupled by eps = 1e-9: D = P - 1 pi has an
        eigenvalue within about 1e-9 of 1, so the fundamental-matrix form
        ``D (I - D^n) (I - D)^-1`` is about 1.7e-8 relative off the loop, past
        the 1e-10 held here; binary powers stay within 5e-15."""
        eps, rng = 1e-9, np.random.default_rng(5)
        rows = np.zeros((6, 6))
        rows[:3, :3], rows[3:, 3:] = random_stochastic(rng, 3), random_stochastic(rng, 3)
        rows *= 1.0 - eps
        rows[:3, 3] += eps
        rows[3:, 0] += eps
        fam = constant_family(TruncatedKernel(rows))
        values = self.assert_closed_form_matches_the_loop(fam, [1, 10, 100, 200], 2)
        assert values[-1] > 0.5  # the blocks have not mixed by n = 200

    @pytest.mark.parametrize("kind", ["zeta2", "zeta4"])
    def test_renormalize_matches_dense_twin(self, kind, monkeypatch):
        """Row stacks through the renormalize band steps against dense kernels."""
        fam = (zeta2_family(0.75, 30, nhmc.TailPolicy.RENORMALIZE) if kind == "zeta2"
               else zeta4_family(0.75, 1.0, 30, nhmc.TailPolicy.RENORMALIZE))
        grid, m_sup = [1, 5, 40], ergodicity._CESARO_CHUNK + 2
        calls = _count_kernel_at(monkeypatch)
        band = condition_profile(fam, "cesaro_product_average", grid, m_sup)
        assert calls == []
        dense = condition_profile(dataclasses.replace(fam, structure=None),
                                  "cesaro_product_average", grid, m_sup)
        np.testing.assert_allclose(band.values, dense.values, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(band.m_argmax, dense.m_argmax)
        # zeta2 drops its terms past 26 steps; zeta4 carries all 40 (its width is 61)
        assert band.error_bound <= 1e-15
        assert (band.error_bound > 0.0) == (kind == "zeta2")

    @given(kind=st.sampled_from(["zeta2", "zeta4"]), size=st.integers(3, 80),
           m_sup=st.integers(ergodicity._CESARO_CHUNK, ergodicity._CESARO_CHUNK + 3),
           grid=st.lists(st.integers(1, 64), max_size=3), past=st.integers(65, 80))
    @settings(max_examples=20, deadline=None)
    def test_renormalize_band_scan_matches_dense_twin(self, kind, size, m_sup, grid, past):
        """The dense last-row block against dense kernels: at N below the
        carried width (26 steps for zeta2, 61 for zeta4) every row is in the
        block, the starts span two chunks, the grid runs past the width, and
        zeta4's s(1) = 0 zeroes the start m = 0 at its first step."""
        policy = nhmc.TailPolicy.RENORMALIZE
        fam = (zeta2_family(0.75, size, policy) if kind == "zeta2"
               else zeta4_family(0.75, 1.0, size, policy))
        grid = sorted(set(grid) | {past})
        band = condition_profile(fam, "cesaro_product_average", grid, m_sup)
        dense = condition_profile(dataclasses.replace(fam, structure=None),
                                  "cesaro_product_average", grid, m_sup)
        assert 0.0 < band.error_bound <= 1e-15
        np.testing.assert_allclose(band.values, dense.values, rtol=0,
                                   atol=band.error_bound + 1e-12)
        np.testing.assert_array_equal(band.m_argmax, dense.m_argmax)

    def test_closed_form_reads_kernel_at_only_at_listed_steps(self, monkeypatch):
        """A table's kernels are read once each and no step past them (a
        constant family reads none); a built-in without its structure lists
        every step, and each of the m_sup_range + n_max steps is read once."""
        rng = np.random.default_rng(4)
        limit = TruncatedKernel(random_stochastic(rng, 8))
        table = [TruncatedKernel(random_stochastic(rng, 8)) for _ in range(3)]
        twin = dataclasses.replace(zeta2_family(0.75, 8, nhmc.TailPolicy.RENORMALIZE),
                                   structure=None)
        grid, m_sup = [1, 5, 30], 10
        calls = _count_kernel_at(monkeypatch)
        for fam, listed in ((nhmc.table_family(table, limit), 3), (constant_family(limit), 0),
                            (twin, m_sup + grid[-1])):
            calls.clear()
            condition_profile(fam, "cesaro_product_average", grid, m_sup)
            assert calls == list(range(1, listed + 1))

    @pytest.mark.parametrize("condition", list(ConvergenceCondition))
    @pytest.mark.parametrize("grid", [[0, 5], [-3, 5], [5, 5]])
    def test_bad_grid_rejected_before_any_scan(self, condition, grid, monkeypatch):
        """Entries below 1 would divide by zero in the scans and a repeat
        would fail only after them, so each is refused first."""
        def scan(*args):
            raise AssertionError("scanned a bad grid")

        for name in ("stationary", "delta_sequence", "_deviation_sequence",
                     "_cesaro_gaps_band", "_cesaro_gaps_closed"):
            monkeypatch.setattr(ergodicity, name, scan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(KernelValidationError):
                condition_profile(zeta2_family(0.75, 30), condition, grid, 3)

    def test_chunked_starts_match_one_chunk(self, monkeypatch):
        fam = zeta4_family(0.75, 1.0, 30)
        grid, m_sup = [1, 10, 80], 2 * ergodicity._CESARO_CHUNK + 5
        chunked = condition_profile(fam, "cesaro_product_average", grid, m_sup)
        monkeypatch.setattr(ergodicity, "_CESARO_CHUNK", m_sup + 1)
        whole = condition_profile(fam, "cesaro_product_average", grid, m_sup)
        np.testing.assert_allclose(chunked.values, whole.values, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(chunked.m_argmax, whole.m_argmax)
        assert chunked.error_bound <= 1e-15

    def test_scale_that_breaks_the_kernels_rejected(self):
        """zeta4 with beta = 3 reaches s(54) = 3.19, which would give P_54
        negative entries, so the family is rejected before any scan."""
        with pytest.raises(KernelValidationError):
            zeta4_family(0.75, 3.0, 50)

    @pytest.mark.parametrize("m", [2.5, True])
    def test_fractional_or_bool_m_sup_range_rejected(self, zeta2_small, m):
        for condition in ConvergenceCondition:
            with pytest.raises(KernelValidationError, match="m_sup_range must be an integer"):
                condition_profile(zeta2_small, condition, [5, 10], m_sup_range=m)

    def test_integral_float_m_sup_range_is_that_integer(self, zeta2_small):
        a = condition_profile(zeta2_small, "cesaro_product_average", [5, 10], m_sup_range=3.0)
        b = condition_profile(zeta2_small, "cesaro_product_average", [5, 10], m_sup_range=3)
        assert a.m_sup_range == 3 and isinstance(a.m_sup_range, int)
        np.testing.assert_array_equal(a.values, b.values)

    def test_negative_error_bound_rejected(self):
        with pytest.raises(KernelValidationError):
            ConditionProfile(ConvergenceCondition.CESARO_PRODUCT_AVERAGE, [1], [0.5], 0,
                             error_bound=-1.0)


def test_renormalize_family_builds_no_dense_kernel(monkeypatch):
    """The profiles, the sampler and the martingale check run on band steps."""
    fam = zeta2_family(0.75, 40, nhmc.TailPolicy.RENORMALIZE)
    mu0 = nhmc.point_mass(1, 40)
    obs = nhmc.ObservableSet((nhmc.indicator_observable(1, 40),))
    calls = _count_kernel_at(monkeypatch)
    for condition in ConvergenceCondition:
        condition_profile(fam, condition, [5, 50], 3)
    nhmc.sample_paths([1, 2, 3], mu0, fam, 50)
    theta = martingale_theta(fam, obs, [1.0])
    nhmc.martingale_check(fam, mu0, obs, [1.0], [10, 50], trials=20, base_seed=4,
                          theta_value=theta)
    assert calls == []


_TWIN_CASES = [(kind, policy, size) for kind in ("zeta2", "zeta4")
               for policy in nhmc.TailPolicy for size in (3, 4, 60)]


def _one_row_and_twin(row):
    """A kernel held as its one row and its dense twin."""
    row = np.asarray(row, dtype=float)
    return (TruncatedKernel(np.broadcast_to(row, (row.size, row.size))),
            TruncatedKernel(np.tile(row, (row.size, 1))))


class TestStationary:
    @pytest.mark.parametrize("kind, policy, size", _TWIN_CASES)
    def test_one_row_limit_matches_the_twin_power_iteration(self, kind, policy, size):
        kern = make_limit_kernel(kind, size, policy)
        one, twin = _one_row_and_twin(kern.rows[0])
        pi, ref = stationary(kern), stationary(twin)
        assert np.abs(pi.pi - ref.pi).sum() <= 1e-15
        np.testing.assert_array_equal(pi.pi, stationary(one).pi)
        assert pi.residual <= 1e-15 and ref.residual <= 1e-15

    @pytest.mark.parametrize("row", [
        [0.5, 0.0, 0.5], [0.0, 0.5, 0.5], [0.5, 0.5, 0.0, 0.0], [0.0, 1.0, 0.0],
        [0.25, 0.25, 0.25, 0.25],
    ])
    def test_one_row_irreducibility_matches_the_twin(self, row):
        """A zero entry makes the kernel reducible: the error names the same
        first unreached state as the dense search."""
        one, twin = _one_row_and_twin(row)
        try:
            expected = stationary(twin)
        except ReducibleKernelError as exc:
            with pytest.raises(ReducibleKernelError, match=f"^{exc}$"):
                stationary(one)
        else:
            np.testing.assert_allclose(stationary(one).pi, expected.pi, atol=1e-15)

    def test_identical_rows_kernel(self, iid_family):
        pi = stationary(iid_family.limit)
        np.testing.assert_allclose(pi.pi, iid_family.limit.rows[0], atol=1e-13)

    def test_two_state_symmetric(self):
        kern = TruncatedKernel(np.array([[0.5, 0.5], [0.5, 0.5]]))
        np.testing.assert_allclose(stationary(kern).pi, [0.5, 0.5], atol=1e-14)

    def test_zeta2_limit_pi_is_the_lumped_row(self):
        lim = make_limit_kernel("zeta2", 500)
        pi = stationary(lim)
        np.testing.assert_allclose(pi.pi, lim.rows[0], atol=1e-12)
        assert pi.residual <= 1e-10

    def test_random_kernel_fixed_point(self):
        rng = np.random.default_rng(3)
        kern = TruncatedKernel(random_stochastic(rng, 40))
        pi = stationary(kern)
        assert np.abs(pi.pi @ kern.rows - pi.pi).sum() <= 1e-10

    def test_three_cycle_is_uniform(self):
        """A kernel of period 3: the power iteration cycles, the law is uniform."""
        rows = np.zeros((3, 3))
        rows[0, 1] = rows[1, 2] = rows[2, 0] = 1.0
        np.testing.assert_allclose(stationary(TruncatedKernel(rows)).pi, 1 / 3, atol=1e-14)

    def test_periodic_swap_from_stationary_start_needs_no_solve(self):
        """The two-state swap has period 2; its stationary law is uniform."""
        kern = TruncatedKernel(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(stationary(kern).pi, [0.5, 0.5], atol=1e-12)

    def test_power_iteration_that_oscillates_takes_the_linear_solve(self):
        """Period 2: iterates of a law would alternate between two laws, while
        the linear solve gives pi at once."""
        kern = TruncatedKernel(np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        pi = stationary(kern)
        np.testing.assert_allclose(pi.pi, [0.5, 0.25, 0.25], atol=1e-14)
        assert pi.residual <= 1e-14

    def test_one_row_kernel_is_its_normalised_row_pushed_once(self, monkeypatch):
        """A kernel held as its one row b gives b / sum(b) pushed once and
        renormalised, bit for bit, and no linear solve runs."""
        monkeypatch.setattr(np.linalg, "solve", None)
        lim = make_limit_kernel("zeta4", 700)
        b = lim.rows[0]
        want = np.multiply.outer((b / b.sum()).sum(), b)
        want /= want.sum()
        assert stationary(lim).pi.tobytes() == want.tobytes()

    def test_dense_kernel_takes_one_linear_solve(self, monkeypatch):
        calls = []
        real = np.linalg.solve

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(np.linalg, "solve", spy)
        kern = TruncatedKernel(random_stochastic(np.random.default_rng(8), 60))
        pi = stationary(kern)
        assert len(calls) == 1
        assert pi.residual <= 1e-14 and abs(pi.pi.sum() - 1.0) <= 1e-15

    def test_reducible_rejected(self):
        kern = TruncatedKernel(np.eye(3))
        with pytest.raises(ReducibleKernelError):
            stationary(kern)

    @pytest.mark.parametrize("rows, message", [
        ([[0.5, 0.5], [0.0, 1.0]], "state 2 cannot reach state 1"),
        ([[1.0, 0.0], [0.5, 0.5]], "state 2 is not reachable from state 1"),
    ], ids=["reached_but_not_back", "reaching_but_not_reached"])
    def test_reducible_in_one_direction_rejected(self, rows, message):
        kern = TruncatedKernel(np.array(rows))
        with pytest.raises(ReducibleKernelError, match=message):
            stationary(kern)

    @given(st.integers(2, 12), st.integers(1, 4), st.floats(0.05, 0.7), st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_irreducibility_matches_transitive_closure(self, n, layers, density, seed):
        """Random sparse kernels whose edges go from layer c to layer c + 1
        (mod layers), so periodic kernels occur: irreducibility against a
        transitive closure."""
        rng = np.random.default_rng(seed)
        layers = min(layers, n)
        layer = rng.permutation(np.arange(n) % layers)
        allowed = layer[None, :] == (layer[:, None] + 1) % layers
        adj = allowed & (rng.random((n, n)) < density)
        for i in np.nonzero(~adj.any(axis=1))[0]:
            adj[i, rng.choice(np.nonzero(allowed[i])[0])] = True
        rows = np.where(adj, rng.random((n, n)) + 0.1, 0.0)
        kern = TruncatedKernel(rows / rows.sum(axis=1, keepdims=True))

        A = adj.astype(np.int64)
        reach = np.eye(n, dtype=np.int64) | A
        for _ in range(n):
            reach = ((reach + reach @ A) > 0).astype(np.int64)
        if reach.all():
            ergodicity._check_irreducible(kern)
        else:
            with pytest.raises(ReducibleKernelError):
                stationary(kern)
