import dataclasses
import math
import warnings
from functools import reduce

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
    period,
    stationary,
    strong_ergodicity_profile,
    sup_row_norm,
    zeta2_family,
    zeta4_family,
)

from conftest import random_stochastic


class TestSupRowNorm:
    def test_stochastic_kernel_has_norm_one(self):
        rng = np.random.default_rng(0)
        kern = TruncatedKernel(random_stochastic(rng, 30), np.zeros(30))
        assert sup_row_norm(kern) == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix(self):
        assert sup_row_norm(np.zeros((5, 5))) == 0.0

    def test_deviation_formula_for_zeta2(self):
        """||P_k - P|| = (12/pi^2) k^(-alpha), attained at the first row."""
        fam = zeta2_family(0.75, 300)
        for k in (1, 4, 10, 111):
            diff = fam.kernel_at(k).rows - fam.limit.rows
            expected = 12 / np.pi**2 * k**-0.75
            assert sup_row_norm(diff) == pytest.approx(expected, rel=1e-12)
            assert np.abs(diff).sum(axis=1).argmax() == 0

    @given(st.integers(2, 8), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_submultiplicative(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        assert sup_row_norm(a @ b) <= sup_row_norm(a) * sup_row_norm(b) + 1e-9


class TestDobrushinDelta:
    def test_identical_rows_gives_zero(self, iid_family):
        assert dobrushin_delta(iid_family.limit) == 0.0

    def test_identity_gives_one(self):
        kern = TruncatedKernel(np.eye(6), np.zeros(6))
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
        kern = TruncatedKernel(random_stochastic(rng, n), np.zeros(n))
        val = dobrushin_delta(kern)
        assert -1e-12 <= val <= 1.0 + 1e-12

    def test_zero_iff_identical_rows(self):
        rng = np.random.default_rng(1)
        row = random_stochastic(rng, 8)[0]
        rank_one = TruncatedKernel(np.tile(row, (8, 1)), np.zeros(8))
        assert dobrushin_delta(rank_one) == 0.0
        perturbed = rank_one.rows.copy()
        perturbed[0, 0] += 0.01
        perturbed[0, 1] -= 0.01
        assert dobrushin_delta(TruncatedKernel(perturbed, np.zeros(8))) > 0.0

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
        In the last band the largest column-(i+1) term moves from i = 0 to
        i = 1 as s(k) falls."""
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
        for base, pert in bands:
            size = base.size
            band = nhmc.kernels._make_structure(base, pert, float(base[-1]))
            limit = TruncatedKernel(np.tile(base, (size, 1)), np.zeros(size))
            fam = dataclasses.replace(zeta2_family(0.75, size, nhmc.TailPolicy.RENORMALIZE),
                                      structure=band, limit=limit)
            deltas = delta_sequence(fam, 20)
            deviations = ergodicity._deviation_sequence(fam, 20)
            for k, step in enumerate(fam.steps(20), start=1):
                rows, _ = step.push(np.eye(size), np.zeros(size))
                kern = TruncatedKernel(rows, np.zeros(size))
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
        limit = TruncatedKernel(random_stochastic(rng, size), np.zeros(size))
        table = [TruncatedKernel(random_stochastic(rng, size), np.zeros(size))
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

    def test_table_limit_with_tail_mass(self):
        """A stochastic step kernel against a limit that loses 0.1 per row:
        the deviation counts the tail, 0.1 in the rows plus 0.1 escaped."""
        k1 = TruncatedKernel(random_stochastic(np.random.default_rng(5), 3), np.zeros(3))
        lim = TruncatedKernel(0.9 * k1.rows, np.full(3, 0.1))
        prof = condition_profile(nhmc.table_family([k1], lim), "mean_kernel_deviation",
                                 [2, 4], 3)
        np.testing.assert_allclose(prof.values, [0.1, 0.05], atol=1e-15)

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
        rows, tail = np.eye(family.size), np.zeros(family.size)
        running, running_tail = np.zeros_like(R), np.zeros(family.size)
        for t in range(1, n_grid[-1] + 1):
            rows, tail = family.kernel_at(m + t).push(rows, tail)
            running += rows
            running_tail += tail
            if t in n_grid:
                g = n_grid.index(t)
                val = float((np.abs(running / t - R).sum(axis=1) + running_tail / t).max())
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

    def test_dense_scan_equals_the_loop_over_starts(self):
        """k outer and chunked, the dense scan keeps every operation of the plain loop."""
        fam = dataclasses.replace(zeta2_family(0.75, 12, nhmc.TailPolicy.RENORMALIZE),
                                  structure=None)
        grid, m_sup = [1, 5, 30], ergodicity._CESARO_CHUNK + 3
        prof = condition_profile(fam, "cesaro_product_average", grid, m_sup)
        values, argmax = _cesaro_by_start(fam, grid, m_sup)
        np.testing.assert_array_equal(prof.values, values)
        np.testing.assert_array_equal(prof.m_argmax, argmax)

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

    def test_dense_scan_builds_each_kernel_once_per_chunk_from_its_first_start(
            self, monkeypatch):
        """A chunk of starts m0..m1 reads the kernels m0+1..m1+n_max and no
        earlier ones: 128 calls for 70 distinct steps at m_sup_range = 40."""
        fam = dataclasses.replace(zeta2_family(0.75, 12, nhmc.TailPolicy.RENORMALIZE),
                                  structure=None)
        grid, m_sup = [1, 5, 30], 40
        calls = _count_kernel_at(monkeypatch)
        condition_profile(fam, "cesaro_product_average", grid, m_sup)
        chunk = ergodicity._CESARO_CHUNK
        expected = [k for lo in range(0, m_sup + 1, chunk)
                    for k in range(lo + 1, min(lo + chunk - 1, m_sup) + grid[-1] + 1)]
        assert calls == expected
        assert len(calls) == 128 and len(set(calls)) == 70

    @pytest.mark.parametrize("condition", list(ConvergenceCondition))
    @pytest.mark.parametrize("grid", [[0, 5], [-3, 5], [5, 5]])
    def test_bad_grid_rejected_before_any_scan(self, condition, grid, monkeypatch):
        """Entries below 1 would divide by zero in the scans and a repeat
        would fail only after them, so each is refused first."""
        def scan(*args):
            raise AssertionError("scanned a bad grid")

        for name in ("stationary", "delta_sequence", "_deviation_sequence",
                     "_cesaro_gaps_band", "_cesaro_gaps_dense"):
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
    nhmc.martingale_check(fam, mu0, obs, [1.0], [10, 50], trials=20, base_seed=4)
    assert calls == []


class TestStationary:
    def test_identical_rows_kernel(self, iid_family):
        pi = stationary(iid_family.limit)
        np.testing.assert_allclose(pi.pi, iid_family.limit.rows[0], atol=1e-13)

    def test_two_state_symmetric(self):
        kern = TruncatedKernel(np.array([[0.5, 0.5], [0.5, 0.5]]), np.zeros(2))
        np.testing.assert_allclose(stationary(kern).pi, [0.5, 0.5], atol=1e-14)

    def test_zeta2_limit_pi_is_the_lumped_row(self):
        lim = make_limit_kernel("zeta2", 500)
        pi = stationary(lim)
        np.testing.assert_allclose(pi.pi, lim.rows[0], atol=1e-12)
        assert pi.residual <= 1e-10

    def test_random_kernel_fixed_point(self):
        rng = np.random.default_rng(3)
        kern = TruncatedKernel(random_stochastic(rng, 40), np.zeros(40))
        pi = stationary(kern)
        assert np.abs(pi.pi @ kern.rows - pi.pi).sum() <= 1e-10

    def test_periodic_swap_from_stationary_start_needs_no_solve(self, monkeypatch):
        """Period 2, but the uniform start is already stationary for the
        two-state swap: power iteration stops after one sweep and no linear
        solve runs."""
        calls = []
        real = np.linalg.lstsq

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        kern = TruncatedKernel(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2))
        assert period(kern) == 2
        np.testing.assert_allclose(stationary(kern).pi, [0.5, 0.5], atol=1e-12)
        assert calls == []

    def test_power_iteration_that_oscillates_takes_the_linear_solve(self, monkeypatch):
        """Period 2: from the uniform start the iterates alternate between two
        laws, so the sweeps run out and the least-squares solve gives pi."""
        calls = []
        real = np.linalg.lstsq

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        kern = TruncatedKernel(np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                               np.zeros(3))
        assert period(kern) == 2
        pi = stationary(kern)
        assert len(calls) == 1
        np.testing.assert_allclose(pi.pi, [0.5, 0.25, 0.25], atol=1e-14)
        assert pi.residual <= 1e-14

    def test_reducible_rejected(self):
        kern = TruncatedKernel(np.eye(3), np.zeros(3))
        with pytest.raises(ReducibleKernelError):
            stationary(kern)

    @pytest.mark.parametrize("rows, message", [
        ([[0.5, 0.5], [0.0, 1.0]], "state 2 cannot reach state 1"),
        ([[1.0, 0.0], [0.5, 0.5]], "state 2 is not reachable from state 1"),
    ], ids=["reached_but_not_back", "reaching_but_not_reached"])
    def test_reducible_in_one_direction_rejected(self, rows, message):
        kern = TruncatedKernel(np.array(rows), np.zeros(2))
        for fn in (stationary, period):
            with pytest.raises(ReducibleKernelError, match=message):
                fn(kern)


class TestPeriod:
    def test_self_loop_forces_aperiodicity(self):
        rng = np.random.default_rng(2)
        kern = TruncatedKernel(random_stochastic(rng, 5), np.zeros(5))
        assert period(kern) == 1

    def test_two_state_swap(self):
        kern = TruncatedKernel(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2))
        assert period(kern) == 2

    def test_three_cycle(self):
        rows = np.zeros((3, 3))
        rows[0, 1] = rows[1, 2] = rows[2, 0] = 1.0
        assert period(TruncatedKernel(rows, np.zeros(3))) == 3

    def test_zeta2_limit_is_aperiodic(self):
        assert period(make_limit_kernel("zeta2", 50)) == 1

    @given(st.integers(2, 12), st.integers(1, 4), st.floats(0.05, 0.7), st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_matches_path_count_oracles(self, n, layers, density, seed):
        """Random sparse kernels whose edges go from layer c to layer c + 1
        (mod layers), so periods above 1 occur: irreducibility against a
        transitive closure, the period against gcd{k <= N^2 : (A^k)[0, 0] > 0}."""
        rng = np.random.default_rng(seed)
        layers = min(layers, n)
        layer = rng.permutation(np.arange(n) % layers)
        allowed = layer[None, :] == (layer[:, None] + 1) % layers
        adj = allowed & (rng.random((n, n)) < density)
        for i in np.nonzero(~adj.any(axis=1))[0]:
            adj[i, rng.choice(np.nonzero(allowed[i])[0])] = True
        rows = np.where(adj, rng.random((n, n)) + 0.1, 0.0)
        kern = TruncatedKernel(rows / rows.sum(axis=1, keepdims=True), np.zeros(n))

        A = adj.astype(np.int64)
        reach = np.eye(n, dtype=np.int64) | A
        for _ in range(n):
            reach = ((reach + reach @ A) > 0).astype(np.int64)
        if not reach.all():
            for fn in (stationary, period):
                with pytest.raises(ReducibleKernelError):
                    fn(kern)
            return
        power, returns = A, []
        for k in range(1, n * n + 1):
            if power[0, 0]:
                returns.append(k)
            power = ((power @ A) > 0).astype(np.int64)
        assert period(kern) == reduce(math.gcd, returns)


class TestStrongErgodicity:
    def test_identical_rows_profile_is_zero(self, iid_family):
        vals = strong_ergodicity_profile(iid_family.limit, [1, 2, 3])
        np.testing.assert_allclose(vals, 0.0, atol=1e-13)

    def test_identity_does_not_decay(self):
        kern = TruncatedKernel(np.eye(3), np.zeros(3))
        vals = strong_ergodicity_profile(kern, [1, 5, 25], pi=np.full(3, 1 / 3))
        assert (np.diff(vals) == 0).all() and vals[0] > 0.5

    @pytest.mark.parametrize("k_grid", [[], [3, 3]])
    def test_empty_or_repeated_grid_is_a_validation_error(self, k_grid):
        kern = TruncatedKernel(np.array([[0.9, 0.1], [0.2, 0.8]]), np.zeros(2))
        with pytest.raises(KernelValidationError):
            strong_ergodicity_profile(kern, k_grid)

    def test_two_state_geometric_rate(self):
        """||P^k - R|| = c * 0.7^k for the 2-state chain with gap eigenvalue 0.7."""
        kern = TruncatedKernel(np.array([[0.9, 0.1], [0.2, 0.8]]), np.zeros(2))
        ks = np.arange(1, 40)
        vals = strong_ergodicity_profile(kern, ks)
        slope = np.polyfit(ks, np.log(vals), 1)[0]
        assert slope == pytest.approx(np.log(0.7), abs=1e-6)
