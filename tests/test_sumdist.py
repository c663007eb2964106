import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
    zeta4_family,
)


def raw_twin(family, merge=False):
    """The family itself when ``merge``, else its ``structure=None`` twin: the
    same kernels, whose DP runs on the raw states 1..N through ``kernel_at``."""
    return family if merge else dataclasses.replace(family, structure=None)


def full_sweep_dp(mu0, family, f, n):
    """Plain forward DP over every (state, partial sum) on the dense kernels;
    returns the pmf from n * min f."""
    rel = np.round(f.values).astype(np.int64)
    rel -= rel.min()
    width = n * int(rel.max()) + 1
    table = np.zeros((family.size, width))
    table[:, 0] = mu0.probs
    for k in range(1, n + 1):
        moved = family.kernel_at(k).rows.T @ table
        table = np.zeros_like(table)
        for i, g in enumerate(rel):
            table[i, g:] = moved[i, : width - g]
    return table.sum(axis=0)


def plain_sweep(mu0, family, f, grid):
    """The DP sweep written plainly from ``_lumped_chain``'s inputs: each step
    clears the whole window, sums each edge column with numpy, and builds the
    merged ``A_k`` with two ufuncs in one reused buffer.  Returns (offset,
    pmf, dropped mass) per horizon of the ascending ``grid``."""
    lumped = nhmc.sumdist._lumped_chain(family, mu0, f)
    if lumped is not None:
        fixed, coeff_t, values, start = lumped
    else:
        values, start = np.round(f.values).astype(np.int64), mu0.probs
    rel, n, tiny = values - values.min(), grid[-1], np.finfo(float).tiny
    vrange = int(rel.max())
    if lumped is not None:
        cuts = np.r_[0, np.flatnonzero(np.diff(rel)) + 1, rel.size]
        groups = [(int(rel[a]), slice(a, b)) for a, b in zip(cuts[:-1], cuts[1:])]
        step = np.empty_like(fixed)
        ops = (np.add(fixed, np.multiply(coeff_t, s, out=step), out=step)
               for s in family.perturbation_scale(np.arange(1, n + 1)))
    else:
        groups = [(int(g), rel == g) for g in np.unique(rel)]
        ops = family.steps(n)
    cur = np.zeros((rel.size, n * vrange + 1))
    cur[:, 0] = start
    nxt = np.zeros_like(cur)
    lo, hi, dropped, out = 0, 1, 0.0, []
    for k, op in enumerate(ops, 1):
        nxt[:, lo:hi + vrange] = 0.0
        sub = cur[:, lo:hi]
        mass = None if lumped is not None else nhmc.sumdist._raw_step(sub, op)
        for g, rows in groups:
            if lumped is not None:
                np.matmul(op[rows], sub, out=nxt[rows, lo + g:hi + g])
            else:
                nxt[rows, lo + g:hi + g] = mass[rows]
        hi += vrange
        while hi - lo > 1 and (edge := nxt[:, lo].sum()) < tiny:
            dropped += edge
            lo += 1
        while hi - lo > 1 and (edge := nxt[:, hi - 1].sum()) < tiny:
            dropped += edge
            hi -= 1
        cur, nxt = nxt, cur
        if k in grid:
            pmf = np.zeros(k * vrange + 1)
            pmf[lo:hi] = cur[:, lo:hi].sum(axis=0)
            out.append((k * int(values.min()), np.clip(pmf, 0.0, None), dropped))
    return out


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
        raw = exact_sum_distribution(start200, raw_twin(fam), ind200, 25)
        np.testing.assert_allclose(merged.pmf, raw.pmf, atol=1e-14)

    def test_merged_equals_raw_for_capped_identity(self, start200):
        fam = zeta2_family(0.75, 200)
        f = capped_identity_observable(3, 200)
        merged = exact_sum_distribution(start200, fam, f, 12)
        raw = exact_sum_distribution(start200, raw_twin(fam), f, 12)
        np.testing.assert_allclose(merged.pmf, raw.pmf, atol=1e-13)
        assert merged.support_offset == 12

    @given(st.sampled_from(["zeta2", "zeta4"]), st.floats(0.55, 2.0), st.integers(4, 12),
           st.sampled_from(["indicator", "capped_identity"]), st.integers(1, 300),
           st.sampled_from(list(nhmc.TailPolicy)))
    @settings(max_examples=25, deadline=None)
    @example("zeta4", 0.75, 8, "capped_identity", 300, nhmc.TailPolicy.LUMP)
    @example("zeta4", 0.75, 8, "indicator", 300, nhmc.TailPolicy.LUMP)
    @example("zeta4", 0.75, 8, "capped_identity", 300, nhmc.TailPolicy.RENORMALIZE)
    def test_window_matches_full_sweep(self, kind, alpha, size, observable, n, policy):
        """The live window drops no more than it reports, merged (lump) or on
        the raw states (renormalize)."""
        fam = (zeta2_family(alpha, size, policy) if kind == "zeta2"
               else zeta4_family(alpha, 1.0, size, policy))
        f = (indicator_observable(1, size) if observable == "indicator"
             else capped_identity_observable(3, size))
        mu0 = point_mass(1, size)
        dist = exact_sum_distribution(mu0, fam, f, n)
        assert 0.0 <= dist.dropped_mass <= 1e-290
        reference = full_sweep_dp(mu0, fam, f, n)
        assert dist.pmf.size == reference.size
        assert np.abs(dist.pmf - reference).max() <= dist.dropped_mass + 1e-13

    @pytest.mark.parametrize("kind, observable, merged", [
        ("zeta2", "indicator", True), ("zeta2", "capped_identity", True),
        ("zeta4", "indicator", True), ("zeta4", "capped_identity", True),
        ("zeta2", "capped_identity", False)])
    def test_sweep_is_bit_identical_to_the_plain_sweep(self, kind, observable, merged):
        """Clearing only the margins, summing edges as Python floats and building
        A_k by the chunk move no bit of any pmf or offset, across the window's
        trims; the dropped mass is bit-identical on the merged classes (fewer
        than 8 rows, where Python's row-order sum is numpy's) and within 1e-12
        relative on the raw states (renormalize)."""
        size, grid, policy = ((200, [256, 2000], nhmc.TailPolicy.LUMP) if merged
                              else (60, [64, 600], nhmc.TailPolicy.RENORMALIZE))
        fam = (zeta2_family(0.75, size, policy) if kind == "zeta2"
               else zeta4_family(0.75, 1.0, size, policy))
        f = (indicator_observable(1, size) if observable == "indicator"
             else capped_identity_observable(3, size))
        mu0 = point_mass(1, size)
        assert (nhmc.sumdist._lumped_chain(fam, mu0, f) is not None) == merged
        dists = exact_sum_distribution(mu0, fam, f, grid)
        for dist, (offset, pmf, dropped) in zip(dists, plain_sweep(mu0, fam, f, grid)):
            assert dist.support_offset == offset
            assert dist.pmf.tobytes() == pmf.tobytes()
            if merged:
                assert dist.dropped_mass == dropped
            else:
                assert dist.dropped_mass == pytest.approx(dropped, rel=1e-12, abs=0)

    def test_window_drops_subnormal_columns(self, iid_family, start200, ind200, q_zeta2):
        """At n = 3000 both tails of the binomial law fall below the smallest
        normal float; the window drops them and bounds the error."""
        dist = exact_sum_distribution(start200, iid_family, ind200, 3000)
        assert 0.0 < dist.dropped_mass <= 1e-290
        exact = binom.pmf(np.arange(3001), 3000, q_zeta2)
        assert np.abs(dist.pmf - exact).max() <= dist.dropped_mass + 1e-13
        assert dist.pmf[0] == 0.0  # (1 - q)^3000 is far below the smallest normal float

    @pytest.mark.parametrize("steps", ["band", "dense"])
    @pytest.mark.parametrize("observable", ["indicator", "capped_identity"])
    def test_raw_window_drops_subnormal_columns(self, observable, steps):
        """At n = 1500 the far tails of a renormalize chain's law fall below
        the smallest normal float; the raw-state DP's window drops them and
        bounds the error, through the band steps and the dense kernels alike."""
        fam = zeta2_family(0.75, 6, nhmc.TailPolicy.RENORMALIZE)
        if steps == "dense":
            fam = dataclasses.replace(fam, structure=None)
        f = (indicator_observable(1, 6) if observable == "indicator"
             else capped_identity_observable(3, 6))
        mu0 = point_mass(1, 6)
        dist = exact_sum_distribution(mu0, fam, f, 1500)
        assert 0.0 < dist.dropped_mass <= 1e-290
        reference = full_sweep_dp(mu0, fam, f, 1500)
        assert np.abs(dist.pmf - reference).max() <= dist.dropped_mass + 1e-13

    @pytest.mark.parametrize("kind", ["zeta2", "zeta4"])
    def test_renormalize_raw_dp_matches_dense_twin(self, kind):
        """Raw-state DP through the band steps against the dense kernels."""
        fam = (zeta2_family(0.75, 40, nhmc.TailPolicy.RENORMALIZE) if kind == "zeta2"
               else nhmc.zeta4_family(0.75, 1.0, 40, nhmc.TailPolicy.RENORMALIZE))
        mu0 = nhmc.uniform_initial(40)
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
        assert dist.expected == expected_sum(start200, fam, f, 300)
        assert dist.mean == pytest.approx(dist.expected, abs=1e-8)

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
            exact_sum_distribution(start200, raw_twin(iid_family), ind200, 10**5,
                                   cell_budget=10**6)

    @pytest.mark.parametrize("merge, states, n", [(True, 3, 2 * 10**4), (False, 201, 10**3)])
    def test_budget_counts_the_tables_before_allocating(self, iid_family, start200,
                                                        merge, states, n):
        """A budget of n * range * states cells (capped_identity(3) has range
        2) cannot hold the DP's tables of states x (n * range + 1) cells
        (1.9 and 3.2 MB for two tables here): it is refused before anything
        of the DP's size is allocated."""
        f, fam = capped_identity_observable(3, 200), raw_twin(iid_family, merge)
        tracemalloc.start()
        try:
            with pytest.raises(KernelValidationError, match="budget"):
                exact_sum_distribution(start200, fam, f, n, cell_budget=n * 2 * states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("kind", ["merged", "raw_band", "raw_dense"])
    def test_budget_bounds_peak_memory(self, kind):
        """The budget counts two tables of states x (n * range + 1) cells (four
        on the raw states, whose push holds two work arrays) plus n step
        scales; a DP at exactly its count runs within 10% of that many
        float64s."""
        renormalize = zeta2_family(0.75, 60, nhmc.TailPolicy.RENORMALIZE)
        fam, n, cells = {
            "merged": (zeta2_family(0.75, 60), 5000, 2 * 3 * 10001 + 5000),
            "raw_band": (renormalize, 600, 4 * 60 * 1201 + 600),
            "raw_dense": (dataclasses.replace(renormalize, structure=None), 600,
                          4 * 60 * 1201 + 600),
        }[kind]
        mu0, f = point_mass(1, 60), capped_identity_observable(3, 60)
        with pytest.raises(KernelValidationError, match="budget"):
            exact_sum_distribution(mu0, fam, f, n, cell_budget=cells - 1)
        tracemalloc.start()
        try:
            exact_sum_distribution(mu0, fam, f, n, cell_budget=cells)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * cells

    @pytest.mark.parametrize("merge", [True, False])
    def test_grid_budget_refused_before_any_step(self, iid_family, start200, monkeypatch,
                                                  merge):
        """A grid whose last horizon is over budget is refused before any step
        of any horizon runs, and the message names that horizon."""
        def no_steps(*args, **kwargs):
            raise AssertionError("a DP step ran on an over-budget grid")

        monkeypatch.setattr(nhmc.KernelFamily, "steps", no_steps)
        monkeypatch.setattr(nhmc.KernelFamily, "perturbation_scale", no_steps)
        f = capped_identity_observable(3, 200)
        with pytest.raises(KernelValidationError, match="budget exceeded at n=100000"):
            exact_sum_distribution(start200, raw_twin(iid_family, merge), f, [10, 20, 10**5],
                                   cell_budget=10**6)

    def test_grid_budget_counts_earlier_snapshots(self):
        """The grid's count is the largest horizon's tables and step scales
        plus the earlier horizons' pmfs; a sweep at exactly that count runs
        within 10% of that many float64s."""
        fam, grid = zeta2_family(0.75, 60), [1000, 3000, 5000]
        mu0, f = point_mass(1, 60), capped_identity_observable(3, 60)
        cells = 2 * 3 * 10001 + 5000 + 2001 + 6001
        with pytest.raises(KernelValidationError, match="budget"):
            exact_sum_distribution(mu0, fam, f, grid, cell_budget=cells - 1)
        tracemalloc.start()
        try:
            dists = exact_sum_distribution(mu0, fam, f, grid, cell_budget=cells)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [d.n for d in dists] == grid
        assert peak <= 1.1 * 8 * cells

    def test_grid_mean_mismatch_names_the_horizon(self, iid_family, start200, ind200,
                                                  monkeypatch):
        real = nhmc.sumdist.expected_sum

        def off_at_second(*args):
            out = real(*args)
            out[1] += 1.0
            return out

        monkeypatch.setattr(nhmc.sumdist, "expected_sum", off_at_second)
        with pytest.raises(nhmc.DPConsistencyError, match="at n=200 "):
            exact_sum_distribution(start200, iid_family, ind200, [100, 200, 300])

    def test_tail_probability_thresholds(self, iid_family, start200, ind200):
        dist = exact_sum_distribution(start200, iid_family, ind200, 10)
        assert dist.tail_probability(-3) == 1.0
        assert dist.tail_probability(11) == 0.0
        assert dist.tail_probability(4.0) == pytest.approx(dist.pmf[4:].sum())
        assert dist.tail_probability(3.2) == pytest.approx(dist.pmf[4:].sum())

    def test_tail_probability_at_infinite_thresholds(self, iid_family, start200, ind200):
        """A threshold that overflowed to +-inf has the tail of its sign, not an
        OverflowError; +-1e300 give the same tails."""
        dist = exact_sum_distribution(start200, iid_family, ind200, 10)
        assert dist.tail_probability(np.inf) == dist.tail_probability(1e300) == 0.0
        assert dist.tail_probability(-np.inf) == dist.tail_probability(-1e300) == 1.0

    def test_constant_observable_is_degenerate(self, iid_family, start200):
        f = Observable(np.full(200, 2.0))
        dist = exact_sum_distribution(start200, iid_family, f, 9)
        assert dist.support_offset == 18
        np.testing.assert_allclose(dist.pmf, [1.0])


def _grid_case(case):
    """(family, start law, observable) of one DP path the grid sweep serves."""
    size = 12
    lump2, lump4 = zeta2_family(0.75, size), zeta4_family(0.75, 1.0, size)
    ren = zeta2_family(0.75, size, nhmc.TailPolicy.RENORMALIZE)
    point, f = point_mass(1, size), capped_identity_observable(3, size)
    return {
        "merged_zeta2": (lump2, point, indicator_observable(1, size)),
        "merged_zeta4": (lump4, point, f),
        "renormalize": (ren, point, f),
        "table": (nhmc.table_family([lump2.kernel_at(k) for k in range(1, 6)], lump2.limit),
                  point, f),
    }[case]


def _assert_bit_identical(grid_dist, single):
    assert grid_dist.n == single.n
    assert grid_dist.support_offset == single.support_offset
    assert grid_dist.pmf.tobytes() == single.pmf.tobytes()
    assert (grid_dist.mean, grid_dist.expected, grid_dist.dropped_mass) == (
        single.mean, single.expected, single.dropped_mass)


class TestHorizonGrid:
    @given(st.sampled_from(["merged_zeta2", "merged_zeta4", "renormalize", "table"]),
           st.booleans(), st.sets(st.integers(1, 150), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_grid_equals_one_call_per_horizon(self, case, merge, horizons):
        """One sweep across the grid gives every horizon's pmf, mean,
        expectation, dropped mass and offset bit for bit."""
        fam, mu0, f = _grid_case(case)
        fam, grid = raw_twin(fam, merge), sorted(horizons)
        dists = exact_sum_distribution(mu0, fam, f, grid)
        assert len(dists) == len(grid)
        for h, dist in zip(grid, dists):
            _assert_bit_identical(dist, exact_sum_distribution(mu0, fam, f, h))

    def test_grid_snapshots_carry_their_dropped_mass(self, iid_family, start200, ind200):
        """Past n = 3000 the binomial tails are dropped; each snapshot carries
        the mass dropped up to its own step."""
        grid = [500, 3000, 3200]
        dists = exact_sum_distribution(start200, iid_family, ind200, grid)
        assert dists[0].dropped_mass < dists[1].dropped_mass < dists[2].dropped_mass
        assert dists[1].dropped_mass > 0.0
        for h, dist in zip(grid, dists):
            _assert_bit_identical(dist, exact_sum_distribution(start200, iid_family, ind200, h))

    def test_grid_is_sorted_and_checked(self, iid_family, start200, ind200):
        dists = exact_sum_distribution(start200, iid_family, ind200, [30, 10, 20])
        assert [d.n for d in dists] == [10, 20, 30]
        for bad in ([], [5, 5], [0, 3]):
            with pytest.raises(KernelValidationError, match="horizons"):
                exact_sum_distribution(start200, iid_family, ind200, bad)
