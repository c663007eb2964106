import dataclasses
import warnings

import numpy as np
import pytest

import nhmc
from nhmc import (
    KernelValidationError,
    TruncatedKernel,
    constant_family,
    expected_sum,
    family_from_config,
    family_to_config,
    indicator_observable,
    kernel_product,
    make_kernel,
    make_limit_kernel,
    point_mass,
    propagate,
    zeta2_family,
    zeta4_family,
)

from conftest import random_stochastic


class TestTruncatedKernel:
    def test_row_mass_must_be_one(self):
        rows = np.array([[0.5, 0.4], [0.5, 0.5]])
        with pytest.raises(KernelValidationError):
            TruncatedKernel(rows, np.zeros(2))

    def test_entries_clamped_within_tolerance(self):
        rows = np.array([[-1e-13, 1.0 + 1e-13], [0.5, 0.5]])
        kern = TruncatedKernel(rows, np.zeros(2))
        assert kern.rows.min() >= 0.0
        assert kern.rows.max() <= 1.0

    def test_negative_entry_beyond_tolerance_rejected(self):
        rows = np.array([[-1e-9, 1.0 + 1e-9], [0.5, 0.5]])
        with pytest.raises(KernelValidationError):
            TruncatedKernel(rows, np.zeros(2))

    def test_tail_mass_accounted(self):
        rows = np.array([[0.5, 0.3], [0.2, 0.7]])
        kern = TruncatedKernel(rows, np.array([0.2, 0.1]))
        assert not kern.is_stochastic

    def test_immutable(self):
        kern = make_limit_kernel("zeta2", 5)
        with pytest.raises(ValueError):
            kern.rows[0, 0] = 0.5


class TestMakeKernel:
    def test_first_step_has_zero_diagonal(self):
        """At k=1 the perturbation scale is 1, so the diagonal vanishes."""
        kern = make_kernel("zeta2", k=1, size=50, alpha=0.75)
        np.testing.assert_allclose(np.diag(kern.rows)[:-1], 0.0, atol=1e-15)

    def test_limit_rows_are_the_power_law(self):
        n = 64
        lim = make_limit_kernel("zeta2", n)
        j = np.arange(1, n + 1, dtype=float)
        expected_head = (6 / np.pi**2) / j[:-1] ** 2
        np.testing.assert_allclose(lim.rows[0, :-1], expected_head, rtol=1e-15)
        # raw truncated row sums to (6/pi^2) * sum_{j<=N} j^-2 before lumping
        raw_sum = (6 / np.pi**2) * (1.0 / j**2).sum()
        assert lim.rows[0, -1] == pytest.approx(1.0 - raw_sum + (6 / np.pi**2) / n**2, rel=1e-12)
        assert lim.has_identical_rows()
        np.testing.assert_allclose(lim.rows.sum(axis=1), 1.0, atol=1e-12)

    def test_zeta4_first_step_equals_limit(self):
        """log(1) = 0 kills the perturbation at k=1."""
        kern = make_kernel("zeta4", k=1, size=40, alpha=0.75, beta=1.0)
        lim = make_limit_kernel("zeta4", 40)
        np.testing.assert_array_equal(kern.rows, lim.rows)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="zeta2", k=1, size=50, alpha=0.5),
            dict(kind="zeta2", k=0, size=50, alpha=0.75),
            dict(kind="zeta2", k=1, size=2, alpha=0.75),
            dict(kind="zeta4", k=1, size=50, alpha=0.75, beta=0.0),
            dict(kind="zeta4", k=1, size=50, alpha=0.75, beta=-1.0),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(KernelValidationError):
            make_kernel(**kwargs)

    @pytest.mark.parametrize("k", [1, 2, 5, 17, 400, 9781])
    def test_entries_nonnegative_at_all_steps(self, k):
        for kern in (
            make_kernel("zeta2", k, 60, alpha=0.6),
            make_kernel("zeta4", k, 60, alpha=0.6, beta=1.0),
        ):
            assert kern.rows.min() >= 0.0
            np.testing.assert_allclose(kern.rows.sum(1) + kern.tail_mass, 1.0, atol=1e-12)

    def test_zeta4_largest_scale_below_one_accepted(self):
        """At alpha=0.75, beta=2 the largest s(k) is 0.962, at k=14."""
        fam = zeta4_family(0.75, 2.0, 50)
        scales = fam.perturbation_scale(np.arange(1, 10**5))
        assert scales.max() == pytest.approx(0.962, abs=1e-3) and scales.argmax() + 1 == 14
        assert fam.kernel_at(14).rows.min() >= 0.0

    def test_zeta4_scale_above_one_rejected(self):
        """beta=3 reaches s(54) = 3.19, which would make P_54's diagonal negative."""
        with pytest.raises(KernelValidationError, match=r"s\(54\) = 3\.186"):
            family_from_config({"kind": "zeta4", "alpha": 0.75, "beta": 3.0, "N": 50})

    def test_huge_zeta4_beta_rejected_without_overflow(self):
        """The peak of s(k) lies near k = e^1333 here; it is decided in logs,
        so numpy warns of no overflow and the message carries no inf."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(KernelValidationError, match=r"exp\(6026\) > 1") as err:
                zeta4_family(0.75, 1000.0, 50)
        assert "inf" not in str(err.value)

    def test_renormalize_policy_rows_sum_to_one(self):
        kern = make_kernel("zeta2", 7, 50, alpha=0.75, tail_policy=nhmc.TailPolicy.RENORMALIZE)
        np.testing.assert_allclose(kern.rows.sum(axis=1), 1.0, atol=1e-12)


RENORMALIZE_FAMILIES = {
    "zeta2": lambda n: zeta2_family(0.75, n, nhmc.TailPolicy.RENORMALIZE),
    "zeta4": lambda n: zeta4_family(0.75, 1.0, n, nhmc.TailPolicy.RENORMALIZE),
}


class TestBandStep:
    @pytest.mark.parametrize("kind", ["zeta2", "zeta4"])
    def test_renormalize_step_matches_kernel(self, kind):
        """Band rows below N plus the replaced last row equal the dense
        renormalized kernel in push, apply_to_function and draw."""
        size = 150
        fam = RENORMALIZE_FAMILIES[kind](size)
        steps = list(fam.steps(550))
        rng = np.random.default_rng(7)
        for k in (1, 2, 3, 10, 550):
            step, kern = steps[k - 1], fam.kernel_at(k)
            p = rng.random(size)
            p *= 0.9 / p.sum()
            for got, want in zip(step.push(p, 0.1), kern.push(p, 0.1)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
            h = rng.standard_normal(size)
            np.testing.assert_allclose(step.apply_to_function(h, 3.0),
                                       kern.apply_to_function(h, 3.0), rtol=0, atol=1e-14)
            state = np.repeat([0, size - 2, size - 1], 400)
            u = rng.random(state.size)
            u[::400] = 1.0 - 2.0**-53
            drawn = step.draw(state, u)
            np.testing.assert_array_equal(drawn, kern.draw(state, u))
            assert drawn.max() < size  # u = 1 - 2^-53 stays on the states

    @pytest.mark.parametrize("policy", list(nhmc.TailPolicy))
    def test_apply_at_matches_apply_to_function_bit_for_bit(self, policy):
        """The O(trials) pull of the martingale pass at any states equals the
        full pull indexed there, last row included, to the last bit."""
        size = 150
        fam = zeta2_family(0.75, size, policy)
        h = np.random.default_rng(4).standard_normal(size) / 3.0
        terms = fam.structure.pull_terms(h)
        states = np.random.default_rng(5).integers(0, size, 500)
        states[:3] = [0, size - 2, size - 1]
        for step in fam.steps(40):
            np.testing.assert_array_equal(step.apply_at(h, states, *terms),
                                          step.apply_to_function(h)[states])

    @pytest.mark.parametrize("policy", list(nhmc.TailPolicy))
    def test_stack_push_with_per_law_tails_matches_dense(self, policy):
        """A stack of N laws, each with its own tail: a tail broadcast against
        the columns would raise no shape error at this width."""
        size = 40
        fam = zeta2_family(0.75, size, policy)
        step, kern = list(fam.steps(5))[-1], fam.kernel_at(5)
        rng = np.random.default_rng(3)
        tails = rng.random(size) * 0.5
        laws = rng.random((size, size))
        laws *= ((1.0 - tails) / laws.sum(axis=1))[:, None]
        rows, tail = step.push(laws, tails)
        want_rows, want_tail = kern.push(laws, tails)
        np.testing.assert_allclose(rows, want_rows, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(tail, want_tail)


class TestGuideTable:
    @pytest.mark.parametrize("size", [3, 150, 1000])
    @pytest.mark.parametrize("policy", list(nhmc.TailPolicy))
    @pytest.mark.parametrize("kind", ["zeta2", "zeta4"])
    def test_guide_search_equals_searchsorted(self, kind, policy, size, monkeypatch):
        """Every bucket edge k/M and every CDF entry, each also one ulp either
        side, plus the largest uniform below 1: the guide-table search must
        give ``min{j : C[j] >= u}`` exactly, and the band draw the states of a
        plain search."""
        fam = (zeta2_family(0.75, size, policy) if kind == "zeta2"
               else zeta4_family(0.75, 1.0, size, policy))
        band = fam.structure
        cdf = band.base_cdf
        buckets = band.guide.size
        assert buckets >= 4 * size and buckets & (buckets - 1) == 0
        points = np.concatenate([np.arange(buckets) / buckets, cdf, [0.0, 1.0 - 2.0**-53]])
        u = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
        u = u[(u >= 0.0) & (u < 1.0)]
        want = np.searchsorted(cdf, u, side="left")
        np.testing.assert_array_equal(band.search(u), want)
        tile = u[: u.size // 4 * 4].reshape(4, -1)[:, ::-1]  # a strided 2-D tile
        np.testing.assert_array_equal(band.search(tile), np.searchsorted(cdf, tile, side="left"))
        *_, step = fam.steps(7)
        states = np.repeat([0, size - 2, size - 1], u.size)
        uu = np.tile(u, 3)
        drawn = step.draw(states, uu)
        monkeypatch.setattr(type(band), "search",
                            lambda self, v: np.searchsorted(self.base_cdf, v, side="left"))
        np.testing.assert_array_equal(drawn, step.draw(states, uu))


class TestKernelProduct:
    def test_single_factor_is_the_kernel(self, iid_family):
        prod = kernel_product(iid_family, 3, 4)
        np.testing.assert_array_equal(prod.rows, iid_family.limit.rows)

    def test_product_of_stochastic_kernels_is_stochastic(self):
        fam = zeta2_family(0.75, 100)
        prod = kernel_product(fam, 0, 2)
        np.testing.assert_allclose(prod.rows.sum(axis=1) + prod.tail_mass, 1.0, atol=1e-12)

    def test_triple_product_entry_matches_naive_loops(self):
        """P1 P2 P3 entry (1,1) against a direct index-summed product."""
        fam = zeta2_family(0.75, 500)
        prod = kernel_product(fam, 0, 3)
        p1 = fam.kernel_at(1).rows
        p2 = fam.kernel_at(2).rows
        p3 = fam.kernel_at(3).rows
        direct = 0.0
        for a in range(500):
            row_sum = 0.0
            for b in range(500):
                row_sum += p2[a, b] * p3[b, 0]
            direct += p1[0, a] * row_sum
        assert prod.rows[0, 0] == pytest.approx(direct, abs=1e-13)

    def test_semigroup_property(self):
        fam = zeta2_family(0.8, 60)
        whole = kernel_product(fam, 1, 6)
        left = kernel_product(fam, 1, 3)
        right = kernel_product(fam, 3, 6)
        np.testing.assert_allclose(whole.rows, left.rows @ right.rows, atol=1e-12)

    def test_bad_indices(self, iid_family):
        with pytest.raises(KernelValidationError):
            kernel_product(iid_family, 3, 3)


class TestPropagate:
    def test_zero_steps_returns_start(self, zeta2_small, start200):
        out = propagate(start200, zeta2_small, 0)
        np.testing.assert_array_equal(out.probs, start200.probs)
        assert out.step_index == 0

    def test_rank_one_kernel_forgets_the_start(self, iid_family):
        mu0 = nhmc.uniform_initial(200)
        out = propagate(mu0, iid_family, 1)
        np.testing.assert_allclose(out.probs, iid_family.limit.rows[0], atol=1e-14)

    @pytest.mark.parametrize("tail", [0.0, 0.1])
    def test_structured_path_matches_dense_propagation(self, zeta2_small, start200, tail):
        """The O(N) update must agree with explicit vector-kernel products,
        also for a start law whose escaped mass stays in the tail."""
        mu0 = nhmc.InitialDistribution((1.0 - tail) * start200.probs, tail)
        out = propagate(mu0, zeta2_small, 25)
        probs = mu0.probs.copy()
        for k in range(1, 26):
            probs = probs @ zeta2_small.kernel_at(k).rows
        np.testing.assert_allclose(out.probs, probs, atol=1e-13)
        assert out.tail_mass == tail

    def test_monte_carlo_oracle(self):
        """Distribution at k=10 against 10^6 sampled trajectories, 3 SE per state."""
        fam = zeta2_family(0.75, 500)
        mu0 = point_mass(1, 500)
        exact = propagate(mu0, fam, 10).probs
        trials = 10**6
        paths = nhmc.sample_paths(nhmc.trial_seeds(20260810, trials), mu0, fam, 10)
        counts = np.bincount(paths[:, 10], minlength=500)
        freq = counts / trials
        se = np.sqrt(np.clip(exact * (1 - exact), 1e-30, None) / trials)
        # Bernoulli counts: compare per state at 3 standard errors
        assert (np.abs(freq - exact) <= 3 * se + 1e-12).mean() > 0.995
        assert abs(freq[0] - exact[0]) <= 3 * se[0]

    def test_mass_preserved_over_long_horizons(self, zeta2_small, start200):
        out = propagate(start200, zeta2_small, 10**4)
        assert abs(out.probs.sum() - 1.0) <= 1e-10


class TestExpectedSum:
    def test_constant_observable(self, iid_family, start200):
        f = nhmc.Observable(np.full(200, 2.5), 2.5)
        assert expected_sum(start200, iid_family, f, 40) == pytest.approx(100.0, abs=1e-10)

    def test_rank_one_kernel_indicator(self, iid_family, start200, ind200, q_zeta2):
        val = expected_sum(start200, iid_family, ind200, 30)
        assert val == pytest.approx(30 * q_zeta2, abs=1e-12)

    def test_monte_carlo_oracle(self, q_zeta2):
        """E[S_100] against the sample mean of 10^6 trajectories, 3 SE."""
        fam = zeta2_family(0.75, 500)
        mu0 = point_mass(1, 500)
        f = indicator_observable(1, 500)
        exact = expected_sum(mu0, fam, f, 100)
        sums = nhmc.simulate_sums(mu0, fam, f, 100, 10**6, 77)
        se = sums.std(ddof=1) / np.sqrt(len(sums))
        assert abs(sums.mean() - exact) <= 3 * se

    @pytest.mark.parametrize("kind", ["zeta2", "zeta4"])
    def test_renormalize_matches_dense_twin(self, kind):
        fam = RENORMALIZE_FAMILIES[kind](60)
        twin = dataclasses.replace(fam, structure=None)
        mu0, f = nhmc.uniform_initial(60), nhmc.capped_identity_observable(3, 60)
        assert expected_sum(mu0, fam, f, 300) == pytest.approx(
            expected_sum(mu0, twin, f, 300), rel=1e-12, abs=0)

    def test_matches_stepwise_propagation(self, zeta2_small, start200, ind200):
        total = sum(
            propagate(start200, zeta2_small, k).expectation(ind200) for k in range(1, 21)
        )
        assert expected_sum(start200, zeta2_small, ind200, 20) == pytest.approx(total, abs=1e-12)

    def test_grid_totals_are_the_one_horizon_values(self, zeta2_small, start200, ind200):
        """One propagation across a grid gives every horizon's total bit for
        bit, for one observable and for a set (one row per horizon)."""
        grid = [1, 7, 50, 333]
        totals = expected_sum(start200, zeta2_small, ind200, grid)
        assert isinstance(totals, np.ndarray) and totals.shape == (4,)
        assert totals.tolist() == [expected_sum(start200, zeta2_small, ind200, h) for h in grid]
        obs = nhmc.ObservableSet((ind200, nhmc.capped_identity_observable(3, 200)))
        stack = expected_sum(start200, zeta2_small, obs, grid)
        assert stack.shape == (4, 2)
        for row, h in zip(stack, grid):
            assert row.tobytes() == expected_sum(start200, zeta2_small, obs, h).tobytes()

    @pytest.mark.parametrize("grid", [[], [4, 4], [0, 3]], ids=["empty", "repeat", "zero"])
    def test_bad_grid_rejected(self, zeta2_small, start200, ind200, grid):
        with pytest.raises(KernelValidationError, match="horizons"):
            expected_sum(start200, zeta2_small, ind200, grid)


class TestSerialization:
    def test_round_trip_builtin(self):
        fam = zeta4_family(0.9, 0.5, 40)
        cfg = family_to_config(fam)
        back = family_from_config(cfg)
        assert back.kind == "zeta4" and back.alpha == 0.9 and back.beta == 0.5
        np.testing.assert_array_equal(back.limit.rows, fam.limit.rows)

    def test_wire_format_fields(self):
        cfg = family_to_config(zeta2_family(0.75, 1000))
        assert cfg == {"kind": "zeta2", "alpha": 0.75, "N": 1000, "tail_policy": "lump"}

    def test_alias_kinds_accepted(self):
        fam = family_from_config({"kind": "example1", "alpha": 0.75, "N": 20})
        assert fam.kind == "zeta2"

    def test_constant_round_trip(self):
        rng = np.random.default_rng(5)
        kern = TruncatedKernel(random_stochastic(rng, 6), np.zeros(6))
        fam = constant_family(kern)
        back = family_from_config(family_to_config(fam))
        np.testing.assert_allclose(back.limit.rows, kern.rows)

    def test_unknown_kind_rejected(self):
        with pytest.raises(KernelValidationError):
            family_from_config({"kind": "mystery", "N": 10})
