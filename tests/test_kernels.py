import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

import nhmc
from nhmc import (
    KernelValidationError,
    TruncatedKernel,
    constant_family,
    expected_sum,
    family_from_config,
    indicator_observable,
    make_kernel,
    make_limit_kernel,
    point_mass,
    propagate,
    zeta2_family,
    zeta4_family,
)
from nhmc.kernels import _propagation_steps, expected_step_values

from conftest import random_stochastic

FALSE_ALARM = 1e-4  # the law check's, split evenly between its two parts


def law_check(counts: np.ndarray, law: np.ndarray):
    """Sampled state counts against the exact law, at a false-alarm rate of at
    most ``FALSE_ALARM`` for a correct sampler.  Half of it goes to a
    Bonferroni bound on each live state (exact binomial tails, both sides),
    half to Pearson's chi-square against its 1 - FALSE_ALARM/2 quantile, over
    cells of adjacent live states that each expect at least 20 draws.
    Returns (states outside their bounds, chi-square, its limit, the rule's
    false-alarm rate: the Bonferroni tails' exact sum plus the chi-square
    level)."""
    trials = int(counts.sum())
    live = np.flatnonzero(law > 0)
    p, c = law[live], counts[live]
    tail = FALSE_ALARM / 2 / live.size / 2  # per state and side
    lo, hi = stats.binom.ppf(tail, trials, p), stats.binom.isf(tail, trials, p)
    outside = np.concatenate([live[(c < lo) | (c > hi)], np.flatnonzero((law <= 0) & (counts > 0))])
    expected = trials * p
    starts, pending = [0], 0.0
    for i, e in enumerate(expected[:-1], start=1):
        pending += e
        if pending >= 20:
            starts.append(i)
            pending = 0.0
    if len(starts) > 1 and expected[starts[-1]:].sum() < 20:
        starts.pop()  # the short last cell joins the one before
    got, want = np.add.reduceat(c, starts), np.add.reduceat(expected, starts)
    chi2 = float(((got - want) ** 2 / want).sum())
    limit = stats.chi2.isf(FALSE_ALARM / 2, got.size - 1)
    rate = float((stats.binom.cdf(lo - 1, trials, p) + stats.binom.sf(hi, trials, p)).sum())
    return outside, chi2, limit, rate + FALSE_ALARM / 2


class TestTruncatedKernel:
    def test_row_mass_must_be_one(self):
        rows = np.array([[0.5, 0.4], [0.5, 0.5]])
        with pytest.raises(KernelValidationError):
            TruncatedKernel(rows)

    def test_entries_clamped_within_tolerance(self):
        rows = np.array([[-1e-13, 1.0 + 1e-13], [0.5, 0.5]])
        kern = TruncatedKernel(rows)
        assert kern.rows.min() >= 0.0
        assert kern.rows.max() <= 1.0

    def test_negative_entry_beyond_tolerance_rejected(self):
        rows = np.array([[-1e-9, 1.0 + 1e-9], [0.5, 0.5]])
        with pytest.raises(KernelValidationError):
            TruncatedKernel(rows)

    def test_immutable(self):
        kern = make_limit_kernel("zeta2", 5)
        with pytest.raises(ValueError):
            kern.rows[0, 0] = 0.5


_TWIN_CASES = [(kind, policy, size) for kind in ("zeta2", "zeta4")
               for policy in nhmc.TailPolicy for size in (3, 4, 60)]


class TestOneRowKernel:
    """A limit held as its one row b against its dense twin, the same rows
    tiled into an N x N array."""

    @staticmethod
    def pair(kind, policy, size):
        kern = make_limit_kernel(kind, size, policy)
        return kern, TruncatedKernel(np.tile(kern.rows[0], (size, 1)))

    @pytest.mark.parametrize("kind, policy, size", _TWIN_CASES)
    def test_held_as_one_read_only_row(self, kind, policy, size):
        kern, twin = self.pair(kind, policy, size)
        assert kern.rows.strides[0] == 0 and twin.rows.strides[0] != 0
        assert kern.has_identical_rows() and twin.has_identical_rows()
        np.testing.assert_array_equal(kern.rows, twin.rows)
        with pytest.raises(ValueError):
            kern.rows[0, 0] = 0.5

    @pytest.mark.parametrize("kind, policy, size", _TWIN_CASES)
    def test_apply_and_push_match_the_twin(self, kind, policy, size):
        kern, twin = self.pair(kind, policy, size)
        rng = np.random.default_rng(size)
        h = rng.standard_normal(size)
        np.testing.assert_allclose(kern.apply_to_function(h), twin.apply_to_function(h),
                                   rtol=1e-14, atol=1e-15)
        law = rng.random(size)
        law /= law.sum()
        np.testing.assert_allclose(kern.push(law), twin.push(law), rtol=1e-14, atol=0)
        stack = rng.random((5, size)) * rng.random((5, 1)) * 3  # a mass per law
        masses = stack.sum(axis=1)
        for out in (kern.push(stack), kern.push(stack, masses)):
            assert out.shape == stack.shape
            np.testing.assert_allclose(out, twin.push(stack), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("kind, policy, size", _TWIN_CASES)
    def test_draw_matches_the_twin(self, kind, policy, size):
        kern, twin = self.pair(kind, policy, size)
        cdf = np.cumsum(kern.rows[0])
        cdf[-1] = 1.0
        edges = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0)])
        u = np.concatenate([edges[edges < 1.0], [0.0, 1.0 - 2.0**-53],
                            np.random.default_rng(size).random(500)])
        states = np.arange(u.size) % size
        drawn = kern.draw(states, u)
        np.testing.assert_array_equal(drawn, twin.draw(states, u))
        assert drawn.max() <= size - 1

    def test_validated_on_its_row(self):
        for row, message in (([0.5, 0.6, -0.1], "outside"), ([0.5, 0.4, 0.0], "row mass"),
                             ([0.5, np.nan, 0.5], "finite")):
            with pytest.raises(KernelValidationError, match=message):
                TruncatedKernel(np.broadcast_to(np.array(row), (3, 3)))
        kern = TruncatedKernel(np.broadcast_to(np.array([-1e-13, 0.5, 0.5 + 1e-13]), (3, 3)))
        assert kern.rows.strides[0] == 0 and kern.rows.min() == 0.0


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
            np.testing.assert_allclose(kern.rows.sum(1), 1.0, atol=1e-12)

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
            p /= p.sum()
            np.testing.assert_allclose(step.push(p), kern.push(p), rtol=0, atol=1e-15)
            h = rng.standard_normal(size)
            np.testing.assert_allclose(step.apply_to_function(h),
                                       kern.apply_to_function(h), rtol=0, atol=1e-14)
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
        """A stack of N laws, each short of 1 by its own amount and pushed
        with its own mass: a mass broadcast against the columns would raise
        no shape error at this width."""
        size = 40
        fam = zeta2_family(0.75, size, policy)
        step, kern = list(fam.steps(5))[-1], fam.kernel_at(5)
        rng = np.random.default_rng(3)
        masses = 1.0 - rng.random(size) * 0.5
        laws = rng.random((size, size))
        laws *= (masses / laws.sum(axis=1))[:, None]
        np.testing.assert_allclose(step.push(laws, masses), kern.push(laws, masses),
                                   rtol=0, atol=1e-15)

    @given(st.sampled_from(list(nhmc.TailPolicy)), st.integers(3, 60), st.integers(1, 40),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    @example(nhmc.TailPolicy.LUMP, 40, 5, 3)
    @example(nhmc.TailPolicy.RENORMALIZE, 40, 5, 3)
    def test_stack_push_with_per_law_masses_matches_dense(self, policy, size, k, seed):
        """A stack of N laws, each scaled by its own mass (0, a subnormal, 1
        and random ones), pushed with those masses equals the dense product
        within 1e-13 of each law's mass (floored at the smallest normal float,
        below which floats keep only absolute precision).  A mass taken as
        1 - (1 - mass) loses the subnormal law's mass; a mass broadcast
        against the columns would raise no shape error at this width."""
        fam = zeta2_family(0.75, size, policy)
        *_, step = fam.steps(k)
        rng = np.random.default_rng(seed)
        masses = np.concatenate([[0.0, 1e-310, 1.0], rng.random(size - 3)])
        laws = rng.random((size, size))
        laws *= (masses / laws.sum(axis=1))[:, None]
        got = step.push(laws, masses)
        want = laws @ fam.kernel_at(k).rows
        tol = 1e-13 * np.maximum(masses, np.finfo(float).tiny)
        assert np.all(np.abs(got - want) <= tol[:, None])


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


class TestPropagate:
    def test_zero_steps_returns_start(self, zeta2_small, start200):
        out = propagate(start200, zeta2_small, 0)
        np.testing.assert_array_equal(out, start200.probs)

    @pytest.mark.parametrize("k", [3.5, True, "3"])
    def test_fractional_or_bool_step_count_rejected(self, zeta2_small, start200, k):
        with pytest.raises(KernelValidationError, match="step count must be an integer"):
            propagate(start200, zeta2_small, k)

    def test_integral_float_step_count_is_that_integer(self, zeta2_small, start200):
        out = propagate(start200, zeta2_small, 3.0)
        np.testing.assert_array_equal(out, propagate(start200, zeta2_small, 3))

    def test_rank_one_kernel_forgets_the_start(self, iid_family):
        mu0 = nhmc.uniform_initial(200)
        out = propagate(mu0, iid_family, 1)
        np.testing.assert_allclose(out, iid_family.limit.rows[0], atol=1e-14)

    def test_structured_path_matches_dense_propagation(self, zeta2_small, start200):
        """The O(N) update must agree with explicit vector-kernel products."""
        out = propagate(start200, zeta2_small, 25)
        probs = start200.probs.copy()
        for k in range(1, 26):
            probs = probs @ zeta2_small.kernel_at(k).rows
        np.testing.assert_allclose(out, probs, atol=1e-13)

    def test_monte_carlo_oracle(self):
        """Distribution at k=10 against 10^6 sampled trajectories: every live
        state within its Bonferroni binomial bounds and the chi-square within
        its limit (``law_check``: a correct sampler fails with probability at
        most 1e-4), and state 1 within 3 SE."""
        fam = zeta2_family(0.75, 500)
        mu0 = point_mass(1, 500)
        exact = propagate(mu0, fam, 10)
        trials = 10**6
        paths = nhmc.sample_paths(np.arange(trials), mu0, fam, 10, 20260810)
        counts = np.bincount(paths[:, 10], minlength=500)
        outside, chi2, limit, false_alarm = law_check(counts, exact)
        assert false_alarm <= 1e-4
        assert outside.size == 0, f"states {outside + 1} outside their bounds"
        assert chi2 <= limit, f"chi-square {chi2:.1f} above {limit:.1f}"
        freq = counts / trials
        se = np.sqrt(exact[0] * (1 - exact[0]) / trials)
        assert abs(freq[0] - exact[0]) <= 3 * se

    def test_mass_preserved_over_long_horizons(self, zeta2_small, start200):
        out = propagate(start200, zeta2_small, 10**4)
        assert abs(out.sum() - 1.0) <= 1e-10

    @pytest.mark.parametrize("kind", ["zeta2", "zeta4"])
    @pytest.mark.parametrize("policy", list(nhmc.TailPolicy))
    def test_law_stays_on_the_simplex(self, kind, policy):
        """Every law of a built-in family is a probability vector on 1..N."""
        fam = (zeta2_family(0.75, 100, policy) if kind == "zeta2"
               else zeta4_family(0.75, 1.0, 100, policy))
        for k in (1, 2, 7, 60):
            out = propagate(point_mass(1, 100), fam, k)
            assert out.min() >= 0.0 and out.max() <= 1.0
            assert abs(out.sum() - 1.0) <= 1e-12

    def test_three_step_law_matches_naive_loops(self):
        """P(X_3 = 1 | X_0 = 1) against an index-summed product of P_1 P_2 P_3."""
        size = 300
        fam = zeta2_family(0.75, size)
        p1, p2, p3 = (fam.kernel_at(k).rows for k in (1, 2, 3))
        direct = 0.0
        for a in range(size):
            row_sum = 0.0
            for b in range(size):
                row_sum += p2[a, b] * p3[b, 0]
            direct += p1[0, a] * row_sum
        assert propagate(point_mass(1, size), fam, 3)[0] == pytest.approx(direct, abs=1e-13)

    def test_returned_law_is_read_only(self, zeta2_small, start200):
        out = propagate(start200, zeta2_small, 4)
        with pytest.raises(ValueError, match="read-only"):
            out[0] = 0.5

    def test_negative_step_count_rejected(self, zeta2_small, start200):
        with pytest.raises(KernelValidationError, match="step count must be >= 0"):
            propagate(start200, zeta2_small, -1)

    @pytest.mark.parametrize("law, message", [
        ([0.5, 0.5 + 1e-9, -1e-9], "negative mass at step 3"),
        ([0.5, 0.5, 1e-9], "mass deviates from 1 by .* at step 3"),
    ], ids=["negative", "total"])
    def test_law_off_the_simplex_is_refused_naming_the_step(self, monkeypatch, law, message):
        def steps(mu0, family, n):
            yield from ((None, np.array(law)) for _ in range(n))

        monkeypatch.setattr(nhmc.kernels, "_propagation_steps", steps)
        with pytest.raises(KernelValidationError, match=message):
            propagate(point_mass(1, 3), zeta2_family(0.75, 3), 3)


class TestObservable:
    def test_empty_values_are_a_validation_error(self):
        with pytest.raises(KernelValidationError, match="nonempty vector"):
            nhmc.Observable(np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_values_are_a_validation_error(self, bad):
        with pytest.raises(KernelValidationError, match="finite"):
            nhmc.Observable(np.array([1.0, bad, 2.0]))

    def test_values_are_a_read_only_float_vector(self):
        f = nhmc.Observable([-3, 1, 2])
        assert f.values.dtype == float and f.size == 3
        assert not f.values.flags.writeable

    def test_combine_is_the_weighted_sum_on_the_states(self):
        obs = nhmc.ObservableSet((indicator_observable(2, 4),
                                  nhmc.capped_identity_observable(3, 4)))
        g = obs.combine([2.0, -0.5])
        np.testing.assert_array_equal(g.values, [-0.5, 1.0, -1.5, -1.5])

    def test_combine_weight_length_is_checked(self):
        obs = nhmc.ObservableSet((indicator_observable(1, 4),))
        with pytest.raises(KernelValidationError, match="length 1"):
            obs.combine([1.0, 2.0])

    def test_capped_identity_is_min_of_state_and_cap(self):
        f = nhmc.capped_identity_observable(3, 6)
        np.testing.assert_array_equal(f.values, [1.0, 2.0, 3.0, 3.0, 3.0, 3.0])
        assert f.is_integer_valued()
        with pytest.raises(KernelValidationError, match="cap must be >= 1"):
            nhmc.capped_identity_observable(0, 6)


class TestExpectedSum:
    @pytest.mark.parametrize("n", [2.5, True])
    def test_fractional_or_bool_step_count_rejected(self, zeta2_small, start200, ind200, n):
        obs = nhmc.ObservableSet((ind200,))
        with pytest.raises(KernelValidationError, match="step count must be an integer"):
            expected_step_values(start200, zeta2_small, obs, n)

    def test_integral_float_step_count_is_that_integer(self, zeta2_small, start200, ind200):
        obs = nhmc.ObservableSet((ind200,))
        np.testing.assert_array_equal(expected_step_values(start200, zeta2_small, obs, 7.0),
                                      expected_step_values(start200, zeta2_small, obs, 7))

    def test_constant_observable(self, iid_family, start200):
        f = nhmc.Observable(np.full(200, 2.5))
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
            propagate(start200, zeta2_small, k) @ ind200.values for k in range(1, 21)
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


    @pytest.mark.parametrize("n", [10.7, True, [3, 9.5]], ids=["fraction", "bool", "grid"])
    def test_non_integer_horizon_rejected(self, n):
        """A fraction or a bool is refused, never truncated to a horizon."""
        fam, mu0, f = zeta2_family(0.75, 30), point_mass(1, 30), indicator_observable(1, 30)
        with pytest.raises(KernelValidationError, match="horizons entry must be an integer"):
            expected_sum(mu0, fam, f, n)

    def test_integral_float_horizon_is_that_integer(self):
        fam, mu0, f = zeta2_family(0.75, 30), point_mass(1, 30), indicator_observable(1, 30)
        assert expected_sum(mu0, fam, f, 10.0) == expected_sum(mu0, fam, f, 10)
        assert (expected_sum(mu0, fam, f, [4.0, 10.0]).tolist()
                == expected_sum(mu0, fam, f, [4, 10]).tolist())


def propagated_step_values(mu0, family, obs, n):
    """E f_l(X_k), k = 1..n, by step-by-step propagation of the law."""
    out = np.empty((n, len(obs)))
    for k, (_, probs) in enumerate(_propagation_steps(mu0, family, n)):
        out[k] = [probs @ o.values for o in obs]
    return out


class TestBandSeries:
    @given(st.sampled_from(["zeta2", "zeta4", "constant"]), st.floats(0.51, 3.0),
           st.floats(0.05, 2.0), st.integers(3, 300),
           st.integers(0, 2**32 - 1), st.integers(1, 3000))
    @settings(max_examples=40, deadline=None)
    @example("zeta2", 0.75, 1.0, 300, 1, 3000)
    @example("zeta4", 0.75, 1.0, 300, 2, 3000)
    @example("zeta4", 0.51, 1.0, 200, 3, 3000)  # T = 223, near the cap
    @example("zeta2", 0.51, 1.0, 3, 4, 3000)
    @example("constant", 1.0, 1.0, 100, 5, 2000)
    def test_matches_propagation(self, kind, alpha, beta, size, seed, n):
        """Per-step E f(X_k) and grid totals agree with propagation to 1e-13
        of max |f| (times the horizon for a total), for random start laws
        and observables."""
        try:
            fam = {"zeta2": lambda: zeta2_family(alpha, size),
                   "zeta4": lambda: zeta4_family(alpha, beta, size),
                   "constant": lambda: constant_family(make_limit_kernel("zeta2", size))}[kind]()
        except KernelValidationError:  # zeta4 with some s(k) > 1
            assume(False)
        assume(fam._series_terms is not None)
        rng = np.random.default_rng(seed)
        probs = rng.random(size)
        mu0 = nhmc.InitialDistribution(probs / probs.sum())
        obs = nhmc.ObservableSet((indicator_observable(1, size),
                                  nhmc.Observable(rng.normal(size=size)),
                                  nhmc.Observable(rng.integers(-3, 4, size) * 1.0)))
        bound = np.abs(obs.value_matrix()).max(axis=1)
        series = expected_step_values(mu0, fam, obs, n)
        oracle = propagated_step_values(mu0, fam, obs, n)
        assert np.all(np.abs(series - oracle) <= 1e-13 * bound)
        grid = sorted({1, max(1, n // 3), n})
        totals = expected_sum(mu0, fam, obs, grid)
        want = np.cumsum(oracle, axis=0)[np.array(grid) - 1]
        assert np.all(np.abs(totals - want) <= 1e-13 * bound * np.array(grid)[:, None])

    def test_terms_do_not_depend_on_the_horizon(self, monkeypatch):
        """T is fixed by the family: the same T band powers at n = 10 and
        n = 10^6, and the same bits for the steps both cover."""
        fam = zeta4_family(0.75, 1.0, 50)
        counts = []
        real = nhmc.kernels._RankOneBand.band_powers

        def band_powers(band, x, count):
            counts.append(count)
            return real(band, x, count)

        monkeypatch.setattr(nhmc.kernels._RankOneBand, "band_powers", band_powers)
        obs = nhmc.ObservableSet((indicator_observable(1, 50),))
        short = expected_step_values(point_mass(1, 50), fam, obs, 10)
        long = expected_step_values(point_mass(1, 50), fam, obs, 10**6)
        assert counts == [fam._series_terms] * 4
        assert short.tobytes() == long[:10].tobytes()

    def test_open_bound_keeps_propagation(self, monkeypatch):
        """zeta4 at alpha=0.6, beta=1.5 keeps rho*s(k) near 1 for too long for
        the bound to close within the cap, so its means are propagated."""
        fam = zeta4_family(0.6, 1.5, 30)
        assert fam._series_terms is None
        steps = []
        real = nhmc.kernels._propagation_steps

        def spy(mu0, family, n):
            steps.append(n)
            return real(mu0, family, n)

        def no_series(*args):
            raise AssertionError("the band series ran")

        monkeypatch.setattr(nhmc.kernels, "_propagation_steps", spy)
        monkeypatch.setattr(nhmc.simulate, "_propagation_steps", spy)
        monkeypatch.setattr(nhmc.kernels, "_band_series", no_series)
        monkeypatch.setattr(nhmc.simulate, "_band_series", no_series)
        f = indicator_observable(1, 30)
        expected_sum(point_mass(1, 30), fam, f, [5, 40])
        nhmc.martingale_check(fam, point_mass(1, 30), nhmc.ObservableSet((f,)), [1.0],
                              [20], trials=4, theta_value=0.2)
        assert steps == [40, 20]

    @pytest.mark.parametrize("family", ["zeta2", "renormalize", "table"])
    def test_step_values_edges(self, family):
        fam = {"zeta2": lambda: zeta2_family(0.75, 20),
               "renormalize": lambda: zeta2_family(0.75, 20, nhmc.TailPolicy.RENORMALIZE),
               "table": lambda: nhmc.table_family([], make_limit_kernel("zeta2", 20))}[family]()
        obs = nhmc.ObservableSet((indicator_observable(1, 20), indicator_observable(2, 20)))
        assert expected_step_values(point_mass(1, 20), fam, obs, 0).shape == (0, 2)
        with pytest.raises(KernelValidationError, match="step count"):
            expected_step_values(point_mass(1, 20), fam, obs, -1)
        wrong = nhmc.ObservableSet((indicator_observable(1, 21),))
        with pytest.raises(KernelValidationError, match="observable size"):
            expected_step_values(point_mass(1, 20), fam, wrong, 5)


class TestFamilyFromConfig:
    ROWS = [[0.5, 0.5], [0.25, 0.75]]

    def test_alias_kinds_accepted(self):
        fam = family_from_config({"kind": "example1", "alpha": 0.75, "N": 20})
        assert fam.kind == "zeta2"

    @pytest.mark.parametrize("cfg", [
        {"kind": "zeta4", "alpha": 0.9, "beta": 0.5, "N": 40, "tail_policy": "renormalize"},
        {"kind": "constant", "matrix": ROWS, "N": 2, "tail_policy": "lump"},
        {"kind": "table", "matrices": [ROWS], "limit": ROWS, "N": 2, "tail_policy": "lump"},
    ], ids=["zeta4", "constant", "table"])
    def test_every_kind_takes_its_fields_and_N_and_tail_policy(self, cfg):
        fam = family_from_config(cfg)
        assert fam.kind == cfg["kind"] and fam.size == cfg["N"]

    @pytest.mark.parametrize("cfg, field", [
        ({"kind": "zeta2", "alpha": 0.75, "N": 20, "tail_polcy": "renormalize"}, "'tail_polcy'"),
        ({"kind": "zeta2", "alpha": 0.75, "beta": 1.0, "N": 20}, "'beta'"),
        ({"kind": "constant", "matrix": ROWS, "limit": ROWS}, "'limit'"),
        ({"kind": "table", "matrix": ROWS, "matrices": [], "limit": ROWS}, "'matrix'"),
    ], ids=["misspelt_tail_policy", "zeta2_beta", "constant_limit", "table_matrix"])
    def test_field_its_kind_does_not_take_is_refused_by_name(self, cfg, field):
        with pytest.raises(KernelValidationError, match=f"unknown field {field}"):
            family_from_config(cfg)

    @pytest.mark.parametrize("cfg, name", [
        ({"kind": "zeta2", "alpha": True, "N": 20}, "family alpha"),
        ({"kind": "zeta2", "alpha": "0.75", "N": 20}, "family alpha"),
        ({"kind": "zeta4", "alpha": 0.75, "beta": True, "N": 20}, "family beta"),
    ], ids=["alpha_bool", "alpha_string", "beta_bool"])
    def test_real_parameter_refuses_bools_and_strings(self, cfg, name):
        with pytest.raises(KernelValidationError, match=f"{name} must be a number"):
            family_from_config(cfg)

    def test_unknown_kind_rejected(self):
        with pytest.raises(KernelValidationError):
            family_from_config({"kind": "mystery", "N": 10})
