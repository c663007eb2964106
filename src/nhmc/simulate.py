"""Monte Carlo experiments and limit-law diagnostics.

Everything here is a pure function of (configuration, base_seed): trial t
draws from its lane of base_seed's lane-group streams (``sampling``), and
the blocks of ``iter_seed_blocks`` run one after another in one loop, so a
block's partition never changes an output.

Centered quantities always use the exact expectation, never a sample mean:
the band series of ``kernels._band_series`` on lump band families (T terms
fixed per family, at most 2^-60 times max |f| dropped), step-by-step
propagation on the others.  Conditional expectations are read off the
kernel rows, never estimated.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .kernels import (
    InitialDistribution,
    KernelFamily,
    KernelValidationError,
    Observable,
    ObservableSet,
    _Horizons,
    _band_series,
    _check_sizes,
    _count,
    _horizon_grid,
    _propagation_steps,
    _readonly,
    expected_step_values,  # not called here: perfbench/tracer.py wraps this import site
    expected_sum,
)
from .rates import _theta, rate_1d
from .sampling import _base_seed, _walk, iter_seed_blocks, sample_paths
from .sumdist import exact_sum_distribution

__all__ = [
    "SpeedFunction",
    "CltDiagnostic",
    "MdpEstimate",
    "MartingaleResult",
    "simulate_sums",
    "clt_diagnostic",
    "mdp_diagnostic",
    "martingale_check",
]


@dataclass(frozen=True)
class SpeedFunction:
    """Moderate-deviation speed a(n) = n^beta with 1/2 < beta < 1 strictly.

    The exponent range forces a(n)/sqrt(n) -> infinity and a(n)/n -> 0,
    which is the regime between the CLT and the law of large numbers.
    """

    beta: float

    def __post_init__(self):
        if not 0.5 < self.beta < 1.0:
            raise KernelValidationError(
                f"speed exponent must lie strictly in (1/2, 1), got {self.beta}"
            )

    def __call__(self, n: int) -> float:
        return float(n) ** self.beta

    def scale_log(self, n: int, log_prob: float) -> float:
        """(n / a(n)^2) * log_prob, the normalization of the tail exponent."""
        return n / self(n) ** 2 * log_prob


CLT_MIN_SAMPLES = 1000  # the fewest samples the normal diagnostic takes

# trials and steps per summing tile in simulate_sums: the steps fixed, so no
# sum depends on block sizes, the trials so a tile stays 1 MiB beside the table
_SUM_TILE = 256


# ---------------------------------------------------------------------------
# sampling-driven sums
# ---------------------------------------------------------------------------

def simulate_sums(
    mu0: InitialDistribution,
    family: KernelFamily,
    f: Observable | ObservableSet,
    n: int | Sequence[int],
    trials: int,
    base_seed: int,
) -> np.ndarray:
    """Independent samples of S_n (shape (trials,)) or of the per-observable
    sum vector (shape (trials, m)) when given an ObservableSet.

    With a horizon grid ``n`` (read as ``expected_sum`` reads it: horizons
    >= 1, no repeats) the result gains a leading axis, one entry per horizon
    in ascending order, so row i pairs with row i of ``expected_sum`` on the
    same grid; all are read off one set of paths to the largest horizon:
    trial t's S_n is the same at any grid it is part of.  Each observable is
    summed on its own, tile by tile of ``_SUM_TILE`` trials x ``_SUM_TILE``
    steps counted from step 1, so an observable's sums do not depend on the
    other observables it is passed with, nor on how trials are split into
    blocks, and a block holds its path table plus one tile (at most 1 MiB).
    """
    trials = _count(trials, "trials", 1)
    horizons = _Horizons(n, "horizons")
    n_max = int(horizons)
    obs = f if isinstance(f, ObservableSet) else ObservableSet((f,))
    _check_sizes(family, mu0, obs)
    vals = obs.value_matrix()
    out = np.empty((len(horizons), trials, len(vals)))
    for chunk in iter_seed_blocks(np.arange(trials), n_max):
        paths = sample_paths(chunk, mu0, family, n_max, base_seed)
        for r in range(0, len(chunk), _SUM_TILE):
            block = paths[r : r + _SUM_TILE]
            rows = slice(chunk[0] + r, chunk[0] + r + len(block))
            for l, values in enumerate(vals):
                total = np.zeros(len(block))  # sum over the tiles before ``start``
                for start in range(0, n_max + 1, _SUM_TILE):
                    tile = values[block[:, start + 1 : start + _SUM_TILE + 1]]  # f(X_k) per step
                    for i, h in enumerate(horizons):
                        if start <= h < start + _SUM_TILE:
                            out[i, rows, l] = total + tile[:, : h - start].sum(axis=1)
                    total += tile.sum(axis=1)
    if np.ndim(n) == 0:
        out = out[0]
    return out if isinstance(f, ObservableSet) else out[..., 0]


# ---------------------------------------------------------------------------
# normal-limit diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CltDiagnostic:
    ks_statistic: float
    variance_ratio: float
    num_samples: int


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a 1-d array, ``0.5·erfc(−z·√½)`` per element:
    accurate in both tails, where ``0.5 + 0.5·erf`` cancels in the left."""
    return 0.5 * np.fromiter(map(math.erfc, (z * -math.sqrt(0.5)).tolist()), float, z.size)


def clt_diagnostic(
    samples: np.ndarray, expected_value: float, theta_value: float, n: int
) -> CltDiagnostic:
    """Kolmogorov-Smirnov distance of the standardized sums to N(0, 1), plus
    the ratio of the sample variance of (S_n - E S_n)/sqrt(n) to theta.
    Samples that are not 1-D, non-finite samples or a non-finite expected
    value are refused."""
    n = _count(n, "horizon n", 1)
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1:
        raise KernelValidationError(f"samples must be 1-D, not shape {samples.shape}")
    if samples.size < CLT_MIN_SAMPLES:
        raise KernelValidationError(
            f"need at least {CLT_MIN_SAMPLES} samples for the normal diagnostic")
    theta_value = _theta(theta_value)
    if not (np.isfinite(samples).all() and math.isfinite(expected_value)):
        raise KernelValidationError("samples and the expected value must be finite")
    centered = samples - expected_value
    if centered.std() == 0.0:
        raise KernelValidationError("degenerate samples: zero variance")
    z = np.sort(centered / math.sqrt(n * theta_value))
    m = z.size
    cdf = _normal_cdf(z)
    upper = (np.arange(1, m + 1) / m - cdf).max()
    lower = (cdf - np.arange(0, m) / m).max()
    ratio = float(centered.var(ddof=1) / n / theta_value)
    return CltDiagnostic(float(max(upper, lower)), ratio, m)


# ---------------------------------------------------------------------------
# moderate-deviation diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MdpEstimate:
    """One scaled upper-tail estimate: P{(S_n - E S_n)/a(n) >= x}."""

    n: int
    x: float
    log_prob: float
    scaled: float
    method: str
    target: float
    std_error: float | None = None
    zero_hits: bool = False

    def __post_init__(self):
        if not (self.log_prob <= 0.0 and self.scaled <= 0.0):
            raise KernelValidationError("tail log-probabilities must be <= 0")


def mdp_diagnostic(
    family: KernelFamily,
    mu0: InitialDistribution,
    f: Observable,
    speed: SpeedFunction,
    x_grid,
    n_grid,
    theta_value: float,
    method: str = "exact_dp",
    trials: int = 10**5,
    base_seed: int = 0,
) -> list[MdpEstimate]:
    """Tail estimates over n_grid x x_grid with the scaled exponent and its
    target, the upper tail's limit ``-inf_{y >= x} y^2 / (2 theta)``: the
    quadratic rate for x > 0, 0 for x <= 0.  ``method`` is ``exact_dp`` or
    ``monte_carlo``.

    Monte Carlo tails with zero hits are reported as -inf with a flag.
    """
    if method not in ("exact_dp", "monte_carlo"):
        raise KernelValidationError(f"unknown method {method!r}")
    trials = _count(trials, "trials", 1)
    theta_value = _theta(theta_value)
    xs = np.asarray(x_grid, dtype=float)
    if xs.ndim != 1:
        raise KernelValidationError(
            f"x_grid must be a flat sequence of numbers, not shape {xs.shape}")
    if not np.isfinite(xs).all():
        raise KernelValidationError("x_grid entries must be finite")
    n_grid = _Horizons(n_grid, "n_grid")
    if method == "exact_dp":  # one DP sweep and one pass of the means serve every horizon
        dists = exact_sum_distribution(mu0, family, f, n_grid)
    else:  # one sampling pass and one pass of the means serve every horizon
        sampled = simulate_sums(mu0, family, f, n_grid, trials, base_seed)
        expected = expected_sum(mu0, family, f, n_grid)
    estimates = []
    for i, n in enumerate(n_grid):
        a = speed(n)
        if method == "exact_dp":
            dist = dists[i]
            probs = [(dist.tail_probability(dist.expected + x * a), None) for x in x_grid]
        else:
            samples = sampled[i]
            probs = []
            for x in x_grid:
                hits = int((samples - expected[i] >= x * a - 1e-9).sum())
                p = hits / trials
                se = math.sqrt(p * (1 - p) / trials)
                probs.append((p, se / p if hits else None))
        for x, (p, se_p) in zip(x_grid, probs):
            log_prob = math.log(p) if p > 0 else -math.inf
            estimates.append(
                MdpEstimate(
                    n=n,
                    x=float(x),
                    log_prob=log_prob,
                    scaled=speed.scale_log(n, log_prob) if p > 0 else -math.inf,
                    method=method,
                    target=-rate_1d(max(x, 0.0), theta_value),
                    std_error=se_p,
                    zero_hits=(p == 0.0 and method == "monte_carlo"),
                )
            )
    return estimates


# ---------------------------------------------------------------------------
# martingale-decomposition checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MartingaleResult:
    """Drift and predictable-variance profiles of the additive functional.

    With g the weighted observable, the centered sum splits pathwise into a
    martingale with increments ``D_k = g(X_k) - (P_k g)(X_{k-1})`` plus the
    drift ``sum_k [(P_k g)(X_{k-1}) - E g(X_k)]``.  ``drift_values`` holds the
    trial-averaged absolute drift scaled by 1/sqrt(n) (should vanish);
    ``variance_values`` holds the exact (1/n) sum of E[D_k^2] (should approach
    the asymptotic variance); ``max_pathwise_residual`` is the float error of
    the pathwise decomposition identity itself.
    """

    n_grid: np.ndarray
    drift_values: np.ndarray
    variance_values: np.ndarray
    theta_g: float
    max_pathwise_residual: float
    trials: int

    def __post_init__(self):
        object.__setattr__(self, "n_grid", _readonly(self.n_grid).astype(np.int64))
        object.__setattr__(self, "drift_values", _readonly(self.drift_values))
        object.__setattr__(self, "variance_values", _readonly(self.variance_values))


def _puller(family: KernelFamily, h: Observable):
    """(P_k, states) -> (P_k h)(states), the Monte Carlo pass's pull at the
    walked states: O(len(states)) on band steps, whose k-free terms are
    computed once here; a dense kernel pulls h to every state."""
    if family.structure is None:
        return lambda step, states: step.apply_to_function(h.values)[states]
    terms = family.structure.pull_terms(h.values)
    return lambda step, states: step.apply_at(h.values, states, *terms)


def martingale_check(
    family: KernelFamily,
    mu0: InitialDistribution,
    observables: ObservableSet,
    z,
    n_grid,
    trials: int,
    base_seed: int = 0,
    *,
    theta_value: float,
) -> MartingaleResult:
    """Exact variance and Monte Carlo drift profiles of g = sum z_l f_l, beside ``theta_value``.

    On lump band families the exact pass is one ``_band_series`` of three
    functionals (g, and the two that give E[D_k^2] from the law of X_{k-1}),
    with T terms fixed by the family and at most 2^-60 times each
    functional's max |F| dropped (see ``KernelFamily._series_terms``); on the
    others, and where that bound does not close, it is one propagation.
    """
    theta_value = _theta(theta_value)
    _check_sizes(family, mu0, observables)
    g = observables.combine(z)
    trials = _count(trials, "trials", 1)
    base_seed = _base_seed(base_seed)
    n_grid = _horizon_grid(n_grid, "n_grid")
    n_max = int(n_grid[-1])

    # exact pass: E g(X_k) and E[D_k^2] = E[(P_k g^2 - (P_k g)^2)(X_{k-1})]
    g2_values = g.values**2
    if family._series_terms is not None:
        # P_k h = b·h + s(k) pert∘dh, so with a = pert∘dg and a2 = pert∘d(g^2),
        # E[D_k^2] = b·g^2 - (b·g)^2 + s(k) E[a2 - 2 (b·g) a] - s(k)^2 E[a^2]
        # at X_{k-1}: three functionals of one series
        band = family.structure
        bg, dg = band.pull_terms(g.values)
        bg2, dg2 = band.pull_terms(g2_values)
        a, a2 = band.pert * dg, band.pert * dg2
        terms = _band_series(mu0, family, np.stack([g.values, a2 - 2.0 * bg * a, a * a]), n_max)
        scales = family.perturbation_scale(np.arange(1, n_max + 1))
        var_cum = np.cumsum(bg2 - bg * bg + scales * terms[:-1, 1]
                            - scales * scales * terms[:-1, 2])
        step_mean = terms[1:, 0]
    else:  # one propagation: P_k g from the step, the law of X_{k-1} and of X_k
        g_row = g.values[None, :]  # a (1, N) product: a 1-D dot moves the drift in its last bits
        step_mean = np.empty(n_max)
        var_cum = np.empty(n_max)
        total = 0.0
        law = mu0.probs
        for k, (step, probs) in enumerate(_propagation_steps(mu0, family, n_max)):
            pg = step.apply_to_function(g.values)
            pg2 = step.apply_to_function(g2_values)
            total += float(law @ (pg2 - pg**2))
            var_cum[k] = total
            step_mean[k] = (g_row @ probs)[0]
            law = probs
    variance_values = var_cum[n_grid - 1] / n_grid

    # Monte Carlo pass: pathwise drift and the decomposition residual, one step
    # of the walk at a time, so memory is O(N + trials)
    pull_g = _puller(family, g)
    grid_pos = {int(n): i for i, n in enumerate(n_grid)}
    drift_at = np.zeros((trials, len(n_grid)))
    residual = 0.0
    for chunk in iter_seed_blocks(np.arange(trials), n_max, paths=False):
        rows = slice(chunk[0], chunk[-1] + 1)
        drift = np.zeros(len(chunk))
        mart = np.zeros(len(chunk))
        lhs = np.zeros(len(chunk))
        walk = _walk(family, mu0, n_max, chunk, base_seed)
        prev = next(walk)[2]
        for k, step, state in walk:
            pg_prev = pull_g(step, prev)
            gk = g.values[state]
            drift += pg_prev - step_mean[k - 1]
            mart += gk - pg_prev
            lhs += gk - step_mean[k - 1]
            if k in grid_pos:
                drift_at[rows, grid_pos[k]] = np.abs(drift) / math.sqrt(k)
                residual = max(residual, float(np.abs(lhs - mart - drift).max()))
            prev = state
    return MartingaleResult(n_grid, drift_at.mean(axis=0), variance_values, theta_value,
                            residual, trials)
