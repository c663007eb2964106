"""Monte Carlo experiments and limit-law diagnostics.

Everything here is a pure function of (configuration, base_seed): trials use
per-trial PRNG streams (seed = base_seed + trial index), blocks are fixed, and
worker pools only change who computes a block, never its content, so parallel
and sequential runs produce identical output.

Centered quantities always use the exact propagation expectation, never a
sample mean; conditional expectations are read off the kernel rows, never
estimated.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .kernels import (
    InitialDistribution,
    KernelFamily,
    KernelValidationError,
    Observable,
    ObservableSet,
    _Horizons,
    _horizon_grid,
    _propagation_steps,
    _readonly,
    expected_step_values,
    expected_sum,
)
from .rates import ThetaPositivityError, rate_1d
from .sampling import (
    _require_resolved_start, _tile_width, _walk, iter_seed_blocks, sample_paths, trial_seeds,
)
from .sumdist import exact_sum_distribution

__all__ = [
    "SpeedFunction",
    "CltDiagnostic",
    "MdpEstimate",
    "MartingaleResult",
    "simulate_sums",
    "clt_diagnostic",
    "mdp_diagnostic",
    "empirical_functionals",
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


# steps per partial sum in simulate_sums: fixed, so no sum depends on block sizes
_SUM_TILE = 256


def _map_blocks(fn, blocks, workers: int) -> list:
    if workers <= 1:
        return [fn(b) for b in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, blocks))


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
    workers: int = 1,
) -> np.ndarray:
    """Independent samples of S_n (shape (trials,)) or of the per-observable
    sum vector (shape (trials, m)) when given an ObservableSet.

    With a sequence of horizons ``n`` the result gains a leading axis, one
    entry per horizon in the given order, all read off one set of paths to
    the largest horizon: trial t's S_n is the same at any grid it is part of.
    Each observable is summed on its own, tile by tile of ``_SUM_TILE`` steps
    counted from step 1, so an observable's sums do not depend on the other
    observables it is passed with, nor on how trials are split into blocks.
    """
    if trials < 1:
        raise KernelValidationError(f"trials must be >= 1, got {trials}")
    horizons = [int(h) for h in np.atleast_1d(n)]
    if not horizons or min(horizons) < 0:
        raise KernelValidationError(f"horizons must be >= 0, got {n}")
    n_max = max(horizons)
    obs = f if isinstance(f, ObservableSet) else ObservableSet((f,))
    vals = obs.value_matrix()
    seeds = trial_seeds(base_seed, trials)

    def one_block(seed_chunk):
        paths = sample_paths(seed_chunk, mu0, family, n_max)
        out = np.empty((len(horizons), len(seed_chunk), len(vals)))
        for l, values in enumerate(vals):
            total = np.zeros(len(seed_chunk))  # sum over the tiles before ``start``
            for start in range(0, n_max + 1, _SUM_TILE):
                tile = values[paths[:, start + 1 : start + _SUM_TILE + 1]]  # f(X_k) per step
                for i, h in enumerate(horizons):
                    if start <= h < start + _SUM_TILE:
                        out[i, :, l] = total + tile[:, : h - start].sum(axis=1)
                total += tile.sum(axis=1)
        return out

    parts = _map_blocks(one_block, list(iter_seed_blocks(seeds, n_max)), workers)
    out = np.concatenate(parts, axis=1)
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


def clt_diagnostic(
    samples: np.ndarray, expected_value: float, theta_value: float, n: int
) -> CltDiagnostic:
    """Kolmogorov-Smirnov distance of the standardized sums to N(0, 1), plus
    the ratio of the sample variance of (S_n - E S_n)/sqrt(n) to theta."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 1000:
        raise KernelValidationError("need at least 1000 samples for the normal diagnostic")
    if theta_value <= 0.0:
        raise ThetaPositivityError(
            f"asymptotic variance must be strictly positive, got {theta_value}"
        )
    centered = samples - expected_value
    if centered.std() == 0.0:
        raise KernelValidationError("degenerate samples: zero variance")
    z = np.sort(centered / math.sqrt(n * theta_value))
    m = z.size
    cdf = ndtr(z)
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
        if self.log_prob > 0.0 or self.scaled > 0.0:
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
    workers: int = 1,
) -> list[MdpEstimate]:
    """Tail estimates over n_grid x x_grid with the scaled exponent and its
    quadratic-rate target; ``method`` is ``exact_dp`` or ``monte_carlo``.

    Monte Carlo tails with zero hits are reported as -inf with a flag.
    """
    if method not in ("exact_dp", "monte_carlo"):
        raise KernelValidationError(f"unknown method {method!r}")
    if theta_value <= 0.0:
        raise ThetaPositivityError(
            f"asymptotic variance must be strictly positive, got {theta_value}"
        )
    n_grid = _Horizons(n_grid, "n_grid")
    if method == "exact_dp":  # one DP sweep and one propagation serve every horizon
        dists = exact_sum_distribution(mu0, family, f, n_grid)
    else:  # one sampling pass and one propagation serve every horizon
        sampled = simulate_sums(mu0, family, f, n_grid, trials, base_seed, workers)
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
                    target=-rate_1d(x, theta_value),
                    std_error=se_p,
                    zero_hits=(p == 0.0 and method == "monte_carlo"),
                )
            )
    return estimates


# ---------------------------------------------------------------------------
# empirical-measure functionals
# ---------------------------------------------------------------------------

def empirical_functionals(
    family: KernelFamily,
    mu0: InitialDistribution,
    observables: ObservableSet,
    speed: SpeedFunction,
    n: int,
    trials: int,
    base_seed: int,
    workers: int = 1,
) -> np.ndarray:
    """Per-trial vectors (sum_k f_l(X_k) - E sum_k f_l(X_k)) / a(n), shape (trials, m).

    These are the finite-dimensional projections of the centered, speed-scaled
    occupation measure onto the observable family.
    """
    sums = simulate_sums(mu0, family, observables, n, trials, base_seed, workers)
    expected = expected_step_values(mu0, family, observables, n).sum(axis=0)
    return (sums - expected) / speed(n)


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
        return lambda step, states: step.apply_to_function(h.values, h.tail_value)[states]
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
    workers: int = 1,
    theta_value: float | None = None,
) -> MartingaleResult:
    """Exact variance profile plus Monte Carlo drift profile for g = sum z_l f_l."""
    _require_resolved_start(mu0)  # the Monte Carlo pass needs it; fail before the exact one
    g = observables.combine(z)
    n_grid = _horizon_grid(n_grid, "n_grid")
    n_max = int(n_grid[-1])
    if theta_value is None:
        from .ergodicity import stationary
        from .rates import asymptotic_variance

        theta_value = asymptotic_variance(stationary(family.limit), family.limit, g)

    # exact pass, one propagation: P_k g, E[D_k^2] from the law of X_{k-1}, E g(X_k)
    g2_values, g2_tail = g.values**2, g.tail_value**2
    g_row = g.values[None, :]  # the (1, N) product expected_step_values uses, bit for bit
    step_mean = np.empty(n_max)
    var_cum = np.empty(n_max)
    total = 0.0
    law = mu0.probs
    for k, (step, probs, tail) in enumerate(_propagation_steps(mu0, family, n_max)):
        pg = step.apply_to_function(g.values, g.tail_value)
        pg2 = step.apply_to_function(g2_values, g2_tail)
        total += float(law @ (pg2 - pg**2))  # tail states are absorbing: zero spread
        var_cum[k] = total
        step_mean[k] = (g_row @ probs)[0] + tail * g.tail_value
        law = probs
    variance_values = var_cum[n_grid - 1] / n_grid

    # Monte Carlo pass: pathwise drift and the decomposition residual, one step
    # of the walk at a time, so memory beyond the block's uniforms tile is
    # O(N + trials)
    pull_g = _puller(family, g)
    seeds = trial_seeds(base_seed, trials)
    grid_pos = {int(n): i for i, n in enumerate(n_grid)}

    def one_block(seed_chunk):
        b = len(seed_chunk)
        drift = np.zeros(b)
        mart = np.zeros(b)
        lhs = np.zeros(b)
        drift_at = np.zeros((b, len(n_grid)))
        resid = 0.0
        walk = _walk(family, mu0, n_max, seed_chunk, _tile_width(b, n_max + 1, 0))
        prev = next(walk)[2]
        for k, step, state in walk:
            pg_prev = pull_g(step, prev)
            gk = g.values[state]
            drift += pg_prev - step_mean[k - 1]
            mart += gk - pg_prev
            lhs += gk - step_mean[k - 1]
            if k in grid_pos:
                drift_at[:, grid_pos[k]] = np.abs(drift) / math.sqrt(k)
                resid = max(resid, float(np.abs(lhs - mart - drift).max()))
            prev = state
        return drift_at, resid

    parts = _map_blocks(one_block, list(iter_seed_blocks(seeds, n_max, paths=False)), workers)
    drift_values = np.concatenate([p[0] for p in parts], axis=0).mean(axis=0)
    residual = max(p[1] for p in parts)
    return MartingaleResult(
        n_grid, drift_values, variance_values, float(theta_value), residual, trials
    )
