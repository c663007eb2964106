"""Seeded trajectory sampling for truncated kernel families.

Every trajectory consumes exactly one uniform per drawn state (one for X_0,
one per step), from its own PRNG stream seeded explicitly.  Sampling is
inverse-CDF per row with the convention ``X = min{j : C[j] >= U}``, so a
trajectory is a pure function of (family, initial distribution, seed) and is
identical no matter how trials are partitioned into blocks or workers.

For the built-in lump-policy families the step-k row of state i differs from
the shared base row only by ``s(k) * pert[i]`` mass moved from column i to
column i+1, which changes the row CDF at the single index i.  Inverse-CDF
sampling therefore reduces to a base-CDF search plus a one-state promotion:
if the base draw lands on the current state i and the uniform exceeds
``C[i] - s(k) * pert[i]``, the sample is i+1.  This is exact and lets one
searchsorted serve a whole block of trials.
"""

from __future__ import annotations

import numpy as np

from .kernels import InitialDistribution, KernelFamily, KernelValidationError

__all__ = ["sample_trajectory", "sample_paths", "iter_seed_blocks", "trial_seeds"]

_DEFAULT_BLOCK_BYTES = 64 * 2**20  # uniforms buffer per block


def trial_seeds(base_seed: int, trials: int) -> np.ndarray:
    """Per-trial seeds: base_seed + trial index."""
    return np.asarray(base_seed, dtype=np.int64) + np.arange(trials, dtype=np.int64)


def _uniforms(seeds: np.ndarray, count: int) -> np.ndarray:
    """(len(seeds), count) uniforms, one independent stream per seed."""
    out = np.empty((len(seeds), count))
    for row, seed in enumerate(seeds):
        out[row] = np.random.default_rng(int(seed)).random(count)
    return out


def _initial_states(mu0: InitialDistribution, u0: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(mu0.probs)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, u0, side="left")


def _sample_block_structured(family, mu0, n: int, u: np.ndarray) -> np.ndarray:
    struct = family.structure
    paths = np.empty((u.shape[0], n + 1), dtype=np.int32)
    paths[:, 0] = _initial_states(mu0, u[:, 0])
    scales = family.perturbation_scale(np.arange(1, n + 1)) if n else np.zeros(0)
    scales = np.atleast_1d(scales)
    cdf = struct.base_cdf
    if not scales.any():
        # no perturbation at any step: every draw uses the shared base CDF
        if n:
            paths[:, 1:] = np.searchsorted(cdf, u[:, 1:], side="left")
        return paths
    state = paths[:, 0].astype(np.int64)
    for k in range(1, n + 1):
        uk = u[:, k]
        base = np.searchsorted(cdf, uk, side="left")
        # promotion: the perturbed CDF dips by s * pert[i] exactly at index i
        thresh = cdf[state] - scales[k - 1] * struct.pert[state]
        promote = (base == state) & (uk > thresh)
        state = np.where(promote, state + 1, base)
        paths[:, k] = state
    return paths


def _sample_block_general(family, mu0, n: int, u: np.ndarray) -> np.ndarray:
    paths = np.empty((u.shape[0], n + 1), dtype=np.int32)
    paths[:, 0] = _initial_states(mu0, u[:, 0])
    state = paths[:, 0].astype(np.int64)
    row_cdfs = None
    for k in range(1, n + 1):
        if row_cdfs is None or family.is_time_varying:
            kernel = family.kernel_at(k)
            if not kernel.is_stochastic:
                raise KernelValidationError(
                    "cannot sample a kernel with unresolved tail mass"
                )
            row_cdfs = np.cumsum(kernel.rows, axis=1)
            row_cdfs[:, -1] = 1.0  # a rounded-down end would let a uniform fall past state N
        rows = row_cdfs[state]
        # count of CDF entries strictly below U == min{j : C[j] >= U}
        state = (rows < u[:, k, None]).sum(axis=1)
        paths[:, k] = state
    return paths


def _sample_block(family, mu0, n: int, seeds: np.ndarray) -> np.ndarray:
    u = _uniforms(seeds, n + 1)
    if family.structure is not None:
        return _sample_block_structured(family, mu0, n, u)
    return _sample_block_general(family, mu0, n, u)


def sample_paths(
    seeds, mu0: InitialDistribution, family: KernelFamily, n: int
) -> np.ndarray:
    """Paths (len(seeds), n+1) of 0-based states; add 1 for state labels."""
    if n < 0:
        raise KernelValidationError(f"horizon must be >= 0, got {n}")
    if mu0.size != family.size:
        raise KernelValidationError("initial distribution size does not match family")
    if mu0.tail_mass > 0.0:
        raise KernelValidationError("initial distribution must resolve all mass onto 1..N")
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    blocks = [
        _sample_block(family, mu0, n, chunk)
        for chunk in iter_seed_blocks(seeds, n)
    ]
    return np.concatenate(blocks, axis=0) if len(blocks) > 1 else blocks[0]


def iter_seed_blocks(seeds: np.ndarray, n: int, block_bytes: int = _DEFAULT_BLOCK_BYTES):
    """Split seeds into blocks sized so a block's uniforms fit the buffer budget."""
    per_trial = 8 * (n + 1)
    block = max(16, min(4096, block_bytes // max(per_trial, 1)))
    for start in range(0, len(seeds), block):
        yield seeds[start : start + block]


def sample_trajectory(
    rng_seed: int, mu0: InitialDistribution, family: KernelFamily, n: int
) -> np.ndarray:
    """One path of 1-based state labels, length n+1, deterministic in the seed."""
    return sample_paths([rng_seed], mu0, family, n)[0] + 1
