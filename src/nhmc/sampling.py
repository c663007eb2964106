"""Seeded trajectory sampling for truncated kernel families.

Every trajectory consumes exactly one uniform per drawn state (one for X_0,
one per step), from its own PRNG stream seeded explicitly.  Sampling is
inverse-CDF per row with the convention ``X = min{j : C[j] >= U}``, so a
trajectory is a pure function of (family, initial distribution, seed) and is
identical no matter how trials are partitioned into blocks or workers.

Each step is drawn by the step operator of ``KernelFamily.steps``: its
``draw`` maps the current states and one uniform each to the next states.
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


def _walk(family: KernelFamily, mu0: InitialDistribution, n: int, u: np.ndarray):
    """Yield (P_k, X_{k-1}, X_k) for k = 1..n, X_0 drawn with ``u[:, 0]`` and
    X_k by ``P_k.draw`` with ``u[:, k]``, one row of uniforms per trial."""
    state = _initial_states(mu0, u[:, 0])
    for k, step in enumerate(family.steps(n), start=1):
        prev, state = state, step.draw(state, u[:, k])
        yield step, prev, state


def _sample_block(family, mu0, n: int, seeds: np.ndarray) -> np.ndarray:
    u = _uniforms(seeds, n + 1)
    paths = np.empty(u.shape, dtype=np.int32)
    paths[:, 0] = _initial_states(mu0, u[:, 0])
    if family.kind == "constant" and family.structure is not None:
        # i.i.d. draws from one row: a single search over the whole tile
        paths[:, 1:] = np.searchsorted(family.structure.base_cdf, u[:, 1:], side="left")
    else:
        for k, (_, _, state) in enumerate(_walk(family, mu0, n, u), start=1):
            paths[:, k] = state
    return paths


def _require_resolved_start(mu0: InitialDistribution) -> None:
    """Paths start on a state: reject a start law with tail mass."""
    if mu0.tail_mass > 0.0:
        raise KernelValidationError("initial distribution must resolve all mass onto 1..N")


def sample_paths(
    seeds, mu0: InitialDistribution, family: KernelFamily, n: int
) -> np.ndarray:
    """Paths (len(seeds), n+1) of 0-based states; add 1 for state labels."""
    if n < 0:
        raise KernelValidationError(f"horizon must be >= 0, got {n}")
    if mu0.size != family.size:
        raise KernelValidationError("initial distribution size does not match family")
    _require_resolved_start(mu0)
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    blocks = [
        _sample_block(family, mu0, n, chunk)
        for chunk in iter_seed_blocks(seeds, n)
    ]
    return np.concatenate(blocks, axis=0) if len(blocks) > 1 else blocks[0]


def iter_seed_blocks(seeds: np.ndarray, n: int):
    """Split seeds into blocks sized so a block's uniforms fit the buffer budget."""
    per_trial = 8 * (n + 1)
    block = max(16, min(4096, _DEFAULT_BLOCK_BYTES // max(per_trial, 1)))
    for start in range(0, len(seeds), block):
        yield seeds[start : start + block]


def sample_trajectory(
    rng_seed: int, mu0: InitialDistribution, family: KernelFamily, n: int
) -> np.ndarray:
    """One path of 1-based state labels, length n+1, deterministic in the seed."""
    return sample_paths([rng_seed], mu0, family, n)[0] + 1
