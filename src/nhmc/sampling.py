"""Seeded trajectory sampling for truncated kernel families.

Trials come in lane groups of ``_LANES`` (256): trial t of base seed b is
lane ``t % 256`` of group ``g = t // 256``, and the group draws from one
generator, ``Generator(PCG64DXSM(SeedSequence(b, spawn_key=(g,))))``.  Its
outputs ``256k .. 256k+255`` are step k's uniforms: lane j takes output
``256k + j``, and X_0 uses step 0.  Every trajectory consumes exactly one
uniform per drawn state, and sampling is inverse-CDF per row with the
convention ``X = min{j : C[j] >= U}``, so a trajectory is a pure function of
(family, initial distribution, base seed, trial) and is identical however
trials are partitioned into blocks or workers.  SeedSequence keys each group
by (b, g), so no two (base seed, trial) pairs share a stream.  A stream is
prefix-consistent: the first n+1 steps of a group do not depend on how many
follow, so a path to horizon n_max holds the path to every shorter horizon.
``RNG_VERSION`` names this stream, and numpy's version, which implements it.

Memory.  A path table holds each state in the smallest signed integer type
that holds every label 1..N (``_path_dtype``: int8, int16 or int32).  A block
holds at most ``_MAX_BLOCK`` (4096) trials, and its path table fits
``_BLOCK_BYTES`` (64 MiB): ``sample_paths`` sizes its blocks by a path table
of 4 bytes a state, an upper bound for every type.  A block is a whole
number of groups, or, where fewer than 256 trials fit, a power of two that
divides one; a group split across blocks is drawn in each.  A walk that
stores no path, as the martingale pass, holds 4096 trials at any horizon.
The uniforms take one span at a time: ``_spans`` draws ``_SEARCH_SPAN``
steps of every group, one ``random`` call per group, and gathers them
step-major (row j is step start + j) with one ``np.take``.

Each step is drawn by the step operator of ``KernelFamily.steps``: its
``draw`` maps the current states and one uniform each to the next states.
A band step's draw is its base-CDF index B plus the promotion test
``B == state and u > C[B] - s pert[B]``, and only ``B == state`` reads the
state.  So the walk searches each span through the band's guide table (an
exact bucket lookup with a search only in the buckets that hold a CDF entry;
``_RankOneBand.search``) and tests its promotions into a second buffer, a
span at once: a step is left a compare and an add.
"""

from __future__ import annotations

import numpy as np

from .kernels import (InitialDistribution, KernelFamily, KernelValidationError, _check_sizes,
                      _count)

__all__ = ["sample_paths", "iter_seed_blocks", "RNG_VERSION"]

# the stream every Monte Carlo output draws from, recorded in each manifest
RNG_VERSION = {"rng_version": 2, "numpy_version": np.__version__}

_BLOCK_BYTES = 64 * 2**20  # a block's path table
_MAX_BLOCK = 4096  # trials per block
_LANES = 256  # trials per generator
_SEARCH_SPAN = 8  # steps per bulk draw and base-CDF search


def _base_seed(base_seed) -> int:
    """``base_seed`` as an int in [0, 2**63): a fraction or a bool is refused."""
    return _count(base_seed, "base_seed", 0, 2**63 - 1)


def _initial_states(mu0: InitialDistribution, u0: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(mu0.probs)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, u0, side="left")


def _spans(family: KernelFamily, trials: np.ndarray, count: int, base_seed: int):
    """Yield (start, u, base) for steps 0..count-1, ``_SEARCH_SPAN`` at a
    time: ``u`` is the (steps, trials) uniforms of the steps from ``start``
    on, step-major, in a buffer reused by the next span, and ``base`` its
    base-CDF indices ``family.structure.search(u)`` (None for a family
    without the structure)."""
    groups, group_of = np.unique(trials // _LANES, return_inverse=True)
    # one generator per group and call, never shared: blocks may run on threads
    gens = [np.random.Generator(np.random.PCG64DXSM(
        np.random.SeedSequence(base_seed, spawn_key=(int(g),)))) for g in groups]
    raw = np.empty((len(groups), _SEARCH_SPAN * _LANES))  # row i: group i's outputs of a span
    # flat index in ``raw`` of each step's uniform for each trial
    index = (group_of * raw.shape[1] + trials % _LANES
             + np.arange(0, raw.shape[1], _LANES)[:, None])
    buf = np.empty((_SEARCH_SPAN, len(trials)))
    band = family.structure
    for start in range(0, count, _SEARCH_SPAN):
        steps = min(_SEARCH_SPAN, count - start)
        for gen, row in zip(gens, raw):
            gen.random(out=row[: steps * _LANES])
        u = np.take(raw, index[:steps], out=buf[:steps])
        yield start, u, None if band is None else band.search(u)


def _walk(family: KernelFamily, mu0: InitialDistribution, n: int, trials: np.ndarray,
          base_seed: int):
    """Yield (k, P_k, X_k) for k = 0..n (``P_0`` is None): X_0 drawn with
    each trial's step-0 uniform and X_k by ``P_k.draw`` with its step-k one.
    A band step gets the base search and promotion test made for its whole
    span, at s(k) per step."""
    steps = family.steps(n)
    band = family.structure
    if band is not None:  # s(k) at index k, the values ``steps`` holds
        scales = np.concatenate(([0.0], family.perturbation_scale(np.arange(1, n + 1))))
        promote = np.empty((_SEARCH_SPAN, len(trials)), dtype=bool)
    for start, u, base in _spans(family, trials, n + 1, base_seed):
        hints = [()] * len(u) if band is None else zip(base, band.promotions(
            base, u, scales[start : start + len(u), None], out=promote[: len(u)]))
        for k, col, hint in zip(range(start, start + len(u)), u, hints):
            if k == 0:
                step, state = None, _initial_states(mu0, col)
            else:
                step = next(steps)
                state = step.draw(state, col, *hint)
            yield k, step, state


def _path_dtype(size: int) -> np.dtype:
    """The smallest signed integer type that holds every label 1..size."""
    for dtype in (np.int8, np.int16):
        if size <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int32)


def _sample_block(family, mu0, n: int, trials: np.ndarray, base_seed: int) -> np.ndarray:
    paths = np.empty((len(trials), n + 1), dtype=_path_dtype(family.size))
    if family.structure is not None and not family.structure.pert.any():
        # a band that moves no mass: i.i.d. draws from one row, the base-CDF search is the draw
        for start, u, base in _spans(family, trials, n + 1, base_seed):
            paths[:, start : start + len(u)] = base.T
            if start == 0:
                paths[:, 0] = _initial_states(mu0, u[0])
    else:
        # states gather step-major, one span at a time, and go to the path
        # table a span at a time: a column at a time strides the whole table
        span = np.empty((_SEARCH_SPAN, len(trials)), dtype=paths.dtype)
        for k, _, state in _walk(family, mu0, n, trials, base_seed):
            j = k % _SEARCH_SPAN
            span[j] = state
            if j == _SEARCH_SPAN - 1 or k == n:
                paths[:, k - j : k + 1] = span[: j + 1].T
    return paths


def sample_paths(
    trials, mu0: InitialDistribution, family: KernelFamily, n: int, base_seed: int = 0
) -> np.ndarray:
    """Paths (len(trials), n+1) of 0-based states; add 1 for state labels.

    ``trials`` is one trial index or a non-empty 1-d sequence of them, and
    row i is trial ``trials[i]`` of ``base_seed``.  The table's dtype is the
    smallest signed integer type that holds every label 1..N: int8 for
    N <= 127, int16 for N <= 32767 and int32 otherwise.  A state plus 1
    always fits, but other arithmetic on the table wraps in its dtype: widen
    it first (``paths.astype(np.int64)``).
    """
    n = _count(n, "horizon", 0)
    _check_sizes(family, mu0)
    base_seed = _base_seed(base_seed)
    try:
        trials = np.atleast_1d(np.asarray(trials, dtype=np.int64))
    except OverflowError:
        raise KernelValidationError("trial indices must lie in [0, 2**63)") from None
    if trials.ndim != 1 or trials.size == 0:
        raise KernelValidationError(
            f"trial indices must be a non-empty 1-d sequence, got shape {trials.shape}")
    if (trials < 0).any():
        raise KernelValidationError("trial indices must lie in [0, 2**63)")
    blocks = [
        _sample_block(family, mu0, n, chunk, base_seed)
        for chunk in iter_seed_blocks(trials, n)
    ]
    return np.concatenate(blocks, axis=0) if len(blocks) > 1 else blocks[0]


def iter_seed_blocks(trials: np.ndarray, n: int, paths: bool = True):
    """Split trial indices into blocks of at most ``_MAX_BLOCK``, sized so a
    block's path table to horizon n (when it keeps ``paths``), budgeted at 4
    bytes a state whatever its dtype, fits the budget.  A block of 256 trials
    or more is a whole number of groups, a smaller one a power of two (one
    trial per block once a single trial's path table exceeds the budget), so
    blocks of consecutive trials from 0 never straddle a group."""
    block = min(_MAX_BLOCK, _BLOCK_BYTES // (4 * (n + 1)) if paths else _MAX_BLOCK)
    block = block - block % _LANES if block >= _LANES else 1 << max(0, block.bit_length() - 1)
    for start in range(0, len(trials), block):
        yield trials[start : start + block]
