"""Seeded trajectory sampling for truncated kernel families.

Every trajectory consumes exactly one uniform per drawn state (one for X_0,
one per step), from its own PRNG stream seeded explicitly.  Sampling is
inverse-CDF per row with the convention ``X = min{j : C[j] >= U}``, so a
trajectory is a pure function of (family, initial distribution, seed) and is
identical no matter how trials are partitioned into blocks, tiles or workers.

A seed's stream is ``np.random.default_rng(seed).random``, drawn without
building one ``default_rng`` per trial: most of that set-up is SeedSequence's
hash of the seed, which ``_seed_state_words`` computes for a whole block at
once in uint32 arithmetic.  Each trial's ``PCG64`` is then seeded from its
four words (``_StateWords``), and numpy's generator carries the stream.  A
stream is prefix-consistent: the first n+1 uniforms of a seed do not depend
on how many follow, so a path to horizon n_max holds the path to every
shorter horizon.

Memory.  The uniforms are drawn in time tiles: ``_uniform_tiles`` fills a
(trials, width) tile from each trial's generator, which stays where the tile
left it, so the tiles concatenate to the whole stream.  A path table holds
each state in the smallest signed integer type that holds every label 1..N
(``_path_dtype``: int8, int16 or int32).  A block holds at most
``_MAX_BLOCK`` (4096) trials, and its path table plus its float64 uniforms
tile fit ``_BLOCK_BYTES`` (64 MiB): ``sample_paths`` sizes its blocks by a
path table of 4 bytes a state, an upper bound for every type (a tile of at
least ``_MIN_TILE`` columns must fit beside it), and the tile takes what
the actual table leaves, up to ``_TILE_BYTES`` (4 MiB; a tile costs one
``random`` call per trial).  The tile's buffer is rounded up to a power of
two floats, so the passes of one process reuse one freed block for their
tiles; glibc keeps up to twice the largest block it has mapped and freed,
so a smaller cap also bounds what it keeps between passes.  A walk that
stores no path, as the martingale pass, holds 4096 trials at any horizon
and only a tile of uniforms.

Each step is drawn by the step operator of ``KernelFamily.steps``: its
``draw`` maps the current states and one uniform each to the next states.
A band step's draw is its base-CDF index B plus the promotion test
``B == state and u > C[B] - s pert[B]``, and only ``B == state`` reads the
state.  So the walk copies ``_SEARCH_SPAN`` columns of a tile step-major
into a reused buffer, searches them through the band's guide table (an
exact bucket lookup with a search only in the buckets that hold a CDF entry;
``_RankOneBand.search``) and tests their promotions into a second one, a
span at once: a step is left a compare and an add.
"""

from __future__ import annotations

import numpy as np

from .kernels import InitialDistribution, KernelFamily, KernelValidationError, _config_int

__all__ = ["sample_paths", "iter_seed_blocks", "trial_seeds"]

_BLOCK_BYTES = 64 * 2**20  # a block's path table plus its uniforms tile
_TILE_BYTES = 4 * 2**20  # a uniforms tile, at the most
_MAX_BLOCK = 4096  # trials per block
_MIN_TILE = 64  # uniforms per trial in a tile, at the least
_SEARCH_SPAN = 8  # tile columns per bulk base-CDF search


def trial_seeds(base_seed: int, trials: int) -> np.ndarray:
    """Per-trial seeds: base_seed + trial index."""
    return np.asarray(base_seed, dtype=np.int64) + np.arange(trials, dtype=np.int64)


# numpy's SeedSequence constants (pool of four uint32 words)
_MASK32 = 0xFFFFFFFF
_HASH_A = (0x43B0D7E5, 0x931E8875)  # mix_entropy's hash: initial value, multiplier
_HASH_B = (0x8B51F9DD, 0x58F38DED)  # generate_state's hash: initial value, multiplier
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, count: int) -> list:
    """The running hash constant before each of ``count`` hash calls and after
    the last one; it never depends on the data, so it is tabulated once."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return [np.uint32(c) for c in out]


_MIX_CONSTS = _hash_constants(*_HASH_A, 16)  # 4 pool fills + 12 cross mixes
_STATE_CONSTS = _hash_constants(*_HASH_B, 8)  # 8 uint32 words = 4 uint64


def _seed_state_words(seeds: np.ndarray) -> list:
    """SeedSequence(seed).generate_state(4, uint64) for every seed at once, as
    four uint64 arrays.  A seed below 2**64 is the entropy words (lo, hi) and
    mixes like (lo, hi, 0, 0)."""
    s = seeds.astype(np.uint64)
    entropy = [(s & np.uint64(_MASK32)).astype(np.uint32), (s >> np.uint64(32)).astype(np.uint32)]
    entropy += [np.zeros(len(s), dtype=np.uint32)] * 2
    calls = iter(range(len(_MIX_CONSTS) - 1))

    def hashmix(value):
        i = next(calls)
        value = (value ^ _MIX_CONSTS[i]) * _MIX_CONSTS[i + 1]
        return value ^ (value >> np.uint32(16))

    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    words = []
    for i in range(8):
        value = (pool[i % 4] ^ _STATE_CONSTS[i]) * _STATE_CONSTS[i + 1]
        words.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return [words[2 * j] | (words[2 * j + 1] << np.uint64(32)) for j in range(4)]


class _StateWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands ``PCG64`` the four uint64 words
    ``SeedSequence(seed).generate_state(4, uint64)`` would, precomputed by
    ``_seed_state_words``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _uniform_tiles(seeds: np.ndarray, count: int, width: int):
    """Yield the (len(seeds), count) uniforms whose row i is
    ``default_rng(seeds[i]).random(count)``, ``width`` columns at a time (the
    last tile may be narrower).  Each trial's generator draws its row of one
    tile after another, so the tiles concatenate to the whole stream.  The
    tiles share one buffer: a tile is valid until the next is drawn."""
    seeds = np.asarray(seeds, dtype=np.int64)
    if (seeds < 0).any():
        raise KernelValidationError("trial seeds must lie in [0, 2**63)")
    # one generator per trial and call, never shared: blocks may run on threads
    gens = [np.random.Generator(np.random.PCG64(_StateWords(words)))
            for words in np.stack(_seed_state_words(seeds), axis=1)]
    width = min(width, count)
    # a buffer of a power of two floats, used only as far as the tile needs:
    # passes whose tiles differ a little then ask for the same size, and one
    # reuses the block another freed where a larger one would take fresh memory
    size = len(seeds) * width
    buf = np.empty(1 << (size - 1).bit_length())[:size].reshape(len(seeds), width)
    for start in range(0, count, width):
        tile = buf[:, : min(width, count - start)]
        for gen, row in zip(gens, tile):
            gen.random(out=row)
        if start + width >= count:  # the last tile: no generator is needed while it is walked
            gens = ()
        yield tile


def _tile_width(trials: int, count: int, path_bytes: int) -> int:
    """Uniforms per trial in one tile of a block of ``trials`` trials drawing
    ``count`` each: what the budget leaves after the block's path table
    (``path_bytes`` per state, 0 for a walk that stores no path), up to
    ``_TILE_BYTES`` and at least ``_MIN_TILE`` (or all of them)."""
    spare = min(_TILE_BYTES, _BLOCK_BYTES - trials * count * path_bytes)
    return min(count, max(_MIN_TILE, spare // (8 * trials)))


def _initial_states(mu0: InitialDistribution, u0: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(mu0.probs)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, u0, side="left")


def _spans(family: KernelFamily, seeds: np.ndarray, count: int, width: int):
    """Yield (start, u, base) for the uniforms of tiles of ``width`` columns,
    split into spans of ``_SEARCH_SPAN``: ``u`` is the span from column
    ``start`` on, copied step-major (row j is step start + j) into a buffer
    reused by the next span, and ``base`` its base-CDF indices
    ``family.structure.search(u)`` (None for a family without the structure)."""
    band = family.structure
    buf = np.empty((_SEARCH_SPAN, len(seeds)))
    start = 0
    for tile in _uniform_tiles(seeds, count, width):
        for j in range(0, tile.shape[1], _SEARCH_SPAN):
            u = buf[: min(_SEARCH_SPAN, tile.shape[1] - j)]
            np.copyto(u, tile[:, j : j + len(u)].T)
            yield start, u, None if band is None else band.search(u)
            start += len(u)


def _walk(family: KernelFamily, mu0: InitialDistribution, n: int, seeds: np.ndarray,
          width: int):
    """Yield (k, P_k, X_k) for k = 0..n (``P_0`` is None): X_0 drawn with
    uniform 0 of each trial's stream and X_k by ``P_k.draw`` with uniform k,
    the uniforms drawn in tiles of ``width`` per trial.  A band step gets the
    base search and promotion test made for its whole span, at s(k) per step."""
    steps = family.steps(n)
    band = family.structure
    if band is not None:  # s(k) at index k, the values ``steps`` holds
        scales = np.concatenate(([0.0], family.perturbation_scale(np.arange(1, n + 1))))
        promote = np.empty((_SEARCH_SPAN, len(seeds)), dtype=bool)
    for start, u, base in _spans(family, seeds, n + 1, width):
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


def _sample_block(family, mu0, n: int, seeds: np.ndarray) -> np.ndarray:
    paths = np.empty((len(seeds), n + 1), dtype=_path_dtype(family.size))
    width = _tile_width(len(seeds), n + 1, paths.itemsize)
    if family.kind == "constant" and family.structure is not None:
        # i.i.d. draws from one row: the base-CDF search is the draw
        for start, u, base in _spans(family, seeds, n + 1, width):
            paths[:, start : start + len(u)] = base.T
            if start == 0:
                paths[:, 0] = _initial_states(mu0, u[0])
    else:
        # states gather step-major, one span at a time, and go to the path
        # table a span at a time: a column at a time strides the whole table
        span = np.empty((_SEARCH_SPAN, len(seeds)), dtype=paths.dtype)
        for k, _, state in _walk(family, mu0, n, seeds, width):
            j = k % _SEARCH_SPAN
            span[j] = state
            if j == _SEARCH_SPAN - 1 or k == n:
                paths[:, k - j : k + 1] = span[: j + 1].T
    return paths


def sample_paths(
    seeds, mu0: InitialDistribution, family: KernelFamily, n: int
) -> np.ndarray:
    """Paths (len(seeds), n+1) of 0-based states; add 1 for state labels.

    ``seeds`` is one seed or a non-empty 1-d sequence of them.  The table's
    dtype is the smallest signed integer type that holds every label 1..N:
    int8 for N <= 127, int16 for N <= 32767 and int32 otherwise.  A state
    plus 1 always fits, but other arithmetic on the table wraps in its
    dtype: widen it first (``paths.astype(np.int64)``).
    """
    n = _config_int(n, "horizon")
    if n < 0:
        raise KernelValidationError(f"horizon must be >= 0, got {n}")
    if mu0.size != family.size:
        raise KernelValidationError("initial distribution size does not match family")
    try:
        seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    except OverflowError:
        raise KernelValidationError("trial seeds must lie in [0, 2**63)") from None
    if seeds.ndim != 1 or seeds.size == 0:
        raise KernelValidationError(
            f"trial seeds must be a non-empty 1-d sequence, got shape {seeds.shape}")
    blocks = [
        _sample_block(family, mu0, n, chunk)
        for chunk in iter_seed_blocks(seeds, n)
    ]
    return np.concatenate(blocks, axis=0) if len(blocks) > 1 else blocks[0]


def iter_seed_blocks(seeds: np.ndarray, n: int, paths: bool = True):
    """Split seeds into blocks of at most ``_MAX_BLOCK`` trials, sized so a
    block's path table to horizon n (when it keeps ``paths``), budgeted at 4
    bytes a state whatever its dtype, plus a uniforms tile of ``_MIN_TILE``
    columns fit the budget (one trial per block once a single trial's path
    table exceeds it)."""
    per_trial = 4 * (n + 1) * paths + 8 * min(n + 1, _MIN_TILE)
    block = max(1, min(_MAX_BLOCK, _BLOCK_BYTES // per_trial))
    for start in range(0, len(seeds), block):
        yield seeds[start : start + block]
