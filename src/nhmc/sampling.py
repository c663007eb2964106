"""Seeded trajectory sampling for truncated kernel families.

Every trajectory consumes exactly one uniform per drawn state (one for X_0,
one per step), from its own PRNG stream seeded explicitly.  Sampling is
inverse-CDF per row with the convention ``X = min{j : C[j] >= U}``, so a
trajectory is a pure function of (family, initial distribution, seed) and is
identical no matter how trials are partitioned into blocks or workers.

A seed's stream is ``np.random.default_rng(seed).random``, drawn without
building one ``default_rng`` per trial: most of that set-up is SeedSequence's
hash of the seed, which ``_uniforms`` computes for a whole block at once in
uint32 arithmetic.  Each trial then costs only PCG64's two-step seeding in
Python ints, a state set and one ``random`` call.  A stream is
prefix-consistent: the first n+1 uniforms of a seed do not depend on how many
follow, so a path to horizon n_max holds the path to every shorter horizon.

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


# numpy's SeedSequence (pool of four uint32 words) and PCG64 seeding constants
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_HASH_A = (0x43B0D7E5, 0x931E8875)  # mix_entropy's hash: initial value, multiplier
_HASH_B = (0x8B51F9DD, 0x58F38DED)  # generate_state's hash: initial value, multiplier
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


def _uniforms(seeds: np.ndarray, count: int) -> np.ndarray:
    """(len(seeds), count) uniforms: row i is ``default_rng(seeds[i]).random(count)``."""
    seeds = np.asarray(seeds, dtype=np.int64)
    if (seeds < 0).any():
        raise KernelValidationError("trial seeds must lie in [0, 2**63)")
    out = np.empty((len(seeds), count))
    # one generator per call, never shared: blocks may run on threads
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    words = (w.tolist() for w in _seed_state_words(seeds))
    for row, (s_hi, s_lo, i_hi, i_lo) in enumerate(zip(*words)):
        # pcg64_set_seed: state = ((inc + seed) * mult + inc), inc = 2 * seq + 1
        inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
        state["state"] = {
            "state": ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128,
            "inc": inc,
        }
        bitgen.state = state
        gen.random(out=out[row])
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
    try:
        seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    except OverflowError:
        raise KernelValidationError("trial seeds must lie in [0, 2**63)") from None
    blocks = [
        _sample_block(family, mu0, n, chunk)
        for chunk in iter_seed_blocks(seeds, n)
    ]
    return np.concatenate(blocks, axis=0) if len(blocks) > 1 else blocks[0]


def iter_seed_blocks(seeds: np.ndarray, n: int):
    """Split seeds into blocks sized so a block's uniforms fit the buffer budget
    (one trial per block once a single trial's uniforms exceed it)."""
    per_trial = 8 * (n + 1)
    block = max(1, min(4096, _DEFAULT_BLOCK_BYTES // per_trial))
    for start in range(0, len(seeds), block):
        yield seeds[start : start + block]


def sample_trajectory(
    rng_seed: int, mu0: InitialDistribution, family: KernelFamily, n: int
) -> np.ndarray:
    """One path of 1-based state labels, length n+1, deterministic in the seed."""
    return sample_paths([rng_seed], mu0, family, n)[0] + 1
