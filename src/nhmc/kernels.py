"""Truncated stochastic kernels and time-varying kernel families.

The state space is {1..N} (stored 0-based internally), obtained by truncating
a countable chain.  Mass that the untruncated kernel would place beyond state
N is handled by one of two tail policies:

* ``lump``: the residual row mass is folded into column N (keeps rows exactly
  stochastic and preserves the one-step band structure of the built-in
  families for every row below N);
* ``renormalize``: each truncated row is divided by its retained mass.

Under either policy every step kernel of a built-in family is a shared base
row plus ``s(k)`` times a bidiagonal band, with one replaced last row under
``renormalize``, so ``KernelFamily.steps`` applies it in O(N) per step.

Two parametric families are built in, both with identical power-law base rows
and a time-decaying perturbation that moves mass from the diagonal to the
superdiagonal:

* ``zeta2``: base row entries 6/(pi^2 j^2), perturbation scale k^(-alpha);
* ``zeta4``: base row entries 90/(pi^4 j^4), perturbation scale
  (log k)^beta * k^(-alpha).

Both require alpha > 1/2 (zeta4 additionally beta > 0 and s(k) <= 1 at every
integer k), which keeps every entry nonnegative for all k >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

ROW_TOL = 1e-12
MASS_TOL = 1e-10
INTEGER_TOL = 1e-9  # how far an observable value may sit from an integer for the exact DP

__all__ = [
    "ROW_TOL",
    "MASS_TOL",
    "TailPolicy",
    "KernelValidationError",
    "TruncatedKernel",
    "InitialDistribution",
    "DistributionVector",
    "Observable",
    "ObservableSet",
    "KernelFamily",
    "make_kernel",
    "make_limit_kernel",
    "zeta2_family",
    "zeta4_family",
    "constant_family",
    "table_family",
    "family_from_config",
    "family_to_config",
    "kernel_product",
    "propagate",
    "expected_sum",
    "indicator_observable",
    "capped_identity_observable",
    "point_mass",
    "uniform_initial",
]


class KernelValidationError(ValueError):
    """A kernel, distribution, or family parameter violates its invariants."""


class TailPolicy(str, Enum):
    LUMP = "lump"
    RENORMALIZE = "renormalize"


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

def _horizon_grid(values, name: str) -> np.ndarray:
    """The sorted int64 horizons; rejects an empty grid, repeats and entries below 1."""
    grid = np.asarray(sorted(int(v) for v in np.atleast_1d(values)), dtype=np.int64)
    if grid.size == 0 or np.any(np.diff(grid) == 0):
        raise KernelValidationError(f"{name} must be nonempty, without repeats")
    if grid[0] < 1:
        raise KernelValidationError(f"{name} entries must be >= 1")
    return grid


class _Horizons(tuple):
    """The ints of ``_horizon_grid(values, name)``, for a one-pass function
    to serve with one pass to the last horizon.  ``int()`` of it is that last
    horizon, the steps the pass walks, so a wrapper that reads a horizon
    argument as a step count (perfbench's tracer) counts the one pass."""

    def __new__(cls, values, name: str):
        return super().__new__(cls, _horizon_grid(values, name).tolist())

    def __int__(self) -> int:
        return self[-1]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class TruncatedKernel:
    """One time-step stochastic matrix on {1..N} with explicit tail mass.

    ``rows[i, j]`` is the probability of moving from state i+1 to state j+1;
    ``tail_mass[i]`` is the probability of leaving the retained states from
    state i+1.  Each row plus its tail mass must sum to one within 1e-12;
    entries may undershoot/overshoot [0, 1] by at most 1e-12 and are clamped.
    """

    rows: np.ndarray
    tail_mass: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
            raise KernelValidationError(f"rows must be square, got {rows.shape}")
        n = rows.shape[0]
        if n < 2:
            raise KernelValidationError(f"need at least 2 states, got {n}")
        tail = np.asarray(self.tail_mass, dtype=float)
        if tail.shape != (n,):
            raise KernelValidationError(f"tail_mass must have shape ({n},)")
        if not (np.isfinite(rows).all() and np.isfinite(tail).all()):
            raise KernelValidationError("kernel entries must be finite")
        if rows.min() < -ROW_TOL or rows.max() > 1.0 + ROW_TOL:
            raise KernelValidationError(
                f"entries outside [0,1] beyond tolerance: min={rows.min()}, max={rows.max()}"
            )
        if tail.min() < -ROW_TOL:
            raise KernelValidationError(f"negative tail mass: {tail.min()}")
        err = np.abs(rows.sum(axis=1) + tail - 1.0).max()
        if err > ROW_TOL:
            raise KernelValidationError(f"row mass deviates from 1 by {err}")
        object.__setattr__(self, "rows", _readonly(np.clip(rows, 0.0, 1.0)))
        object.__setattr__(self, "tail_mass", _readonly(np.clip(tail, 0.0, 1.0)))

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    @property
    def is_stochastic(self) -> bool:
        """True when no mass escapes the retained states."""
        return bool(self.tail_mass.max() == 0.0)

    def has_identical_rows(self) -> bool:
        return bool(np.abs(self.rows - self.rows[0]).max() <= ROW_TOL
                    and np.abs(self.tail_mass - self.tail_mass[0]).max() <= ROW_TOL)

    def apply_to_function(self, values: np.ndarray, tail_value: float = 0.0) -> np.ndarray:
        """Row-wise expectation of a state function: (P h)(i)."""
        return self.rows @ np.asarray(values, dtype=float) + self.tail_mass * tail_value

    def push(self, probs: np.ndarray, tail):
        """One forward step of a law, or of a stack of row laws, with the tail
        absorbing: (p P, tail + p . tail_mass)."""
        return probs @ self.rows, tail + probs @ self.tail_mass

    @cached_property
    def _row_cdf(self) -> np.ndarray:
        if not self.is_stochastic:
            raise KernelValidationError("cannot sample a kernel with unresolved tail mass")
        cdf = np.cumsum(self.rows, axis=1)
        cdf[:, -1] = 1.0  # a rounded-down end would let a uniform fall past state N
        return cdf

    def draw(self, state: np.ndarray, u: np.ndarray, base=None) -> np.ndarray:
        """Next states ``min{j : C[state, j] >= u}`` (one uniform per state): the
        count of row-CDF entries strictly below u.  ``base``, the base-row
        search a band step may be handed, has no use here."""
        return (self._row_cdf[state] < u[:, None]).sum(axis=1)


@dataclass(frozen=True, eq=False)
class InitialDistribution:
    """Distribution of the starting state, with optional escaped mass."""

    probs: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size < 2:
            raise KernelValidationError("probs must be a vector of length >= 2")
        if not (np.isfinite(probs).all() and math.isfinite(self.tail_mass)):
            raise KernelValidationError("initial distribution must be finite")
        if probs.min() < -ROW_TOL or self.tail_mass < -ROW_TOL:
            raise KernelValidationError("negative probability in initial distribution")
        if abs(probs.sum() + self.tail_mass - 1.0) > ROW_TOL:
            raise KernelValidationError("initial distribution does not sum to 1")
        object.__setattr__(self, "probs", _readonly(np.clip(probs, 0.0, 1.0)))
        object.__setattr__(self, "tail_mass", max(float(self.tail_mass), 0.0))

    @property
    def size(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True, eq=False)
class DistributionVector:
    """The distribution of X_k after k exact propagation steps."""

    probs: np.ndarray
    tail_mass: float
    step_index: int

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.min() < -MASS_TOL or self.tail_mass < -MASS_TOL:
            raise KernelValidationError(f"negative mass at step {self.step_index}")
        err = abs(probs.sum() + self.tail_mass - 1.0)
        if err > MASS_TOL:
            raise KernelValidationError(
                f"mass deviates from 1 by {err} at step {self.step_index}"
            )
        object.__setattr__(self, "probs", _readonly(np.clip(probs, 0.0, 1.0)))
        object.__setattr__(self, "tail_mass", max(float(self.tail_mass), 0.0))

    def expectation(self, f: "Observable") -> float:
        return float(self.probs @ f.values + self.tail_mass * f.tail_value)


@dataclass(frozen=True, eq=False)
class Observable:
    """A bounded real function on the retained states plus a tail value."""

    values: np.ndarray
    tail_value: float = 0.0
    bound: float = field(init=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise KernelValidationError("observable values must be a vector")
        if not np.all(np.isfinite(values)) or not math.isfinite(self.tail_value):
            raise KernelValidationError("observable must be finite (bounded)")
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(
            self, "bound", float(max(np.abs(values).max(), abs(self.tail_value)))
        )

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def is_integer_valued(self) -> bool:
        ok = np.abs(self.values - np.round(self.values)).max() <= INTEGER_TOL
        return bool(ok and abs(self.tail_value - round(self.tail_value)) <= INTEGER_TOL)

    def shifted(self, c: float) -> "Observable":
        return Observable(self.values + c, self.tail_value + c)

    def scaled(self, a: float) -> "Observable":
        return Observable(self.values * a, self.tail_value * a)


@dataclass(frozen=True, eq=False)
class ObservableSet:
    """A finite family of observables sharing one state space."""

    observables: tuple[Observable, ...]

    def __post_init__(self):
        obs = tuple(self.observables)
        if not obs:
            raise KernelValidationError("observable set must be nonempty")
        sizes = {o.size for o in obs}
        if len(sizes) != 1:
            raise KernelValidationError(f"observables disagree on state count: {sizes}")
        object.__setattr__(self, "observables", obs)

    def __len__(self) -> int:
        return len(self.observables)

    def __iter__(self):
        return iter(self.observables)

    def __getitem__(self, i: int) -> Observable:
        return self.observables[i]

    @property
    def size(self) -> int:
        return self.observables[0].size

    def value_matrix(self) -> np.ndarray:
        """Stacked (m, N) matrix of observable values."""
        return np.stack([o.values for o in self.observables])

    def tail_values(self) -> np.ndarray:
        return np.array([o.tail_value for o in self.observables])

    def combine(self, z: Sequence[float]) -> Observable:
        """The linear combination sum_l z[l] * f_l as a single observable."""
        z = np.asarray(z, dtype=float)
        if z.shape != (len(self.observables),):
            raise KernelValidationError(
                f"weight vector must have length {len(self.observables)}"
            )
        values = z @ self.value_matrix()
        return Observable(values, float(z @ self.tail_values()))


def indicator_observable(state: int, size: int) -> Observable:
    """f = 1{X = state}, 1-based state index; tail value 0."""
    if not 1 <= state <= size:
        raise KernelValidationError(f"state {state} outside 1..{size}")
    values = np.zeros(size)
    values[state - 1] = 1.0
    return Observable(values, 0.0)


def capped_identity_observable(cap: int, size: int) -> Observable:
    """f(i) = min(i, cap); the tail (states > N) also maps to cap."""
    if cap < 1:
        raise KernelValidationError("cap must be >= 1")
    return Observable(np.minimum(np.arange(1, size + 1), cap).astype(float), float(cap))


def point_mass(state: int, size: int) -> InitialDistribution:
    if not 1 <= state <= size:
        raise KernelValidationError(f"state {state} outside 1..{size}")
    probs = np.zeros(size)
    probs[state - 1] = 1.0
    return InitialDistribution(probs)


def uniform_initial(size: int) -> InitialDistribution:
    return InitialDistribution(np.full(size, 1.0 / size))


# ---------------------------------------------------------------------------
# built-in family internals
# ---------------------------------------------------------------------------

_ZETA_POWER = {"zeta2": 2, "zeta4": 4}
_ZETA_NORM = {"zeta2": 6.0 / math.pi**2, "zeta4": 90.0 / math.pi**4}
# shorthand kinds accepted on the wire for the two built-in example families
_KIND_ALIASES = {"example1": "zeta2", "example2": "zeta4"}


def _zeta_weights(kind: str, size: int) -> np.ndarray:
    """Untruncated base-row entries c_p / j^p for j = 1..size."""
    j = np.arange(1, size + 1, dtype=float)
    return _ZETA_NORM[kind] / j ** _ZETA_POWER[kind]


@dataclass(frozen=True, eq=False)
class _RankOneBand:
    """Shared structure of the built-in kernels.

    Every row i < N of the step-k kernel equals ``base_row + s(k) * B[i]``,
    where row i of B moves ``pert[i]`` units of mass from column i to column
    i+1 (``pert[N-1]`` is 0).  The last row is
    ``(base_row - s(k) * last * e_N) / (1 - s(k) * last)``: ``last`` is 0
    under ``lump``, where the last row is the base row itself, and the base
    row's last entry under ``renormalize``, whose last row loses its band
    partner beyond N.  ``base_row`` sums to 1.
    """

    base_row: np.ndarray
    base_cdf: np.ndarray
    pert: np.ndarray
    last: float = 0.0

    @cached_property
    def guide(self) -> np.ndarray:
        """Guide table of the base CDF (Chen & Asau 1974; Devroye 1986,
        §III.2.4): split [0, 1) into M = 2^p >= 4N equal buckets; entry k is
        ``min{j : C[j] >= k/M}`` when that index also serves every u in
        [k/M, (k+1)/M), and -1 when a CDF entry lies inside the bucket."""
        buckets = 1 << (4 * self.base_cdf.size - 1).bit_length()
        first = np.searchsorted(self.base_cdf, np.arange(buckets + 1) / buckets, side="left")
        return np.where(first[:-1] == first[1:], first[:-1], -1)

    def search(self, u: np.ndarray) -> np.ndarray:
        """``min{j : C[j] >= u}`` for u in [0, 1), as ``np.searchsorted(C, u)``.
        M is a power of two, so ``u * M`` is exact and bucket k holds exactly
        the u in [k/M, (k+1)/M); the answer lies between the first indices of
        buckets k and k+1, so where they agree it is that index and only the
        buckets holding a CDF entry fall back to a search."""
        guide = self.guide
        out = guide[(u * guide.size).astype(np.intp)]
        miss = out < 0
        if miss.any():
            out[miss] = np.searchsorted(self.base_cdf, u[miss], side="left")
        return out

    def pull_terms(self, values: np.ndarray) -> tuple[float, np.ndarray]:
        """(b·h, dh) with ``dh[i] = h[i+1] - h[i]`` (0 at N): the parts of
        ``P_k h`` that do not depend on k."""
        diffs = np.zeros_like(self.pert)
        diffs[:-1] = values[1:] - values[:-1]
        return float(self.base_row @ values), diffs


@dataclass(frozen=True, eq=False)
class _BandStep:
    """The step kernel of a ``_RankOneBand`` at one scale, lump or renormalize,
    applied in O(N) per step, with the ``push``, ``apply_to_function`` and
    ``draw`` of a TruncatedKernel (``draw`` agrees with the dense rows' draw
    except next to a row-CDF entry; see there)."""

    band: _RankOneBand
    scale: float

    def apply_to_function(self, values: np.ndarray, tail_value: float = 0.0) -> np.ndarray:
        """(P_k h)(i) for all i; no mass escapes, so the tail value never enters."""
        base, diffs = self.band.pull_terms(values)
        out = base + self.scale * self.band.pert * diffs
        if self.band.last:
            out[-1] = self._last_row_mean(values, base)
        return out

    def apply_at(self, values: np.ndarray, states: np.ndarray, base: float,
                 diffs: np.ndarray) -> np.ndarray:
        """(P_k h)(states) in O(len(states)), given ``band.pull_terms(values)``:
        the arithmetic of ``apply_to_function`` at those states alone, so the
        bits match."""
        out = base + self.scale * self.band.pert[states] * diffs[states]
        if self.band.last:
            out[states == values.size - 1] = self._last_row_mean(values, base)
        return out

    def _last_row_mean(self, values: np.ndarray, base: float) -> float:
        lost = self.scale * self.band.last
        return (base - lost * values[-1]) / (1.0 - lost)

    def push(self, probs: np.ndarray, tail):
        """(p P_k, tail): the retained mass 1 - tail moves to the base row, and
        the band shifts ``scale * p * pert`` one state up.  ``probs`` may be a
        stack of laws with a scalar tail or one tail per law, and ``scale`` a
        column of per-row scales."""
        moved = probs * self.band.pert
        out = np.zeros_like(moved)
        out[..., 1:] = moved[..., :-1]
        out -= moved
        out *= self.scale  # in place: wide stacks pay for every new array
        retained = 1.0 - tail
        if isinstance(retained, np.ndarray):  # one tail per law of a stack
            retained = retained[..., None]
        if self.band.last:
            # row N is the base row plus lost / (1 - lost) times (base_row - e_N)
            lost = self.scale * self.band.last
            extra = probs[..., -1:] * (lost / (1.0 - lost))
            retained = retained + extra
            out[..., -1:] -= extra
        out += np.multiply(retained, self.band.base_row, out=moved)  # moved is spent
        return out, tail

    def draw(self, state: np.ndarray, u: np.ndarray, base=None) -> np.ndarray:
        """Next states as ``TruncatedKernel.draw`` gives them from the dense
        ``make_kernel`` rows, except for uniforms within about one ulp of a
        row-CDF entry: the two CDFs round differently, so there a draw may land
        on a nearby state (about 5% of the uniforms at and one ulp either side
        of each entry, under either tail policy).  Row i < N is the base row
        with ``scale * pert[i]`` mass moved from column i to i+1, which lowers
        its CDF at index i alone: one base-CDF search serves every such state,
        plus a promotion to i+1 when the base draw is the current state i and u
        exceeds ``C[i] - scale * pert[i]``.  The base search is
        ``band.search(u)``, or ``base`` when the caller has done it.  A draw
        from state N searches the last row's own CDF."""
        cdf = self.band.base_cdf
        if base is None:
            base = self.band.search(u)
        # a promoted draw equals the current state, so promotion adds one
        out = base + ((base == state) & (u > cdf[state] - self.scale * self.band.pert[state]))
        if self.band.last:
            at_last = state == cdf.size - 1
            last_cdf = cdf / (1.0 - self.scale * self.band.last)
            last_cdf[-1] = 1.0  # a rounded-down end would let a uniform fall past state N
            out[at_last] = np.searchsorted(last_cdf, u[at_last], side="left")
        return out


def _make_structure(base_row: np.ndarray, pert: np.ndarray, last: float = 0.0) -> _RankOneBand:
    base_row = _readonly(base_row)
    cdf = np.cumsum(base_row)
    cdf[-1] = 1.0  # a rounded-down end would let a uniform fall past state N
    return _RankOneBand(base_row, _readonly(cdf), _readonly(pert), last)


def _zeta_structure(kind: str, size: int, tail_policy: TailPolicy) -> _RankOneBand:
    w = _zeta_weights(kind, size)
    if tail_policy == TailPolicy.LUMP:
        base = w.copy()
        base[-1] = 1.0 - base[:-1].sum()  # lump the tail into the last state
        pert = w.copy()
        last = 0.0
    else:
        base = w / w.sum()
        pert = base.copy()
        last = float(base[-1])
    pert[-1] = 0.0  # the last row's band partner lies beyond N
    return _make_structure(base, pert, last)


def _check_zeta_params(kind: str, alpha: float, beta: float | None, size: int) -> None:
    if alpha is None or not 0.5 < alpha < math.inf:
        raise KernelValidationError(f"{kind} requires finite alpha > 1/2, got {alpha}")
    if kind == "zeta4" and (beta is None or not 0.0 < beta < math.inf):
        raise KernelValidationError(f"zeta4 requires finite beta > 0, got {beta}")
    if kind == "zeta4" and beta * math.log(beta / alpha) - beta > 0.0:
        # s(k) = (log k)^beta k^-alpha peaks at log k = beta/alpha, where log s is
        # beta log(beta/alpha) - beta, so only then can some s(k) exceed 1.  Its
        # integer maximum lies next to the peak; decided in logs, nothing
        # overflows, and the cap keeps exp finite (s is far above 1 there).
        peak = math.exp(min(beta / alpha, 700.0))
        for k in (math.floor(peak), math.ceil(peak)):
            log_s = beta * math.log(math.log(k)) - alpha * math.log(k)
            if log_s > 0.0:
                s = f"{math.exp(log_s):.4g}" if log_s < 700.0 else f"exp({log_s:.4g})"
                raise KernelValidationError(
                    f"zeta4 with alpha={alpha}, beta={beta} has s({k:.6g}) = {s} > 1, "
                    f"which gives P_{k:.6g} a negative diagonal entry"
                )
    if size < 3:
        raise KernelValidationError(
            f"N={size} too small to hold the (i-1, i, i+1) band; need N >= 3"
        )


def _zeta_scale(kind: str, alpha: float, beta: float | None, k) -> np.ndarray | float:
    """Perturbation magnitude s(k); vectorized over k."""
    k = np.asarray(k, dtype=float)
    if np.any(k < 1):
        raise KernelValidationError("time index k must be >= 1")
    if kind == "zeta2":
        out = k**-alpha
    else:
        out = np.log(k) ** beta * k**-alpha  # log(1) = 0 gives the limit kernel at k=1
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# kernel construction
# ---------------------------------------------------------------------------

def make_limit_kernel(kind: str, size: int, tail_policy: TailPolicy = TailPolicy.LUMP) -> TruncatedKernel:
    """The identical-rows limit kernel of a built-in family, truncated to N states."""
    kind = _KIND_ALIASES.get(kind, kind)
    if kind not in _ZETA_POWER:
        raise KernelValidationError(f"unknown built-in kind {kind!r}")
    if size < 3:
        raise KernelValidationError("need N >= 3")
    row = _zeta_structure(kind, size, tail_policy).base_row
    return TruncatedKernel(np.tile(row, (size, 1)), np.zeros(size))


def make_kernel(
    kind: str,
    k: int,
    size: int,
    alpha: float,
    beta: float | None = None,
    tail_policy: TailPolicy = TailPolicy.LUMP,
) -> TruncatedKernel:
    """The step-k kernel of a built-in family, truncated to N states.

    Row i carries the base power-law row with ``s(k) * w_i`` mass moved from
    column i to column i+1.  Under ``lump`` the last row's move cancels
    against the lumped tail, so it equals the limit row exactly.
    """
    kind = _KIND_ALIASES.get(kind, kind)
    if kind not in _ZETA_POWER:
        raise KernelValidationError(f"unknown built-in kind {kind!r}")
    _check_zeta_params(kind, alpha, beta, size)
    if k < 1:
        raise KernelValidationError(f"time index k must be >= 1, got {k}")
    s = _zeta_scale(kind, alpha, beta, k)
    if tail_policy == TailPolicy.LUMP:
        struct = _zeta_structure(kind, size, tail_policy)
        row, pert = struct.base_row, struct.pert
    else:
        row = pert = _zeta_weights(kind, size)
    rows = np.tile(row, (size, 1))
    idx = np.arange(size - 1)
    rows[idx, idx] -= s * pert[:-1]
    rows[idx, idx + 1] += s * pert[:-1]
    if tail_policy == TailPolicy.RENORMALIZE:
        rows[size - 1, size - 1] -= s * pert[-1]  # its band partner lies beyond N
        rows /= rows.sum(axis=1, keepdims=True)
    return TruncatedKernel(rows, np.zeros(size))


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class KernelFamily:
    """A rule k -> P_k together with the limit kernel P.

    ``kind`` is one of ``constant``, ``zeta2``, ``zeta4``, ``table``.  The
    built-ins build P_k from s(k); every other family is a table whose listed
    kernels cover k = 1..len(table), with every later step the limit kernel.
    A constant family is the empty table.
    """

    kind: str
    size: int
    tail_policy: TailPolicy
    limit: TruncatedKernel
    alpha: float | None = None
    beta: float | None = None
    table: tuple[TruncatedKernel, ...] = ()
    structure: _RankOneBand | None = field(default=None, repr=False)

    def kernel_at(self, k: int) -> TruncatedKernel:
        """The transition matrix governing the step from X_{k-1} to X_k."""
        if k < 1:
            raise KernelValidationError(f"time index k must be >= 1, got {k}")
        if self.kind in _ZETA_POWER:
            return make_kernel(self.kind, k, self.size, self.alpha, self.beta, self.tail_policy)
        return self.table[k - 1] if k <= len(self.table) else self.limit

    def steps(self, n: int):
        """The step operators P_1..P_n: O(N) band steps for the families with
        the rank-one-plus-band structure, the kernels themselves otherwise."""
        if self.structure is not None:
            scales = self.perturbation_scale(np.arange(1, n + 1))
            return (_BandStep(self.structure, s) for s in scales)
        return (self.kernel_at(k) for k in range(1, n + 1))

    def perturbation_scale(self, k) -> np.ndarray | float:
        """Scale s(k) of the rank-one-plus-band decomposition; 0 off the built-ins."""
        if self.kind in _ZETA_POWER:
            return _zeta_scale(self.kind, self.alpha, self.beta, k)
        k = np.asarray(k, dtype=float)
        return np.zeros(k.shape) if k.ndim else 0.0

    def truncation_tail_mass(self) -> float:
        """Base-row mass beyond the retained states (0 for explicit kernels)."""
        if self.kind in _ZETA_POWER:
            return float(1.0 - _zeta_weights(self.kind, self.size).sum())
        return float(self.limit.tail_mass.max())


def zeta2_family(alpha: float, size: int, tail_policy: TailPolicy = TailPolicy.LUMP) -> KernelFamily:
    """Built-in family with base row 6/(pi^2 j^2) and perturbation k^(-alpha)."""
    _check_zeta_params("zeta2", alpha, None, size)
    limit = make_limit_kernel("zeta2", size, tail_policy)
    struct = _zeta_structure("zeta2", size, tail_policy)
    return KernelFamily("zeta2", size, tail_policy, limit, alpha=alpha, structure=struct)


def zeta4_family(
    alpha: float, beta: float, size: int, tail_policy: TailPolicy = TailPolicy.LUMP
) -> KernelFamily:
    """Built-in family with base row 90/(pi^4 j^4) and perturbation (log k)^beta k^(-alpha)."""
    _check_zeta_params("zeta4", alpha, beta, size)
    limit = make_limit_kernel("zeta4", size, tail_policy)
    struct = _zeta_structure("zeta4", size, tail_policy)
    return KernelFamily("zeta4", size, tail_policy, limit, alpha=alpha, beta=beta, structure=struct)


def constant_family(kernel: TruncatedKernel) -> KernelFamily:
    """The same kernel at every step; the limit is the kernel itself."""
    struct = None
    if kernel.is_stochastic and kernel.has_identical_rows():
        row = kernel.rows[0]
        struct = _make_structure(row / row.sum(), np.zeros(kernel.size))
    return KernelFamily("constant", kernel.size, TailPolicy.LUMP, kernel, structure=struct)


def table_family(kernels: Iterable[TruncatedKernel], limit: TruncatedKernel) -> KernelFamily:
    kernels = tuple(kernels)
    if any(k.size != limit.size for k in kernels):
        raise KernelValidationError("table kernels must share the limit's state count")
    return KernelFamily("table", limit.size, TailPolicy.LUMP, limit, table=kernels)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def family_to_config(family: KernelFamily) -> dict:
    cfg: dict = {"kind": family.kind, "N": family.size, "tail_policy": family.tail_policy.value}
    if family.kind in _ZETA_POWER:
        cfg["alpha"] = family.alpha
        if family.beta is not None:
            cfg["beta"] = family.beta
    elif family.kind == "constant":
        cfg["matrix"] = family.limit.rows.tolist()
        if not family.limit.is_stochastic:
            cfg["tail"] = family.limit.tail_mass.tolist()
    else:
        cfg["matrices"] = [k.rows.tolist() for k in family.table]
        cfg["limit"] = family.limit.rows.tolist()
    return cfg


def family_from_config(cfg: dict) -> KernelFamily:
    """Build a family from its JSON form, e.g. {"kind":"zeta2","alpha":0.75,"N":1000,"tail_policy":"lump"}."""
    kind = _KIND_ALIASES.get(cfg.get("kind"), cfg.get("kind"))
    try:
        policy = TailPolicy(cfg.get("tail_policy", "lump"))
    except ValueError as exc:
        raise KernelValidationError(f"unknown tail policy {cfg.get('tail_policy')!r}") from exc
    if kind == "zeta2":
        return zeta2_family(cfg.get("alpha"), int(cfg["N"]), policy)
    if kind == "zeta4":
        return zeta4_family(cfg.get("alpha"), cfg.get("beta"), int(cfg["N"]), policy)
    if kind == "constant":
        rows = np.asarray(cfg["matrix"], dtype=float)
        tail = np.asarray(cfg.get("tail", np.zeros(rows.shape[0])), dtype=float)
        return constant_family(TruncatedKernel(rows, tail))
    if kind == "table":
        mats = [np.asarray(m, dtype=float) for m in cfg["matrices"]]
        kernels = [TruncatedKernel(m, np.zeros(m.shape[0])) for m in mats]
        lim = np.asarray(cfg["limit"], dtype=float)
        return table_family(kernels, TruncatedKernel(lim, np.zeros(lim.shape[0])))
    raise KernelValidationError(f"unknown family kind {cfg.get('kind')!r}")


# ---------------------------------------------------------------------------
# exact chain operations
# ---------------------------------------------------------------------------

def kernel_product(family: KernelFamily, m: int, n: int) -> TruncatedKernel:
    """The matrix product P_{m+1} P_{m+2} ... P_n on the truncated space.

    Tail mass is treated as absorbing: mass that ever leaves the retained
    states stays in the tail of the product.
    """
    if n <= m or m < 0:
        raise KernelValidationError(f"need n > m >= 0, got m={m}, n={n}")
    rows, tail = np.eye(family.size), np.zeros(family.size)
    for k in range(m + 1, n + 1):
        rows, tail = family.kernel_at(k).push(rows, tail)
    return TruncatedKernel(rows, tail)


def _propagation_steps(mu0: InitialDistribution, family: KernelFamily, n: int):
    """Yield (step, probs, tail) for k = 1..n: the step operator P_k and the law of X_k."""
    if mu0.size != family.size:
        raise KernelValidationError("initial distribution size does not match family")
    probs, tail = mu0.probs, float(mu0.tail_mass)
    for step in family.steps(n):
        probs, tail = step.push(probs, tail)
        yield step, probs, float(tail)


def propagate(mu0: InitialDistribution, family: KernelFamily, k: int) -> DistributionVector:
    """Exact forward distribution of X_k (k vector-matrix products, never a full product matrix)."""
    if k < 0:
        raise KernelValidationError(f"step count must be >= 0, got {k}")
    probs, tail = mu0.probs, float(mu0.tail_mass)
    for _, probs, tail in _propagation_steps(mu0, family, k):
        pass
    return DistributionVector(probs, tail, k)


def expected_sum(
    mu0: InitialDistribution,
    family: KernelFamily,
    f: Observable | ObservableSet,
    n: int | Sequence[int],
) -> float | np.ndarray:
    """E[f(X_1) + ... + f(X_n)] computed exactly by propagation; for an
    ObservableSet, the vector of every observable's total from one
    propagation, each accumulated exactly as for that observable alone.

    With a horizon grid ``n`` (no repeats) one propagation to the largest
    horizon serves them all: the result gains a leading axis of the running
    totals at each horizon in ascending order, each bit-identical to its
    one-horizon value.
    """
    grid = _horizon_grid(n, "horizons")
    if f.size != family.size:
        raise KernelValidationError("observable size does not match family")
    obs = tuple(f) if isinstance(f, ObservableSet) else (f,)
    totals = [0.0] * len(obs)
    out = np.empty((grid.size, len(obs)))
    pos = 0
    for k, (_, probs, tail) in enumerate(_propagation_steps(mu0, family, int(grid[-1])), 1):
        for l, o in enumerate(obs):
            totals[l] += float(probs @ o.values) + tail * o.tail_value
        if k == grid[pos]:
            out[pos] = totals
            pos += 1
    if np.ndim(n) == 0:
        return out[0] if isinstance(f, ObservableSet) else float(out[0, 0])
    return out if isinstance(f, ObservableSet) else out[:, 0]


def expected_step_values(
    mu0: InitialDistribution, family: KernelFamily, obs: ObservableSet, n: int
) -> np.ndarray:
    """(n, m) matrix of E[f_l(X_k)] for k = 1..n, one propagation pass."""
    vals = obs.value_matrix()
    tails = obs.tail_values()
    out = np.empty((n, len(obs)))
    for k, (_, probs, tail) in enumerate(_propagation_steps(mu0, family, n)):
        out[k] = vals @ probs + tail * tails
    return out
