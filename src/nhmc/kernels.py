"""Truncated stochastic kernels and time-varying kernel families.

The state space is {1..N} (stored 0-based internally), obtained by truncating
a countable chain.  Every kernel row and every start law sums to one on 1..N:
mass that the untruncated kernel would place beyond state N is handled by one
of two tail policies:

* ``lump``: the residual row mass is folded into column N (keeps rows exactly
  stochastic and preserves the one-step band structure of the built-in
  families for every row below N);
* ``renormalize``: each truncated row is divided by its retained mass.

Under either policy every step kernel of a built-in family is a shared base
row plus ``s(k)`` times a bidiagonal band, with one replaced last row under
``renormalize``, so ``KernelFamily.steps`` applies it in O(N) per step: its
``push(probs, mass)`` puts each law's total ``mass`` on the base row, where a
dense kernel's ``push`` is a matmul.

The exact means ``expected_sum`` and ``expected_step_values`` of a lump band
family (zeta2/zeta4 under ``lump``, constant families with identical rows)
come from the band series ``μ_k = Σ_j c_{k,j} b B^j + c_{k,k} μ0 B^k``
cut after T terms, with T fixed per family by a bound on the dropped terms
(at most 2^-60 times max |f|; see ``KernelFamily._series_terms``), in
O(T (N + n)).  Other families, and a family whose bound does not close
within ``SERIES_MAX_TERMS`` terms, propagate the law step by step.

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
    "Observable",
    "ObservableSet",
    "KernelFamily",
    "make_kernel",
    "make_limit_kernel",
    "zeta2_family",
    "zeta4_family",
    "constant_family",
    "table_family",
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

def _config_int(value, name: str) -> int:
    """An integer config field: an int or an integral float (``1e4``).  A
    bool, a fraction or a non-number is refused by name, never truncated."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise KernelValidationError(f"{name} must be an integer, got {value!r}")


def _count(value, name: str, low: int, high: int | None = None) -> int:
    """A count (a step, horizon, state, cap, trial count or seed) as an int in
    ``low..high``, or ``>= low`` when ``high`` is None: ``_config_int`` refuses a
    fraction or a bool, and a value outside the range is refused by name."""
    value = _config_int(value, name)
    if high is None and value < low:
        raise KernelValidationError(f"{name} must be >= {low}, got {value}")
    if high is not None and not low <= value <= high:
        raise KernelValidationError(f"{name} must lie in {low}..{high}, got {value}")
    return value


def _horizon_grid(values, name: str) -> np.ndarray:
    """Sorted int64 horizons, each a ``_count`` >= 1; refuses an empty grid and repeats."""
    entries = values if np.ndim(values) else [values]
    grid = np.asarray(sorted(_count(v, f"{name} entry", 1) for v in entries), dtype=np.int64)
    if grid.size == 0 or np.any(np.diff(grid) == 0):
        raise KernelValidationError(f"{name} must be nonempty, without repeats")
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
    """One time-step stochastic matrix on {1..N}.

    ``rows[i, j]`` is the probability of moving from state i+1 to state j+1.
    Each row must sum to one within 1e-12; entries may undershoot/overshoot
    [0, 1] by at most 1e-12 and are clamped.

    A kernel whose rows all equal one row b is held as that row when ``rows``
    is ``np.broadcast_to(b, (N, N))``, a read-only view whose rows share b's
    memory (a zero first stride).  It is validated on b alone, and
    ``apply_to_function`` (b·h at every state), ``push`` (each law's mass
    times b), ``draw`` (a search of b's CDF) and ``has_identical_rows`` take
    O(N) or less; ``rows`` stays readable as the N x N matrix.
    """

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
            raise KernelValidationError(f"rows must be square, got {rows.shape}")
        n = rows.shape[0]
        if n < 2:
            raise KernelValidationError(f"need at least 2 states, got {n}")
        one_row = rows.strides[0] == 0
        checked = rows[:1] if one_row else rows
        if not np.isfinite(checked).all():
            raise KernelValidationError("kernel entries must be finite")
        if checked.min() < -ROW_TOL or checked.max() > 1.0 + ROW_TOL:
            raise KernelValidationError(
                f"entries outside [0,1] beyond tolerance: min={checked.min()}, "
                f"max={checked.max()}"
            )
        err = np.abs(checked.sum(axis=1) - 1.0).max()
        if err > ROW_TOL:
            raise KernelValidationError(f"row mass deviates from 1 by {err}")
        clipped = np.clip(checked, 0.0, 1.0)  # broadcast_to gives a read-only view
        object.__setattr__(self, "rows", np.broadcast_to(clipped, rows.shape) if one_row
                           else _readonly(clipped))

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    @property
    def _row(self) -> np.ndarray | None:
        """b for a kernel held as its one row, else None."""
        return self.rows[0] if self.rows.strides[0] == 0 else None

    def has_identical_rows(self) -> bool:
        if self._row is not None:
            return True
        return bool(np.abs(self.rows - self.rows[0]).max() <= ROW_TOL)

    def apply_to_function(self, values: np.ndarray) -> np.ndarray:
        """Row-wise expectation of a state function: (P h)(i)."""
        values = np.asarray(values, dtype=float)
        if self._row is not None:
            return np.full((self.size,) + values.shape[1:], self._row @ values)
        return self.rows @ values

    def push(self, probs: np.ndarray, mass=1.0) -> np.ndarray:
        """One forward step of a law, or of a stack of row laws: p P.  A
        matmul needs no ``mass``; it is taken for the band step's signature.
        A kernel held as its one row b gives each law's own total times b."""
        if self._row is not None:
            return np.multiply.outer(np.sum(probs, axis=-1), self._row)
        return probs @ self.rows

    @cached_property
    def _row_cdf(self) -> np.ndarray:
        cdf = np.cumsum(self.rows if self._row is None else self._row, axis=-1)
        cdf[..., -1] = 1.0  # a rounded-down end would let a uniform fall past state N
        return cdf

    def draw(self, state: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Next states ``min{j : C[state, j] >= u}`` (one uniform per state): the
        count of row-CDF entries strictly below u, a search of b's CDF for a
        kernel held as its one row b."""
        if self._row is not None:
            return np.searchsorted(self._row_cdf, u, side="left")
        return (self._row_cdf[state] < u[:, None]).sum(axis=1)


@dataclass(frozen=True, eq=False)
class InitialDistribution:
    """Distribution of the starting state on 1..N."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size < 2:
            raise KernelValidationError("probs must be a vector of length >= 2")
        if not np.isfinite(probs).all():
            raise KernelValidationError("initial distribution must be finite")
        if probs.min() < -ROW_TOL:
            raise KernelValidationError("negative probability in initial distribution")
        if abs(probs.sum() - 1.0) > ROW_TOL:
            raise KernelValidationError("initial distribution does not sum to 1")
        object.__setattr__(self, "probs", _readonly(np.clip(probs, 0.0, 1.0)))

    @property
    def size(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True, eq=False)
class Observable:
    """A bounded real function on the retained states 1..N."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise KernelValidationError("observable values must be a nonempty vector")
        if not np.all(np.isfinite(values)):
            raise KernelValidationError("observable must be finite (bounded)")
        object.__setattr__(self, "values", _readonly(values))

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def is_integer_valued(self) -> bool:
        return bool(np.abs(self.values - np.round(self.values)).max() <= INTEGER_TOL)


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

    def combine(self, z: Sequence[float]) -> Observable:
        """The linear combination sum_l z[l] * f_l as a single observable."""
        z = np.asarray(z, dtype=float)
        if z.shape != (len(self.observables),):
            raise KernelValidationError(
                f"weight vector must have length {len(self.observables)}"
            )
        return Observable(z @ self.value_matrix())


def indicator_observable(state: int, size: int) -> Observable:
    """f = 1{X = state}, 1-based state index."""
    state = _count(state, "state", 1, size)
    values = np.zeros(size)
    values[state - 1] = 1.0
    return Observable(values)


def capped_identity_observable(cap: int, size: int) -> Observable:
    """f(i) = min(i, cap)."""
    cap = _count(cap, "cap", 1)
    return Observable(np.minimum(np.arange(1, size + 1), cap).astype(float))


def point_mass(state: int, size: int) -> InitialDistribution:
    state = _count(state, "state", 1, size)
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

    def promotions(self, base: np.ndarray, u: np.ndarray, scale, out=None) -> np.ndarray:
        """``u > C[base] - scale * pert[base]``: where a draw from state ``base``
        moves up one (never from N: C = 1, pert = 0).  ``scale`` may be a
        column of per-step scales for a step-major span."""
        limit = self.pert[base]
        limit *= scale  # in place: a span's temporaries drive the walk's peak memory
        return np.greater(u, np.subtract(self.base_cdf[base], limit, out=limit), out=out)

    def pull_terms(self, values: np.ndarray) -> tuple[float, np.ndarray]:
        """(b·h, dh) with ``dh[i] = h[i+1] - h[i]`` (0 at N): the parts of
        ``P_k h`` that do not depend on k."""
        diffs = np.zeros_like(self.pert)
        diffs[:-1] = values[1:] - values[:-1]
        return float(self.base_row @ values), diffs

    def band_powers(self, x: np.ndarray, count: int) -> np.ndarray:
        """The (count, N) rows ``x B^j`` for j < count; row j+1 moves
        ``pert * (x B^j)`` one state up."""
        out = np.empty((count, x.size))
        out[0] = x
        for j in range(1, count):
            moved = out[j - 1] * self.pert
            np.negative(moved, out=out[j])
            out[j, 1:] += moved[:-1]
        return out


# the band series drops terms whose sum is at most this times max |F|
SERIES_TOL = 2.0**-60
# a family whose bound needs more terms than this keeps step-by-step propagation
SERIES_MAX_TERMS = 256


def _band_series(mu0: InitialDistribution, family: KernelFamily, values: np.ndarray,
                 n: int) -> np.ndarray:
    """The (n + 1, m) array of E F_l(X_k) for k = 0..n and the m functionals
    ``values[l]``, for a lump band family, from the unrolled recurrence
    ``μ_k = b + s(k) μ_{k-1} B``:

        μ_k = Σ_{j<k} c_{k,j} b B^j + c_{k,k} μ0 B^k,
        c_{k,j} = s(k - j + 1) ··· s(k),

    cut after ``T = family._series_terms`` terms, so at most ``SERIES_TOL``
    times max |F_l| is dropped (see there).  The T rows ``b B^j`` and
    ``μ0 B^j`` are built once; column j of c is column j - 1 shifted one
    step and times s, a running product (zeta4's s(1) = 0 rules out logs),
    and its terms are added elementwise, one j after the other, so each
    row's value does not depend on n or on the other functionals: O(T (N + n))
    time and O(n m) memory."""
    terms = family._series_terms
    band = family.structure
    b_rows = band.band_powers(band.base_row, terms)
    mu_rows = band.band_powers(mu0.probs, terms)
    b_dots = np.array([b_rows @ v for v in values])  # one product per F_l
    mu_dots = np.array([mu_rows @ v for v in values])
    scales = family.perturbation_scale(np.arange(1, n + 1))
    out = np.zeros((n + 1, len(values)))
    coeff = np.ones(n + 1)  # c_{k,j} for k = j..n
    work = np.empty((n, len(values)))
    for j in range(min(terms, n + 1)):
        if j:
            coeff = np.multiply(coeff[1:], scales[: n - j + 1], out=coeff[1:])
        out[j] += coeff[0] * mu_dots[:, j]
        part = np.multiply(coeff[1:, None], b_dots[:, j], out=work[: n - j])
        out[j + 1:] += part
    return out


@dataclass(frozen=True, eq=False)
class _BandStep:
    """The step kernel of a ``_RankOneBand`` at one scale, lump or renormalize,
    applied in O(N) per step, with the ``push``, ``apply_to_function`` and
    ``draw`` of a TruncatedKernel (``draw`` agrees with the dense rows' draw
    except next to a row-CDF entry; see there)."""

    band: _RankOneBand
    scale: float

    def apply_to_function(self, values: np.ndarray) -> np.ndarray:
        """(P_k h)(i) for all i."""
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

    def check_rows(self) -> tuple[float, float]:
        """(smallest entry, largest |row mass - 1|) of P_k in O(N), as the band
        form defines its rows, or ``KernelValidationError`` beyond ``ROW_TOL``
        as TruncatedKernel would raise.  Row i < N moves ``scale * pert[i]``
        within b, so its mass is b's and its smallest entry that of
        ``b - scale * pert``; renormalize's row N is its own."""
        b = self.band.base_row
        low, masses = (b - self.scale * self.band.pert).min(), [b.sum()]
        if self.band.last:
            lost = self.scale * self.band.last
            last = b.copy()
            last[-1] -= lost
            last /= 1.0 - lost
            low = min(low, last.min())
            masses.append(last.sum())
        low, err = float(low), float(max(abs(m - 1.0) for m in masses))
        if low < -ROW_TOL:
            raise KernelValidationError(f"entries outside [0,1] beyond tolerance: min={low}")
        if err > ROW_TOL:
            raise KernelValidationError(f"row mass deviates from 1 by {err}")
        return low, err

    def push(self, probs: np.ndarray, mass=1.0) -> np.ndarray:
        """p P_k: the law's ``mass`` (its total) moves to the base row, and the
        band shifts ``scale * p * pert`` one state up.  ``probs`` may be a
        stack of laws with a scalar mass or one mass per law, and ``scale`` a
        column of per-row scales."""
        moved = probs * self.band.pert
        out = np.zeros_like(moved)
        out[..., 1:] = moved[..., :-1]
        out -= moved
        out *= self.scale  # in place: wide stacks pay for every new array
        if isinstance(mass, np.ndarray):  # one mass per law of a stack
            mass = mass[..., None]
        if self.band.last:
            # row N is the base row plus lost / (1 - lost) times (base_row - e_N)
            lost = self.scale * self.band.last
            extra = probs[..., -1:] * (lost / (1.0 - lost))
            mass = mass + extra
            out[..., -1:] -= extra
        out += np.multiply(mass, self.band.base_row, out=moved)  # moved is spent
        return out

    def draw(self, state: np.ndarray, u: np.ndarray, base=None, promote=None) -> np.ndarray:
        """Next states as ``TruncatedKernel.draw`` gives them from the dense
        ``make_kernel`` rows, except for uniforms within about one ulp of a
        row-CDF entry: the two CDFs round differently, so there a draw may land
        on a nearby state (about 5% of the uniforms at and one ulp either side
        of each entry, under either tail policy).  Row i < N is the base row
        with ``scale * pert[i]`` mass moved from column i to i+1, which lowers
        its CDF at index i alone.  So the draw is ``base = band.search(u)``
        plus one where ``base`` is the current state and ``promote =
        band.promotions(base, u, scale)`` holds; neither reads the state, so a
        walk may hand both in for a span of steps.  A draw from state N
        under renormalize searches the last row's own CDF."""
        if base is None:
            base = self.band.search(u)
            promote = self.band.promotions(base, u, self.scale)
        # a promoted draw equals the current state, so promotion adds one
        out = base + ((base == state) & promote)
        if self.band.last:
            cdf = self.band.base_cdf
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
    """The identical-rows limit kernel of a built-in family, truncated to N
    states and held as its one base row (O(N) memory; see TruncatedKernel)."""
    if kind not in _ZETA_POWER:
        raise KernelValidationError(f"unknown built-in kind {kind!r}")
    if size < 3:
        raise KernelValidationError("need N >= 3")
    row = _zeta_structure(kind, size, tail_policy).base_row
    return TruncatedKernel(np.broadcast_to(row, (size, size)))


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
    if kind not in _ZETA_POWER:
        raise KernelValidationError(f"unknown built-in kind {kind!r}")
    _check_zeta_params(kind, alpha, beta, size)
    k = _count(k, "time index k", 1)
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
    return TruncatedKernel(rows)


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
        k = _count(k, "time index k", 1)
        if self.kind in _ZETA_POWER:
            return make_kernel(self.kind, k, self.size, self.alpha, self.beta, self.tail_policy)
        return self.table[k - 1] if k <= len(self.table) else self.limit

    def listed_steps(self, k_max: int) -> int:
        """How many of the steps 1..k_max are listed, every later step being the
        limit: a table's kernels (none for a constant family), all for a built-in."""
        return k_max if self.kind in _ZETA_POWER else min(k_max, len(self.table))

    def steps(self, n: int):
        """The step operators P_1..P_n: O(N) band steps for the families with
        the rank-one-plus-band structure, the kernels themselves otherwise."""
        n = _count(n, "step count", 0)
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

    @cached_property
    def _series_terms(self) -> int | None:
        """T, the terms ``_band_series`` keeps, or None for a family that keeps
        step-by-step propagation (no band, a renormalize band, or a bound that
        does not close within ``SERIES_MAX_TERMS``).

        Term j of E F(X_k) is at most ``c_{k,j} ρ^j max|F|`` with
        ``ρ = 2 max pert``, the l1 operator norm of B, and ``c_{k,j}`` is at
        most ``C_j``, the product of the j largest s values.  The dropped
        terms j >= T thus sum to at most ``C_T ρ^T / (1 - ρ s_(T+1))`` times
        max|F|, for every k, when ``ρ s_(T+1) < 1`` (s_(i) is the i-th
        largest s); T is the least T with that bound <= ``SERIES_TOL``.  It
        depends on s and the band alone, never on a horizon."""
        band = self.structure
        if band is None or band.last:
            return None
        rho = 2.0 * float(band.pert.max())
        # s is nonincreasing beyond its peak (k = 1 for zeta2, e^(beta/alpha)
        # for zeta4; 0 throughout for a constant family), so the largest
        # SERIES_MAX_TERMS + 1 values of s all lie in the first peak + that many steps
        peak = math.exp(self.beta / self.alpha) if self.kind == "zeta4" else 1.0
        ks = np.arange(1, math.ceil(peak) + SERIES_MAX_TERMS + 2)
        ratios = rho * np.sort(self.perturbation_scale(ks))[::-1]  # ρ s_(1), ρ s_(2), ...
        bound = 1.0
        for terms in range(1, SERIES_MAX_TERMS + 1):
            bound *= ratios[terms - 1]
            if ratios[terms] < 1.0 and bound <= SERIES_TOL * (1.0 - ratios[terms]):
                return terms
        return None

    def truncation_tail_mass(self) -> float:
        """Base-row mass beyond the retained states (0 for explicit kernels)."""
        if self.kind in _ZETA_POWER:
            return float(1.0 - _zeta_weights(self.kind, self.size).sum())
        return 0.0


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
    """The same kernel at every step: the table that lists no kernel."""
    return table_family((), kernel)


def table_family(kernels: Iterable[TruncatedKernel], limit: TruncatedKernel) -> KernelFamily:
    """The listed kernels at steps 1..len(kernels), the limit at every later
    step.  Listing none gives the constant family, which takes the band of a
    limit with identical rows (held as its one row, it skips the O(N^2) check)."""
    kernels = tuple(kernels)
    if any(k.size != limit.size for k in kernels):
        raise KernelValidationError("table kernels must share the limit's state count")
    struct = None
    if not kernels and limit.has_identical_rows():
        row = limit.rows[0]
        struct = _make_structure(row / row.sum(), np.zeros(limit.size))
    return KernelFamily("table" if kernels else "constant", limit.size, TailPolicy.LUMP, limit,
                        table=kernels, structure=struct)


# ---------------------------------------------------------------------------
# exact chain operations
# ---------------------------------------------------------------------------

def _check_sizes(family: KernelFamily, mu0: InitialDistribution,
                 obs: Observable | ObservableSet | None = None) -> None:
    """Refuse observables or a start law on another state count than the family's."""
    if obs is not None and obs.size != family.size:
        raise KernelValidationError("observable size does not match family")
    if mu0.size != family.size:
        raise KernelValidationError("initial distribution size does not match family")


def _propagation_steps(mu0: InitialDistribution, family: KernelFamily, n: int):
    """Yield (step, probs) for k = 1..n: the step operator P_k and the law of X_k."""
    _check_sizes(family, mu0)
    probs = mu0.probs
    for step in family.steps(n):
        probs = step.push(probs)
        yield step, probs


def propagate(mu0: InitialDistribution, family: KernelFamily, k: int) -> np.ndarray:
    """Exact law of X_k on 1..N, read-only (k vector-matrix products, never
    a full product matrix).  Mass below ``-MASS_TOL`` or a total off 1 by
    more than ``MASS_TOL`` raises, naming the step; the law is clipped to
    [0, 1]."""
    k = _count(k, "step count", 0)
    probs = mu0.probs
    for _, probs in _propagation_steps(mu0, family, k):
        pass
    if probs.min() < -MASS_TOL:
        raise KernelValidationError(f"negative mass at step {k}")
    err = abs(probs.sum() - 1.0)
    if err > MASS_TOL:
        raise KernelValidationError(f"mass deviates from 1 by {err} at step {k}")
    return _readonly(np.clip(probs, 0.0, 1.0))


def expected_sum(
    mu0: InitialDistribution,
    family: KernelFamily,
    f: Observable | ObservableSet,
    n: int | Sequence[int],
) -> float | np.ndarray:
    """E[f(X_1) + ... + f(X_n)] computed exactly; for an ObservableSet, the
    vector of every observable's total, each accumulated exactly as for that
    observable alone.  The totals are the running sums (one ``np.cumsum``)
    of ``expected_step_values``: on lump band families the band series, T
    terms fixed per family with at most 2^-60 times max |f| dropped per
    step, on the others step-by-step propagation (see there).

    With a horizon grid ``n`` (no repeats) one pass to the largest horizon
    serves them all: the result gains a leading axis of the running totals
    at each horizon in ascending order, each bit-identical to its
    one-horizon value.
    """
    grid = _horizon_grid(n, "horizons")
    obs = f if isinstance(f, ObservableSet) else ObservableSet((f,))
    steps = expected_step_values(mu0, family, obs, int(grid[-1]))
    totals = np.cumsum(steps, axis=0)[grid - 1]
    if np.ndim(n) == 0:
        return totals[0] if isinstance(f, ObservableSet) else float(totals[0, 0])
    return totals if isinstance(f, ObservableSet) else totals[:, 0]


def expected_step_values(
    mu0: InitialDistribution, family: KernelFamily, obs: ObservableSet, n: int
) -> np.ndarray:
    """(n, m) matrix of E[f_l(X_k)] for k = 1..n in one pass; n = 0 gives an
    empty (0, m) matrix.

    Lump band families (zeta2/zeta4 under ``lump``, constant families with
    identical rows) whose series bound closes within ``SERIES_MAX_TERMS``
    terms take ``_band_series``: T terms, with T fixed by the family (27 for
    zeta2 at alpha = 0.75, see ``KernelFamily._series_terms``), and at most
    ``SERIES_TOL`` = 2^-60 times max |f_l| dropped from each value.  The other
    families propagate the law step by step, each value ``probs @ f_l``.
    """
    n = _count(n, "step count", 0)
    _check_sizes(family, mu0, obs)
    if family._series_terms is not None:
        return _band_series(mu0, family, obs.value_matrix(), n)[1:]
    rows = [[float(probs @ o.values) for o in obs]  # each on its own
            for _, probs in _propagation_steps(mu0, family, n)]
    return np.array(rows).reshape(n, len(obs))
