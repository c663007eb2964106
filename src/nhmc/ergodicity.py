"""Ergodicity coefficients, stationary vectors, and convergence-condition profiles.

Three diagnostic profiles quantify how fast a time-varying family settles to
its limit kernel P (with R the constant-row matrix built from the stationary
vector of P):

* ``cesaro_product_average``: sup over starting times m <= M of
  ``|| (1/n) * sum_{t<=n} P^(m, m+t) - R ||``;
* ``mean_kernel_deviation``: sup over m <= M of ``(1/n) * sum_{k<=n} ||P_{k+m} - P||``;
* ``scaled_dobrushin_sum``: ``(1/sqrt(n)) * sum_{k<=n} delta(P_k)``.

The sup over all m >= 0 is replaced by a finite scan to M, which is recorded
alongside the values together with the observed argmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .kernels import (
    KernelFamily,
    KernelValidationError,
    TruncatedKernel,
    _BandStep,
    _RankOneBand,
    _readonly,
)

__all__ = [
    "ReducibleKernelError",
    "ConvergenceError",
    "ConvergenceCondition",
    "ConditionProfile",
    "StationaryVector",
    "sup_row_norm",
    "dobrushin_delta",
    "delta_sequence",
    "condition_profile",
    "stationary",
    "period",
    "strong_ergodicity_profile",
]


BAND_HALF_WIDTH = 1  # built-in rows differ from the base row only next to their own index
STATIONARY_TOL = 1e-12
STATIONARY_SWEEPS = 5000  # power-iteration sweeps before the linear-solve fallback


class ReducibleKernelError(ValueError):
    """The kernel is not irreducible on the retained states."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


class ConvergenceCondition(str, Enum):
    CESARO_PRODUCT_AVERAGE = "cesaro_product_average"
    MEAN_KERNEL_DEVIATION = "mean_kernel_deviation"
    SCALED_DOBRUSHIN_SUM = "scaled_dobrushin_sum"


# ---------------------------------------------------------------------------
# norms and coefficients
# ---------------------------------------------------------------------------

def _as_matrix_with_tail(A) -> np.ndarray:
    """Kernel -> rows with the tail appended as an extra column; arrays pass through."""
    if isinstance(A, TruncatedKernel):
        if A.is_stochastic:
            return A.rows
        return np.hstack([A.rows, A.tail_mass[:, None]])
    return np.asarray(A, dtype=float)


def sup_row_norm(A) -> float:
    """Max over rows of the L1 row sum; accepts a matrix or a TruncatedKernel."""
    M = _as_matrix_with_tail(A)
    if M.size == 0:
        return 0.0
    return float(np.abs(M).sum(axis=1).max())


def _delta_dense(rows: np.ndarray) -> float:
    # rows have equal sums, so the positive-part sum is symmetric in (i, k)
    # and scanning unordered pairs suffices.
    best = 0.0
    n = rows.shape[0]
    for i in range(n - 1):
        diff = rows[i] - rows[i + 1 :]
        np.clip(diff, 0.0, None, out=diff)
        best = max(best, float(diff.sum(axis=1).max()))
    return best


def _delta_banded(rows: np.ndarray) -> float:
    """Positive-part scan restricted to the rows' bands.

    Precondition: every row equals a shared base row outside its own band of
    half-width ``BAND_HALF_WIDTH``.  Pairs whose bands may interact (adjacent
    bands, or bands touching the last column, where lumped kernels deviate)
    fall back to full-row differences.
    """
    n = rows.shape[0]
    bw = BAND_HALF_WIDTH
    near_margin = 2 * bw + 1
    best = 0.0
    idx = np.arange(n)
    for i in range(n - 1):
        far_lo = i + near_margin + 1
        far_hi = n - near_margin - 1  # rows beyond may own the last column
        # near pairs: full-row positive parts
        near = [j for j in range(i + 1, min(far_lo, n))]
        near += [j for j in range(max(far_hi + 1, i + 1), n)]
        for j in near:
            d = rows[i] - rows[j]
            best = max(best, float(d[d > 0].sum()))
        if i >= far_hi:
            continue
        js = idx[far_lo : far_hi + 1]
        if js.size == 0:
            continue
        cols_i = np.arange(max(i - bw, 0), min(i + bw, n - 1) + 1)
        di = rows[i, cols_i][None, :] - rows[js][:, cols_i]
        cols_j = js[:, None] + np.arange(-bw, bw + 1)[None, :]
        cols_j = np.clip(cols_j, 0, n - 1)
        dj = rows[i][cols_j] - np.take_along_axis(rows[js], cols_j, axis=1)
        total = np.clip(di, 0.0, None).sum(axis=1) + np.clip(dj, 0.0, None).sum(axis=1)
        best = max(best, float(total.max()))
    return best


def dobrushin_delta(P, method: str = "dense") -> float:
    """Contraction coefficient: sup over row pairs of the summed positive parts.

    ``method="banded"`` is an O(N^2) shortcut valid when rows pairwise agree
    outside bands of half-width ``BAND_HALF_WIDTH`` around their own index
    (true for the built-in families); ``"dense"`` is the unconditional O(N^3)
    scan.
    """
    if isinstance(P, TruncatedKernel):
        rows = _as_matrix_with_tail(P)
    else:
        rows = np.asarray(P, dtype=float)
    if method == "dense":
        return _delta_dense(rows)
    if method == "banded":
        return _delta_banded(rows)
    raise ValueError(f"unknown method {method!r}")


def _band_delta(band: _RankOneBand, s: np.ndarray) -> np.ndarray:
    """delta(P_k) in closed form for the kernels of ``band`` at scales s >= 0.

    Rows i, j < N differ only in their bands, by ``s (pert_i + pert_j)`` in
    positive parts (adjacent rows too), so the two largest perts give the
    in-band maximum.  Row N is ``b + s x (b - e_N)`` with
    ``x = last / (1 - s last)``; against row i < N - 1 its positive parts are
    ``s x (1 - b_N)`` at column N plus ``s (pert_i - x b_{i+1})^+`` at column
    i+1, and against row N - 1, whose band ends in column N, the single part
    ``s (x (1 - b_N) + pert_{N-1})``.  Lump bands have x = 0.
    """
    b, pert = band.base_row, band.pert
    in_band = np.sort(pert)[-2:].sum()
    x = band.last / (1.0 - s * band.last)
    # lines pert_i - x b_{i+1} over i < N - 1: one whose higher end over the
    # range of x lies below another's lower end is never the largest
    icpt, slope = pert[:-2], b[1:-1]
    ends = icpt[:, None] - slope[:, None] * np.array([x.min(), x.max()])
    keep = ends.max(axis=1) >= ends.min(axis=1).max()
    beside = (icpt[keep] - np.multiply.outer(x, slope[keep])).max(axis=1)
    return s * np.maximum(in_band, x * (1.0 - b[-1]) + np.maximum(beside, pert[-2]))


def delta_sequence(family: KernelFamily, k_max: int) -> np.ndarray:
    """delta(P_k) for k = 1..k_max.

    Constant families are constant.  For the built-in families, under either
    tail policy, each delta(P_k) is a closed form in s(k) and the band
    structure (``_band_delta``), O(N + k_max) in all; anything else is
    evaluated kernel by kernel with the dense scan.
    """
    if k_max < 1:
        raise KernelValidationError("k_max must be >= 1")
    if family.kind == "constant":
        return np.full(k_max, dobrushin_delta(family.limit, method="dense"))
    if family.structure is not None:
        return _band_delta(family.structure, family.perturbation_scale(np.arange(1, k_max + 1)))
    return np.array(
        [dobrushin_delta(family.kernel_at(k), method="dense") for k in range(1, k_max + 1)]
    )


# ---------------------------------------------------------------------------
# condition profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConditionProfile:
    """Values of one convergence-condition statistic along an n grid.

    ``error_bound`` bounds how far any value may lie from the statistic because
    of terms the computation dropped (0 when none were dropped).
    """

    condition: ConvergenceCondition
    n_grid: np.ndarray
    values: np.ndarray
    m_sup_range: int
    m_argmax: np.ndarray | None = None
    error_bound: float = 0.0

    def __post_init__(self):
        grid = np.asarray(self.n_grid, dtype=np.int64)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0):
            raise KernelValidationError("n_grid must be strictly increasing and nonempty")
        if np.any(grid < 1):
            raise KernelValidationError("n_grid entries must be >= 1")
        if values.shape != grid.shape or np.any(values < 0):
            raise KernelValidationError("values must be nonnegative, one per n")
        if not self.error_bound >= 0.0:
            raise KernelValidationError("error_bound must be nonnegative")
        object.__setattr__(self, "n_grid", _readonly(grid).astype(np.int64))
        object.__setattr__(self, "values", _readonly(values))

    def csv_rows(self):
        """Rows in the frozen CSV order (condition_id, n, m_sup_range, value)."""
        for n, v in zip(self.n_grid, self.values):
            yield (self.condition.value, int(n), self.m_sup_range, float(v))


def _kernel_distance(a: TruncatedKernel, b: TruncatedKernel) -> float:
    """||a - b||: max over rows of the L1 distance, tail masses included."""
    gap = np.abs(a.rows - b.rows).sum(axis=1) + np.abs(a.tail_mass - b.tail_mass)
    return float(gap.max())


def _deviation_sequence(family: KernelFamily, k_max: int) -> np.ndarray:
    """||P_k - P|| for k = 1..k_max.

    For the built-in families row i < N sits ``2 s(k) pert_i`` from the base
    row that P repeats, and row N ``2 s(k) x (1 - b_N)`` with
    ``x = last / (1 - s(k) last)`` (see ``_band_delta``).
    """
    if family.structure is not None:
        band = family.structure
        scales = family.perturbation_scale(np.arange(1, k_max + 1))
        last_row = 2.0 * band.last / (1.0 - scales * band.last) * (1.0 - band.base_row[-1])
        return np.maximum(2.0 * float(band.pert.max()), last_row) * scales
    out = np.zeros(k_max)
    if family.kind == "constant":
        return out
    if family.kind == "table":
        k_max = min(k_max, len(family.table))  # later steps use the limit itself
    for k in range(1, k_max + 1):
        out[k - 1] = _kernel_distance(family.kernel_at(k), family.limit)
    return out


def _windowed_average_sup(seq: np.ndarray, n_grid: np.ndarray, m_range: int):
    """max over 0 <= m <= M of (1/n) * sum_{k=1}^{n} seq[k+m], per grid n."""
    cum = np.concatenate(([0.0], np.cumsum(seq)))
    values = np.empty(len(n_grid))
    argmax = np.empty(len(n_grid), dtype=np.int64)
    ms = np.arange(m_range + 1)
    for out, n in enumerate(n_grid):
        window = (cum[ms + n] - cum[ms]) / n
        argmax[out] = int(np.argmax(window))
        values[out] = float(window[argmax[out]])
    return values, argmax


# The Cesaro scan advances at most this many starting times together, so its
# working set does not grow with m_sup_range.
_CESARO_CHUNK = 16
# The band part c_t B^t of a structured product is carried while
# max_m |c_t| ||B||^t exceeds this; the terms after it go into error_bound.
_BAND_DROP = 2.0**-60


def _cesaro_gaps_dense(family: KernelFamily, starts: np.ndarray, n_grid: np.ndarray,
                       pi: np.ndarray) -> np.ndarray:
    """gaps[i, g] = ||(1/n) sum_{t<=n} P^(m, m+t) - R|| for m = starts[i], n = n_grid[g].

    Row stacks are pushed through the step operators with k outer, so each
    P_k serves every start it reaches.
    """
    n_max = int(n_grid[-1])
    size = family.size
    R = np.tile(pi, (size, 1))
    rows = [np.eye(size) for _ in starts]
    tail = [np.zeros(size) for _ in starts]
    running = [np.zeros_like(R) for _ in starts]
    running_tail = [np.zeros(size) for _ in starts]
    grid_pos = {int(n): g for g, n in enumerate(n_grid)}
    gaps = np.zeros((len(starts), len(n_grid)))
    for k, step in enumerate(family.steps(int(starts[-1]) + n_max), start=1):
        for i, m in enumerate(starts):
            t = k - int(m)
            if not 1 <= t <= n_max:
                continue
            rows[i], tail[i] = step.push(rows[i], tail[i])
            running[i] += rows[i]
            running_tail[i] += tail[i]
            if t in grid_pos:
                gap = np.abs(running[i] / t - R).sum(axis=1) + running_tail[i] / t
                gaps[i, grid_pos[t]] = float(gap.max())
    return gaps


def _cesaro_gaps_band(family: KernelFamily, starts: np.ndarray, n_grid: np.ndarray,
                      pi: np.ndarray) -> tuple[np.ndarray, float]:
    """The dense scan's gaps for kernels ``1 b + s(k) B``, in O(N) per step and start.

    Products are ``P^(m, m+t) = 1 r_t + c_t B^t`` with ``r_1 = b``,
    ``r_{t+1} = b + s(m+t+1) r_t B`` and ``c_t = s(m+1)...s(m+t)``.  B^t is
    banded, ``(B^t)[i, i+d]`` for d = 0..t, so with ``v = (1/n) sum r_t - pi``
    and ``C = (1/n) sum c_t B^t`` row i's gap is
    ``||v||_1 + sum_d (|v_{i+d} + C[i, i+d]| - |v_{i+d}|)``.  The powers are
    carried up to the last t where some start has ``|c_t| ||B||^t`` above
    ``_BAND_DROP``; the second value returned bounds what the later terms
    could add to any gap.  The tail never enters: these kernels are stochastic.
    """
    n_max = int(n_grid[-1])
    band = family.structure
    s = family.perturbation_scale(starts[:, None] + np.arange(1, n_max + 1))  # s(m+t)
    coef = np.cumprod(s, axis=1)  # c_t
    weight = np.cumprod(np.abs(s) * (2.0 * float(band.pert.max())), axis=1)
    above = np.nonzero(weight.max(axis=0) > _BAND_DROP)[0]
    width = int(above[-1]) + 1 if above.size else 0  # B^1..B^width are carried
    weight[:, :width] = 0.0
    dropped = np.cumsum(weight, axis=1)[:, n_grid - 1] / n_grid
    error_bound = float(dropped.max())

    pert_at = sliding_window_view(np.pad(band.pert, (0, width)), width + 1)  # pert[i+d]
    power = np.zeros((family.size, width + 1))  # power[i, d] = (B^t)[i, i+d]
    power[:, 0] = 1.0
    band_sum = np.zeros((len(starts), family.size, width + 1))  # sum_t c_t B^t
    r = np.tile(band.base_row, (len(starts), 1))
    r_sum = np.zeros_like(r)
    grid_pos = {int(n): g for g, n in enumerate(n_grid)}
    gaps = np.zeros((len(starts), len(n_grid)))
    for t in range(1, n_max + 1):
        if t > 1:
            r, _ = _BandStep(band, s[:, t - 1, None]).push(r, 0.0)
        r_sum += r
        if t <= width:
            moved = power * pert_at
            power = -moved
            power[:, 1:] += moved[:, :-1]
            band_sum += coef[:, t - 1, None, None] * power
        if t in grid_pos:
            v = r_sum / t - pi
            v_at = sliding_window_view(np.pad(v, ((0, 0), (0, width))), width + 1, axis=1)
            change = np.abs(v_at + band_sum / t) - np.abs(v_at)
            gap = np.abs(v).sum(axis=1)[:, None] + change.sum(axis=2)
            gaps[:, grid_pos[t]] = gap.max(axis=1)
    return gaps, error_bound


def condition_profile(
    family: KernelFamily,
    condition: ConvergenceCondition | str,
    n_grid,
    m_sup_range: int = 200,
) -> ConditionProfile:
    """Evaluate one convergence-condition statistic along ``n_grid``.

    The Cesaro profile advances every start m <= ``m_sup_range`` step by
    step: in O(N) per step for the lump-policy built-ins and identical-rows
    constant families (with the bound on its dropped band terms in
    ``error_bound``), otherwise as row stacks pushed through
    ``KernelFamily.steps`` (O(N^2) per step for renormalize built-ins, dense
    products for the rest), so it is meant for desk-scale grids.  The other
    two reduce to cumulative sums of per-step scalars, closed forms in s(k)
    for the built-in families under either tail policy, and handle grids up
    to millions of steps there.
    """
    condition = ConvergenceCondition(condition)
    n_grid = np.asarray(sorted(int(n) for n in np.atleast_1d(n_grid)), dtype=np.int64)
    if n_grid.size == 0:
        raise KernelValidationError("n_grid must be nonempty")
    if m_sup_range < 0:
        raise KernelValidationError("m_sup_range must be >= 0")
    n_max = int(n_grid[-1])

    if condition == ConvergenceCondition.SCALED_DOBRUSHIN_SUM:
        cum = np.cumsum(delta_sequence(family, n_max))
        values = cum[n_grid - 1] / np.sqrt(n_grid)
        return ConditionProfile(condition, n_grid, values, 0)

    if condition == ConvergenceCondition.MEAN_KERNEL_DEVIATION:
        seq = _deviation_sequence(family, n_max + m_sup_range)
        values, argmax = _windowed_average_sup(seq, n_grid, m_sup_range)
        return ConditionProfile(condition, n_grid, values, m_sup_range, argmax)

    # Cesaro average of products, scanned over starting times in chunks
    pi = stationary(family.limit).pi
    gaps, error_bound = [], 0.0
    for lo in range(0, m_sup_range + 1, _CESARO_CHUNK):
        starts = np.arange(lo, min(lo + _CESARO_CHUNK, m_sup_range + 1))
        if family.structure is not None and not family.structure.last:
            chunk, bound = _cesaro_gaps_band(family, starts, n_grid, pi)
            error_bound = max(error_bound, bound)
        else:
            chunk = _cesaro_gaps_dense(family, starts, n_grid, pi)
        gaps.append(chunk)
    gaps = np.concatenate(gaps)
    # argmax keeps the first start that attains the sup, as a strict-> scan would
    return ConditionProfile(
        condition, n_grid, gaps.max(axis=0), m_sup_range, gaps.argmax(axis=0), error_bound
    )


# ---------------------------------------------------------------------------
# stationary vector and period
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StationaryVector:
    """Left fixed vector of a truncated kernel, with its fixed-point residual."""

    pi: np.ndarray
    residual: float

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        if pi.min() < 0:
            raise KernelValidationError("stationary vector has negative entries")
        if abs(pi.sum() - 1.0) > 1e-12:
            raise KernelValidationError("stationary vector does not sum to 1")
        if self.residual > 1e-10:
            raise KernelValidationError(f"stationary residual too large: {self.residual}")
        object.__setattr__(self, "pi", _readonly(pi))


def _check_irreducible(P: TruncatedKernel) -> None:
    graph = csr_matrix(P.rows > 0.0)
    n_comp, _ = connected_components(graph, directed=True, connection="strong")
    if n_comp != 1:
        raise ReducibleKernelError(
            f"kernel is reducible: {n_comp} strongly connected components"
        )


def stationary(P: TruncatedKernel) -> StationaryVector:
    """Stationary vector of P: power iteration with a dense linear-solve fallback.

    Power iteration runs on the transpose with L1 normalization and stops when
    successive iterates agree within ``STATIONARY_TOL``; if it has not
    converged after ``STATIONARY_SWEEPS`` sweeps the fixed point is computed
    by solving (P^T - I) pi = 0 with a normalization row.
    """
    if not P.is_stochastic:
        raise KernelValidationError("stationary vector requires a stochastic kernel")
    _check_irreducible(P)
    n = P.size
    x = np.full(n, 1.0 / n)
    for _ in range(STATIONARY_SWEEPS):
        y = x @ P.rows
        y /= y.sum()
        if np.abs(y - x).sum() <= STATIONARY_TOL:
            x = y
            break
        x = y
    else:
        A = np.vstack([P.rows.T - np.eye(n), np.ones((1, n))])
        b = np.zeros(n + 1)
        b[-1] = 1.0
        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        x = np.clip(x, 0.0, None)
        x /= x.sum()
    residual = float(np.abs(x @ P.rows - x).sum())
    if residual > 1e-10:
        raise ConvergenceError(f"stationary solve residual {residual} exceeds 1e-10")
    return StationaryVector(x, residual)


def period(P: TruncatedKernel) -> int:
    """gcd of directed-cycle lengths through the chain, via BFS level labels."""
    _check_irreducible(P)
    n = P.size
    adj = [np.nonzero(P.rows[i] > 0.0)[0] for i in range(n)]
    level = np.full(n, -1, dtype=np.int64)
    level[0] = 0
    queue = [0]
    d = 0
    while queue:
        nxt = []
        for u in queue:
            for v in adj[u]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(int(v))
                else:
                    d = math.gcd(d, int(level[u] + 1 - level[v]))
        queue = nxt
    return d if d > 0 else 1


def strong_ergodicity_profile(
    P: TruncatedKernel, k_grid, pi: np.ndarray | None = None
) -> np.ndarray:
    """||P^k - R|| per k in k_grid, where R has every row equal to pi.

    Decay to 0 indicates strong ergodicity; a flat profile flags its failure
    (pass ``pi`` explicitly for kernels whose stationary vector cannot be
    computed, e.g. reducible ones under study).
    """
    k_grid = np.asarray(sorted(int(k) for k in np.atleast_1d(k_grid)), dtype=np.int64)
    if np.any(k_grid < 1):
        raise KernelValidationError("k_grid entries must be >= 1")
    if pi is None:
        pi = stationary(P).pi
    R = np.tile(np.asarray(pi, dtype=float), (P.size, 1))
    out = np.empty(len(k_grid))
    power = np.eye(P.size)
    tail = np.zeros(P.size)
    pos = 0
    for k in range(1, int(k_grid[-1]) + 1):
        power, tail = P.push(power, tail)
        if k == k_grid[pos]:
            out[pos] = float((np.abs(power - R).sum(axis=1) + tail).max())
            pos += 1
            if pos == len(k_grid):
                break
    return out
