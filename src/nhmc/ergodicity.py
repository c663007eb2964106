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

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .kernels import (
    KernelFamily,
    KernelValidationError,
    TruncatedKernel,
    _BandStep,
    _RankOneBand,
    _count,
    _horizon_grid,
    _readonly,
)

__all__ = [
    "ReducibleKernelError",
    "ConvergenceError",
    "ConvergenceCondition",
    "ConditionProfile",
    "StationaryVector",
    "dobrushin_delta",
    "delta_sequence",
    "condition_profile",
    "stationary",
]


class ReducibleKernelError(ValueError):
    """The kernel is not irreducible on the retained states."""


class ConvergenceError(RuntimeError):
    """The stationary solve failed its residual check."""


class ConvergenceCondition(str, Enum):
    CESARO_PRODUCT_AVERAGE = "cesaro_product_average"
    MEAN_KERNEL_DEVIATION = "mean_kernel_deviation"
    SCALED_DOBRUSHIN_SUM = "scaled_dobrushin_sum"


# ---------------------------------------------------------------------------
# norms and coefficients
# ---------------------------------------------------------------------------

def dobrushin_delta(P) -> float:
    """Contraction coefficient: sup over row pairs of the summed positive parts.

    The unconditional O(N^3) scan over row pairs; ``delta_sequence`` has the
    closed form for the built-in families.
    """
    rows = np.asarray(getattr(P, "rows", P), dtype=float)
    # rows have equal sums, so the positive-part sum is symmetric in (i, k)
    # and scanning unordered pairs suffices.
    best = 0.0
    n = rows.shape[0]
    for i in range(n - 1):
        diff = rows[i] - rows[i + 1 :]
        np.clip(diff, 0.0, None, out=diff)
        best = max(best, float(diff.sum(axis=1).max()))
    return best


def _band_delta(band: _RankOneBand, s: np.ndarray) -> np.ndarray:
    """delta(P_k) in closed form for the kernels of ``band`` at scales s >= 0.

    Rows i, j < N differ only in their bands, by ``s (pert_i + pert_j)`` in
    positive parts (adjacent rows too), so the two largest perts give the
    in-band maximum.  Row N is ``b + s x (b - e_N)`` with
    ``x = last / (1 - s last)``; against row i < N - 1 its positive parts are
    ``s x (1 - b_N)`` at column N plus ``s (pert_i - x b_{i+1})^+`` at column
    i+1, and against row N - 1 (at N = 2 the only one) the single part
    ``s (x (1 - b_N) + pert_{N-1})``, a line of slope 0.  Lump bands have x = 0.
    """
    b, pert = band.base_row, band.pert
    in_band = np.sort(pert)[-2:].sum()
    x = band.last / (1.0 - s * band.last)
    # lines pert_i - x b_{i+1} over i < N - 1, and pert_{N-1}: one whose higher
    # end over the range of x lies below another's lower end is never the largest
    icpt, slope = np.append(pert[:-2], pert[-2]), np.append(b[1:-1], 0.0)
    ends = icpt[:, None] - slope[:, None] * np.array([x.min(), x.max()])
    keep = ends.max(axis=1) >= ends.min(axis=1).max()
    beside = (icpt[keep] - np.multiply.outer(x, slope[keep])).max(axis=1)
    return s * np.maximum(in_band, x * (1.0 - b[-1]) + beside)


def _step_sequence(family: KernelFamily, k_max: int, band_form, dense) -> np.ndarray:
    """A per-step coefficient for k = 1..k_max: the closed form
    ``band_form(structure, s)`` for every family with the band.  Any other
    family applies ``dense`` once per listed kernel (``KernelFamily.listed_steps``)
    and once for the limit, whose value every later step repeats."""
    if family.structure is not None:
        return band_form(family.structure, family.perturbation_scale(np.arange(1, k_max + 1)))
    listed = family.listed_steps(k_max)
    out = np.empty(k_max)
    out[:listed] = [dense(family.kernel_at(k)) for k in range(1, listed + 1)]
    if listed < k_max:
        out[listed:] = dense(family.limit)
    return out


def delta_sequence(family: KernelFamily, k_max: int) -> np.ndarray:
    """delta(P_k) for k = 1..k_max.

    With the band (built-ins, identical-rows constants) each is a closed form
    in s(k) (``_band_delta``), O(N + k_max) in all; any other family runs the
    dense scan once per listed kernel and once for the limit.
    """
    return _step_sequence(family, _count(k_max, "k_max", 1), _band_delta, dobrushin_delta)


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
        if values.shape != grid.shape or not (values >= 0).all():
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
    """||a - b||: max over rows of the L1 distance."""
    return float(np.abs(a.rows - b.rows).sum(axis=1).max())


def _band_norm(band: _RankOneBand, s: np.ndarray) -> np.ndarray:
    """||P_k - P|| for the kernels of ``band`` at scales s >= 0: row i < N
    sits ``2 s pert_i`` from the base row that P repeats, and row N
    ``2 s x (1 - b_N)`` with ``x = last / (1 - s last)`` (see ``_band_delta``)."""
    last_row = 2.0 * band.last / (1.0 - s * band.last) * (1.0 - band.base_row[-1])
    return np.maximum(2.0 * float(band.pert.max()), last_row) * s


def _deviation_sequence(family: KernelFamily, k_max: int) -> np.ndarray:
    """||P_k - P|| for k = 1..k_max: ``_band_norm`` for the families with the
    band, and 0 past a table's listed kernels, where the step is the limit itself."""
    return _step_sequence(family, k_max, _band_norm,
                          lambda kernel: _kernel_distance(kernel, family.limit))


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


# The band Cesaro scan advances at most this many starting times together, so
# its working set does not grow with m_sup_range.
_CESARO_CHUNK = 16
# The band part c_t M_t of a structured product is carried while its norm
# bound max_m |c_t| ||B~_{m+1}||...||B~_{m+t}|| exceeds this; the terms after
# it go into error_bound.
_BAND_DROP = 2.0**-60


def _limit_sum(D: np.ndarray, u: int) -> np.ndarray:
    """``sum_{t=1}^u D^t`` by binary powering, high bit first: ``S_2v = S_v + D^v S_v``."""
    total, power = D.copy() if u else np.zeros_like(D), D
    for bit in bin(u)[3:]:  # past the leading bit (none for u = 0)
        total += power @ total
        power = power @ power
        if bit == "1":
            power = power @ D
            total += power
    return total


def _cesaro_gaps_closed(family: KernelFamily, m_sup_range: int, n_grid: np.ndarray,
                        pi: np.ndarray) -> np.ndarray:
    """gaps[m, g] = ||(1/n) sum_{t<=n} P^(m, m+t) - R|| for m <= min(m_sup_range, L)
    and n = n_grid[g].  Past the L listed kernels (``family.listed_steps``)
    every step is the limit P, so u limit steps sum to ``u R + sum_{t<=u} D^t``
    with D = P - R (``_limit_sum``), and every start m >= L has start L's gaps.
    The h = min(n, L - m) listed steps after m enter by Horner on the centred
    sum, ``E <- P_k (I + E) - R`` for k = m + h down to m + 1 (``P_k R = R``);
    each listed kernel is read once, and a few N x N arrays are held besides."""
    listed = family.listed_steps(m_sup_range + int(n_grid[-1]))
    kernels = [family.kernel_at(k) for k in range(1, listed + 1)]
    D = family.limit.rows - pi  # P - R: pi is every row of R
    gaps = np.empty((min(m_sup_range, listed) + 1, len(n_grid)))
    for g, n in enumerate(n_grid):
        for m in range(len(gaps)):  # no two starts share a tail u = n - h but u = 0
            h = min(n, listed - m)
            E = _limit_sum(D, n - h)
            for step in reversed(kernels[m : m + h]):
                E = step.apply_to_function(E + np.eye(family.size)) - pi
            gaps[m, g] = np.abs(E).sum(axis=1).max() / n
    return gaps


def _cesaro_gaps_band(family: KernelFamily, starts: np.ndarray, n_grid: np.ndarray,
                      pi: np.ndarray) -> tuple[np.ndarray, float]:
    """The gaps ``_cesaro_gaps_closed`` defines, at m = starts[i], for kernels
    ``1 b + s(k) B~_k``, in O(N) per step and start but for a renormalize band's last rows.

    Row N of ``B~_k`` is ``x_k (b - e_N)`` with ``x_k = last / (1 - s(k) last)``
    (see ``_band_delta``; 0 under lump) and every other row is B's, so the rows
    of ``B~_k`` sum to 0 and products are ``P^(m, m+t) = 1 r_t + c_t M_t``
    with ``r_1 = b``, ``r_{t+1} = r_t P_{m+t+1}``, ``c_t = s(m+1)...s(m+t)``
    and ``M_t = B~_{m+1}...B~_{m+t}``.  B moves mass one state up, so row i
    of M_t is ``(B^t)[i]`` while i + t < N: banded, ``(B^t)[i, i+d]`` for
    d = 0..t, and with ``v = (1/n) sum r_t - pi`` and ``C = (1/n) sum c_t M_t``
    row i's gap is ``||v||_1 + sum_d (|v_{i+d} + C[i, i+d]| - |v_{i+d}|)``.
    Under renormalize the last ``width + 1`` rows, which reach row N within
    the carried steps, are carried as a dense block of ``c_t M_t`` rows
    instead, with gaps ``||v + C[i]||_1``.  Terms are carried up to the last t
    where some start has ``c_t ||B~_{m+1}||...||B~_{m+t}||`` (products of
    ``_band_norm``) above ``_BAND_DROP``; the second value returned bounds what
    the later terms could add to any gap.
    """
    n_max = int(n_grid[-1])
    band, size = family.structure, family.size
    s = family.perturbation_scale(starts[:, None] + np.arange(1, n_max + 1))  # s(m+t)
    coef = np.cumprod(s, axis=1)  # c_t
    weight = np.cumprod(_band_norm(band, s), axis=1)
    above = np.nonzero(weight.max(axis=0) > _BAND_DROP)[0]
    width = int(above[-1]) + 1 if above.size else 0  # M_1..M_width are carried
    weight[:, :width] = 0.0
    dropped = np.cumsum(weight, axis=1)[:, n_grid - 1] / n_grid
    error_bound = float(dropped.max())

    cut = size - min(size, width + 1) if band.last else size  # rows cut.. go dense
    pert_at = sliding_window_view(np.pad(band.pert, (0, width)), width + 1)[:cut]  # pert[i+d]
    power = np.zeros((cut, width + 1))  # power[i, d] = (B^t)[i, i+d]
    power[:, 0] = 1.0
    band_sum = np.zeros((len(starts), cut, width + 1))  # sum_t c_t B^t
    block = np.tile(np.eye(size - cut, size, cut), (len(starts), 1, 1))  # c_t M_t on rows cut..
    block_sum = np.zeros_like(block)
    r = np.tile(band.base_row, (len(starts), 1))
    r_sum = np.zeros_like(r)
    grid_pos = {int(n): g for g, n in enumerate(n_grid)}
    gaps = np.zeros((len(starts), len(n_grid)))
    for t in range(1, n_max + 1):
        if t > 1:
            r = _BandStep(band, s[:, t - 1, None]).push(r)
        r_sum += r
        if t <= width:
            moved = power * pert_at
            power = -moved
            power[:, 1:] += moved[:, :-1]
            # one start at a time: no temporary of band_sum's (starts, cut, width + 1) shape
            for i, c in enumerate(coef[:, t - 1]):
                band_sum[i] += c * power
            # with mass 0 push drops the 1 b part: s B~ rows
            block = _BandStep(band, s[:, t - 1, None, None]).push(block, 0.0)
            block_sum += block
        if t in grid_pos:
            v = r_sum / t - pi
            v_at = sliding_window_view(np.pad(v, ((0, 0), (0, width))), width + 1, axis=1)[:, :cut]
            edge = np.abs(v[:, None] + block_sum / t).sum(axis=2)
            for i in range(len(starts)):  # per start, as band_sum is built
                change = np.abs(v_at[i] + band_sum[i] / t) - np.abs(v_at[i])
                gap = np.abs(v[i]).sum() + change.sum(axis=1)
                gaps[i, grid_pos[t]] = np.concatenate([gap, edge[i]]).max()
    return gaps, error_bound


def condition_profile(
    family: KernelFamily,
    condition: ConvergenceCondition | str,
    n_grid,
    m_sup_range: int = 200,
) -> ConditionProfile:
    """Evaluate one convergence-condition statistic along ``n_grid``.

    ``n_grid`` is sorted; an empty grid, a repeated entry or one below 1 is a
    ``KernelValidationError`` before any scan.  For every family with the
    rank-one-plus-band structure (built-ins, identical-rows constants) the
    Cesaro profile advances every start m <= ``m_sup_range`` step by step in
    O(N) per step and start, plus O(width * N) for the last rows of a
    renormalize band (the bound on its dropped terms in ``error_bound``), so
    it is meant for desk-scale grids; any other family takes a closed form in
    its listed kernels and its limit (``_cesaro_gaps_closed``).  The other two
    reduce to cumulative sums of per-step scalars: closed forms in s(k) with
    the band, and otherwise one dense evaluation per listed kernel plus one
    for the limit, so both handle grids up to millions of steps.
    """
    condition = ConvergenceCondition(condition)
    n_grid = _horizon_grid(n_grid, "n_grid")
    m_sup_range = _count(m_sup_range, "m_sup_range", 0)
    n_max = int(n_grid[-1])

    if condition == ConvergenceCondition.SCALED_DOBRUSHIN_SUM:
        cum = np.cumsum(delta_sequence(family, n_max))
        values = cum[n_grid - 1] / np.sqrt(n_grid)
        return ConditionProfile(condition, n_grid, values, 0)

    if condition == ConvergenceCondition.MEAN_KERNEL_DEVIATION:
        seq = _deviation_sequence(family, n_max + m_sup_range)
        values, argmax = _windowed_average_sup(seq, n_grid, m_sup_range)
        return ConditionProfile(condition, n_grid, values, m_sup_range, argmax)

    # Cesaro average of products: closed form, or the band scanned in chunks of starts
    pi = stationary(family.limit).pi
    if family.structure is None:
        gaps, error_bound = _cesaro_gaps_closed(family, m_sup_range, n_grid, pi), 0.0
    else:
        starts = np.arange(m_sup_range + 1)
        chunks = [_cesaro_gaps_band(family, starts[lo : lo + _CESARO_CHUNK], n_grid, pi)
                  for lo in range(0, m_sup_range + 1, _CESARO_CHUNK)]
        gaps = np.concatenate([gap for gap, _ in chunks])
        error_bound = max(bound for _, bound in chunks)
    # argmax keeps the first start that attains the sup, as a strict-> scan would
    return ConditionProfile(
        condition, n_grid, gaps.max(axis=0), m_sup_range, gaps.argmax(axis=0), error_bound
    )


# ---------------------------------------------------------------------------
# stationary vector
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StationaryVector:
    """Left fixed vector of a truncated kernel, with its fixed-point residual."""

    pi: np.ndarray
    residual: float

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        if not pi.min() >= 0:
            raise KernelValidationError("stationary vector has negative or NaN entries")
        if not abs(pi.sum() - 1.0) <= 1e-12:
            raise KernelValidationError("stationary vector does not sum to 1")
        if not self.residual <= 1e-10:
            raise KernelValidationError(f"stationary residual too large: {self.residual}")
        object.__setattr__(self, "pi", _readonly(pi))


def _reached(adj: np.ndarray) -> np.ndarray:
    """The states that state 1 reaches over the boolean adjacency ``adj``: a
    breadth-first search, one numpy pass per level."""
    reached = np.arange(adj.shape[0]) == 0
    frontier = reached
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~reached
        reached = reached | frontier
    return reached


def _check_irreducible(P: TruncatedKernel) -> None:
    """Raise unless state 1 reaches every state and every state reaches it.
    A kernel held as its one row b is checked in O(N): state 1 reaches j iff
    b_j > 0, and every state reaches state 1 iff b_1 > 0, else none does and
    state 2 comes first."""
    row = P._row
    if row is None:
        adj = P.rows > 0.0
        forward, back = _reached(adj), _reached(adj.T)
    else:
        forward = row > 0.0
        back = np.full(P.size, row[0] > 0.0)
        forward[0] = back[0] = True
    for reached, relation in ((forward, "is not reachable from"), (back, "cannot reach")):
        if not reached.all():  # argmin is the first unreached state
            raise ReducibleKernelError(
                f"kernel is reducible: state {reached.argmin() + 1} {relation} state 1"
            )


def stationary(P: TruncatedKernel) -> StationaryVector:
    """Stationary vector of an irreducible P, with its residual ``|pi P - pi|_1``.

    A kernel held as its one row b (every built-in limit) has pi = b / sum(b),
    which one O(N) push confirms.  Any other kernel takes one dense solve of
    pi P = pi with its last balance equation replaced by sum(pi) = 1, which
    irreducibility makes nonsingular (Kemeny & Snell, *Finite Markov Chains*,
    ch. 4).
    """
    _check_irreducible(P)
    if P._row is not None:
        x = P.push(P._row / P._row.sum())
    else:
        A = P.rows.T - np.eye(P.size)
        A[-1] = 1.0
        x = np.clip(np.linalg.solve(A, np.r_[np.zeros(P.size - 1), 1.0]), 0.0, None)
    x /= x.sum()
    residual = float(np.abs(P.push(x) - x).sum())
    if not residual <= 1e-10:
        raise ConvergenceError(f"stationary solve residual {residual} exceeds 1e-10")
    return StationaryVector(x, residual)
