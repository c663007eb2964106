"""Exact distribution of S_n = f(X_1) + ... + f(X_n) for integer-valued f.

A forward dynamic program over (step, state, partial sum) yields the law of
S_n.  The raw table has N * (n * range + 1) cells, which is infeasible for
long horizons, so the DP first merges states that are provably
interchangeable: for the lump-policy built-in families every step-k kernel is
``base_row + s(k) * B`` with B a fixed band matrix, so two states can be
merged whenever they share an f value and inject identical B-coefficients
into every class of the partition.  The coarsest such partition is found by
signature refinement; it is exact (no approximation).

On the merged path each step is one small class-level matrix
``A_k = base 1^T + s(k) C^T``.  The classes come sorted by f value, so each
value group is a row block whose product lands in one shifted slice of the
next table.  Other families (renormalize, tables) run on the raw states
1..N: each step pushes the partial-sum columns through
``KernelFamily.steps`` as a stack of laws, each with its own total as its
mass, and scatters them by state value.  Either way one sweep walks only the window of
partial sums that still hold mass: at the window's edges it drops the
columns whose total is below the smallest normal float, whose subnormal
arithmetic would otherwise dominate the sweep, and reports their total as
``SumDistribution.dropped_mass``.  That is an absolute error bound on the
pmf and on every tail probability (below 1e-303 up to n = 5e4 on the
merged built-ins), and the result's mean is cross-checked against the
exact expectation ``expected_sum`` (the band series on lump band families,
propagation on the others).

A step is a few numpy calls: the sweep clears only the window's margins
that the group products leave, and sums each edge column as Python floats in
row order (numpy's own sum below 8 rows, as on every merged built-in; on the
raw states ``dropped_mass`` can differ from numpy's sum in its last bits).
The merged path builds ``A_k`` up to 32 steps at a time and hands each to
``matmul`` as a contiguous array of its own: ``matmul``'s bits can depend on
its operand's layout.

A horizon grid is served by one sweep to its largest horizon: each time the
sweep reaches a horizon h it copies the live window into a pmf of
h * range + 1 cells (a snapshot, with the mass dropped so far), and every
snapshot's mean is checked against one pass of ``expected_sum`` read off at
each horizon.  Each snapshot is bit-identical to a one-horizon DP to h.

The DP holds two float64 tables of classes x (n * range + 1) cells for the
largest horizon n, and the raw-state step two more tables' worth of work
arrays, the n step scales (a chunk of ``A_k`` holds no more cells than they
do, or one ``A_k``), and the snapshots of the earlier horizons (the last one
is taken once the second table is released); the cell budget counts those
cells and is checked before anything of their size is allocated or any step
runs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .kernels import (
    InitialDistribution,
    KernelFamily,
    KernelValidationError,
    Observable,
    _Horizons,
    _check_sizes,
    _readonly,
    expected_sum,
)

__all__ = [
    "SumDistribution",
    "exact_sum_distribution",
    "DP_CELL_BUDGET",
    "DPConsistencyError",
]

DP_CELL_BUDGET = 250_000_000  # float64 cells the DP holds at its peak: 2 GB


class DPConsistencyError(RuntimeError):
    """The DP's mean disagrees with the exact expectation."""


@dataclass(frozen=True, eq=False)
class SumDistribution:
    """Probability mass function of an integer-valued additive functional.

    ``mean`` is the pmf's mean and ``expected`` the exact expectation
    E S_n it was checked against.  ``dropped_mass`` is the total mass the DP
    dropped below the smallest normal float at its window's edges, merged or
    on the raw states: every pmf entry and every ``tail_probability`` is
    exact up to float rounding and this absolute error.
    """

    n: int
    support_offset: int
    pmf: np.ndarray
    mean: float
    expected: float
    dropped_mass: float = 0.0

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=float)
        if not pmf.min() >= -1e-12:
            raise KernelValidationError(f"pmf has negative or NaN mass {pmf.min()}")
        total = pmf.sum()
        if not abs(total - 1.0) <= 1e-9:
            raise KernelValidationError(f"pmf sums to {total}, not 1 within 1e-9")
        object.__setattr__(self, "pmf", _readonly(np.clip(pmf, 0.0, None)))

    def tail_probability(self, threshold: float) -> float:
        """P(S_n >= threshold), with a 1e-9 guard against float thresholds;
        1.0 at -inf and 0.0 at +inf."""
        if np.isinf(threshold):
            return float(threshold < 0)
        lo = int(np.ceil(threshold - 1e-9)) - self.support_offset
        if lo <= 0:
            return 1.0
        if lo >= self.pmf.size:
            return 0.0
        return float(self.pmf[lo:].sum())


# ---------------------------------------------------------------------------
# exact state merging for the structured families
# ---------------------------------------------------------------------------

def _lumped_chain(family: KernelFamily, mu0: InitialDistribution, f: Observable):
    """The DP's inputs on the coarsest partition of the states it may use in place of 1..N.

    Valid merge criterion: states in one class share the f value, and move
    identical perturbation mass into every class.  Returns ``fixed`` and
    ``coeff_t`` with the class-level step matrix ``A_k = fixed + s(k) *
    coeff_t`` (column c holds where a unit of class-c mass goes), the class f
    values in ascending order, and the class start law; or None when the
    family carries no rank-one-plus-band structure or replaces its last row
    (renormalize).
    """
    struct = family.structure
    if struct is None or struct.last:
        return None
    n = family.size
    _, labels = np.unique(np.round(f.values).astype(np.int64), return_inverse=True)
    while True:
        m = labels.max() + 1
        chi = np.zeros((n, m))
        chi[np.arange(n), labels] = 1.0
        chi_next = np.vstack([chi[1:], chi[-1:]])  # pert[-1] == 0 makes the pad irrelevant
        coeff = struct.pert[:, None] * (chi_next - chi)  # constant within final classes
        # labels lead the signature, so classes stay sorted by f value
        sig = np.concatenate([labels[:, None].astype(float), coeff], axis=1)
        _, new_labels = np.unique(sig, axis=0, return_inverse=True)
        if new_labels.max() + 1 == m:
            break
        labels = new_labels
    first = np.unique(labels, return_index=True)[1]  # one member per class
    base = np.zeros(m)
    np.add.at(base, labels, struct.base_row)
    start = np.zeros(m)
    np.add.at(start, labels, mu0.probs)
    fixed = np.repeat(base[:, None], m, axis=1)
    coeff_t = coeff[first].T
    values = np.round(f.values[first]).astype(np.int64)
    return fixed, coeff_t, values, start


def _window_sweep(start, width, groups, steps, write, stops):
    """The DP's steps from the start column over the live window ``[lo, hi)``
    of partial sums: ``write(step, sub, nxt, lo, groups)`` sends the live
    columns ``sub`` into ``nxt``, the rows of each ``(value, rows)`` group
    shifted by that value, so group g fills ``[lo + g, hi + g)`` of its rows
    and the sweep clears only the margins ``[lo, lo + g)`` and
    ``[hi + g, hi + range)``.  An edge column whose total, summed as Python
    floats in row order, is below the smallest normal float is dropped.
    After each step count in ``stops`` (ascending) it yields that count, the
    table, its window and the mass dropped so far at the window's edges; the
    tables are released when the sweep ends."""
    cur = np.zeros((start.size, width))
    cur[:, 0] = start
    nxt = np.zeros_like(cur)
    tiny = np.finfo(float).tiny
    vrange = max(g for g, _ in groups)
    lo, hi, dropped = 0, 1, 0.0
    stops = iter(stops)
    stop = next(stops)
    for k, step in enumerate(steps, 1):
        for g, rows in groups:  # the product fills [lo + g, hi + g) of its rows
            if g:
                nxt[rows, lo:lo + g] = 0.0
            if g < vrange:
                nxt[rows, hi + g:hi + vrange] = 0.0
        write(step, cur[:, lo:hi], nxt, lo, groups)
        hi += vrange
        while hi - lo > 1 and (edge := sum(nxt[:, lo].tolist())) < tiny:
            dropped += edge
            lo += 1
        while hi - lo > 1 and (edge := sum(nxt[:, hi - 1].tolist())) < tiny:
            dropped += edge
            hi -= 1
        cur, nxt = nxt, cur
        if k == stop:
            stop = next(stops, None)
            if stop is None:  # the last snapshot needs the current table alone
                nxt = None
            yield k, cur, lo, hi, dropped


def _write_classes(step, sub, nxt, lo, groups):
    """One merged step ``A_k``: each value group is a row block whose
    product lands straight in its shifted slice."""
    for g, rows in groups:
        np.matmul(step[rows], sub, out=nxt[rows, lo + g:lo + g + sub.shape[1]])


def _raw_step(sub: np.ndarray, op) -> np.ndarray:
    """One raw-state step of the partial-sum columns ``sub`` through ``op``,
    before the shift by each state's value: the columns are pushed as a stack
    of laws, each with its own total as the mass a band step puts on the
    base row.  Its work arrays die on return."""
    return op.push(sub.T, sub.sum(axis=0)).T


def _write_states(op, sub, nxt, lo, groups):
    """One raw-state step through the operator ``op``, scattered by state value."""
    mass = _raw_step(sub, op)
    for g, rows in groups:
        nxt[rows, lo + g:lo + g + sub.shape[1]] = mass[rows]


def exact_sum_distribution(
    mu0: InitialDistribution,
    family: KernelFamily,
    f: Observable,
    n: int | Sequence[int],
) -> SumDistribution | list[SumDistribution]:
    """Exact pmf of S_n by forward DP over the live window of partial sums.

    With a horizon grid ``n`` (read by ``_horizon_grid``: horizons >= 1,
    no repeats) the result is a list of SumDistribution, one per horizon in
    ascending order, from one sweep to the largest horizon: each is a
    snapshot of the sweep as it reaches its horizon, with the mass dropped up
    to that step, and every mean is checked against one pass of
    ``expected_sum`` read off at each horizon.  Each entry equals the one-horizon call bit for bit.

    Raises KernelValidationError, before allocating anything of the DP's
    size or running any step, when its float64 cells exceed
    ``DP_CELL_BUDGET``, read at each call: two tables of classes x
    (n * range + 1) cells for the largest horizon n (on the raw states two
    more tables' worth of per-step work arrays), the n step scales, and the
    snapshot pmfs of h * range + 1 cells of each earlier horizon h (the last
    pmf is made once the second table is released).  Raises
    DPConsistencyError, naming the horizon, when a DP mean disagrees with
    the exact expectation.
    """
    grid = _Horizons(n, "horizons")
    n_max = int(grid)
    if not f.is_integer_valued():
        raise KernelValidationError("exact DP requires an integer-valued observable")
    _check_sizes(family, mu0, f)

    lumped = _lumped_chain(family, mu0, f)
    if lumped is not None:
        fixed, coeff_t, values, start = lumped
    else:
        values, start = np.round(f.values).astype(np.int64), mu0.probs
    m = values.size
    vmin = int(values.min())
    vrange = int(values.max()) - vmin
    width = n_max * vrange + 1
    # a raw step also holds two more tables at once (the push's work array
    # and its result); n more cells hold the step scales, and the earlier
    # horizons' pmfs wait beside the tables
    tables = 2 if lumped is not None else 4
    snapshots = sum(h * vrange + 1 for h in grid[:-1])
    cells = tables * m * width + n_max + snapshots
    if cells > DP_CELL_BUDGET:
        raise KernelValidationError(
            f"DP budget exceeded at n={n_max}: {tables} tables x {m} states x {width} "
            f"partial sums + {n_max} step scales + {snapshots} snapshot cells "
            f"= {cells} cells > {DP_CELL_BUDGET}"
        )

    rel = values - vmin
    if lumped is not None:
        cuts = np.r_[0, np.flatnonzero(np.diff(rel)) + 1, m]
        groups = [(int(rel[a]), slice(a, b)) for a, b in zip(cuts[:-1], cuts[1:])]
        scales = family.perturbation_scale(np.arange(1, n_max + 1))
        # A_k by the chunk, in no more cells than the scales; each A_k is
        # copied out, since matmul's bits can depend on its operand's layout
        chunk = max(1, min(32, n_max // m**2))
        steps = (a.copy() for i in range(0, n_max, chunk)
                 for a in fixed + scales[i:i + chunk, None, None] * coeff_t)
        write = _write_classes
    else:
        groups = [(int(g), rel == g) for g in np.unique(rel)]
        steps, write = family.steps(n_max), _write_states
    snaps = []
    for h, table, lo, hi, dropped in _window_sweep(start, width, groups, steps, write, grid):
        pmf = np.zeros(h * vrange + 1)
        pmf[lo:hi] = table[:, lo:hi].sum(axis=0)
        snaps.append((pmf, dropped))
    del table  # the sweep has ended: the pmfs' post-processing fits in the tables' memory

    expected = expected_sum(mu0, family, f, grid)
    dists = []
    for h, e, (pmf, dropped) in zip(grid, expected.tolist(), snaps):
        offset = h * vmin
        mean = float(pmf @ (offset + np.arange(pmf.size)))
        # the DP accumulates O(n * eps) relative rounding in the pmf mass itself
        tol = max(1e-8, 64 * np.finfo(float).eps * h * max(1.0, abs(e)))
        if abs(mean - e) > tol:
            raise DPConsistencyError(
                f"DP mean {mean} at n={h} disagrees with the exact expectation {e}"
            )
        dists.append(SumDistribution(h, offset, pmf, mean, e, dropped))
    return dists[0] if np.ndim(n) == 0 else dists
