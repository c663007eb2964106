"""Exact distribution of S_n = f(X_1) + ... + f(X_n) for integer-valued f.

A forward dynamic program over (step, state, partial sum) yields the law of
S_n exactly up to float rounding.  The raw table has N * (n * range + 1)
cells, which is infeasible for long horizons, so the DP first merges states
that are provably interchangeable: for the lump-policy built-in families every
step-k kernel is ``base_row + s(k) * B`` with B a fixed band matrix, so two
states can be merged whenever they share an f value and inject identical
B-coefficients into every class of the partition.  The coarsest such
partition is found by signature refinement; it is exact (no approximation),
and the result's mean is cross-checked against the unlumped propagation
expectation.  Other families run on the raw states, each step pushed through
``KernelFamily.steps`` (O(N) per cell column for the renormalize built-ins).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (
    InitialDistribution,
    KernelFamily,
    KernelValidationError,
    Observable,
    _readonly,
    expected_sum,
)

__all__ = ["SumDistribution", "exact_sum_distribution", "DP_CELL_BUDGET"]

DP_CELL_BUDGET = 2_000_000_000  # n * value_range * dp_states


@dataclass(frozen=True, eq=False)
class SumDistribution:
    """Probability mass function of an integer-valued additive functional."""

    n: int
    support_offset: int
    pmf: np.ndarray
    mean: float

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=float)
        if pmf.min() < -1e-12:
            raise KernelValidationError(f"pmf has negative mass {pmf.min()}")
        total = pmf.sum()
        if abs(total - 1.0) > 1e-9:
            raise KernelValidationError(f"pmf sums to {total}, not 1 within 1e-9")
        object.__setattr__(self, "pmf", _readonly(np.clip(pmf, 0.0, None)))

    @property
    def support(self) -> np.ndarray:
        return self.support_offset + np.arange(self.pmf.size)

    def tail_probability(self, threshold: float) -> float:
        """P(S_n >= threshold), with a 1e-9 guard against float thresholds."""
        lo = int(np.ceil(threshold - 1e-9)) - self.support_offset
        if lo <= 0:
            return 1.0
        if lo >= self.pmf.size:
            return 0.0
        return float(self.pmf[lo:].sum())

    def to_json_dict(self) -> dict:
        return {"offset": int(self.support_offset), "pmf": self.pmf.tolist()}


# ---------------------------------------------------------------------------
# exact state merging for the structured families
# ---------------------------------------------------------------------------

def _lumped_chain(family: KernelFamily, mu0: InitialDistribution, f: Observable):
    """The DP's inputs on the coarsest partition of the states it may use in place of 1..N.

    Valid merge criterion: states in one class share the f value, and move
    identical perturbation mass into every class.  Returns the class-level
    base masses, perturbation coefficients, f values and start law, or None
    when the family carries no rank-one-plus-band structure or replaces its
    last row (renormalize).
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
    return base, coeff[first], np.round(f.values[first]).astype(np.int64), start


def exact_sum_distribution(
    mu0: InitialDistribution,
    family: KernelFamily,
    f: Observable,
    n: int,
    merge: bool = True,
    cell_budget: int = DP_CELL_BUDGET,
) -> SumDistribution:
    """Exact pmf of S_n by forward DP; raises when the cell budget is exceeded.

    ``merge=False`` forces the DP onto the raw states (useful as a
    cross-check; only tractable for short horizons).
    """
    if n < 1:
        raise KernelValidationError(f"horizon must be >= 1, got {n}")
    if not f.is_integer_valued():
        raise KernelValidationError("exact DP requires an integer-valued observable")
    if f.size != family.size or mu0.size != family.size:
        raise KernelValidationError("observable / initial distribution size mismatch")

    lumped = _lumped_chain(family, mu0, f) if merge else None
    if lumped is not None:
        base, coeff, values, start = lumped
        m = base.size
        scales = family.perturbation_scale(np.arange(1, n + 1))
    else:
        # raw states, plus one absorbing pseudo-state for escaped tail mass
        values = np.concatenate(
            [np.round(f.values).astype(np.int64), [int(round(f.tail_value))]]
        )
        start = np.concatenate([mu0.probs, [mu0.tail_mass]])
        m = family.size + 1

    vmin = int(values.min())
    vmax = int(values.max())
    vrange = vmax - vmin
    if n * max(vrange, 1) * m > cell_budget:
        raise KernelValidationError(
            f"DP budget exceeded: n*range*states = {n * max(vrange, 1) * m} > {cell_budget}"
        )
    width = n * vrange + 1
    rel = values - vmin
    shifts = [(g, rel == g) for g in np.unique(rel)]
    raw_steps = family.steps(n) if lumped is None else None

    cur = np.zeros((m, width))
    cur[:, 0] = start
    nxt = np.zeros_like(cur)
    for k in range(1, n + 1):
        prev_w = (k - 1) * vrange + 1
        sub = cur[:, :prev_w]
        if lumped is not None:
            col = sub.sum(axis=0)
            mass = base[:, None] * col[None, :] + scales[k - 1] * (coeff.T @ sub)
        else:
            # each partial sum's retained states as a law of its own, since a band
            # step takes a law's retained mass to be one minus its tail
            held = sub[:-1].sum(axis=0)
            law = sub[:-1].T / np.where(held > 0.0, held, 1.0)[:, None]
            probs, escaped = next(raw_steps).push(law, np.zeros(prev_w))
            mass = np.empty_like(sub)
            np.multiply(probs.T, held, out=mass[:-1])
            mass[-1] = sub[-1] + escaped * held
        new_w = k * vrange + 1
        nxt[:, :new_w] = 0.0
        if vrange == 0:
            nxt[:, :prev_w] = mass
        else:
            for g, rowsel in shifts:
                nxt[rowsel, g : g + prev_w] = mass[rowsel]
        cur, nxt = nxt, cur

    pmf = cur.sum(axis=0)
    offset = n * vmin
    mean = float(pmf @ (offset + np.arange(width)))
    expected = expected_sum(mu0, family, f, n)
    # the DP accumulates O(n * eps) relative rounding in the pmf mass itself
    tol = max(1e-8, 64 * np.finfo(float).eps * n * max(1.0, abs(expected)))
    if abs(mean - expected) > tol:
        raise RuntimeError(
            f"DP mean {mean} disagrees with propagation expectation {expected}"
        )
    return SumDistribution(n, offset, pmf, mean)
