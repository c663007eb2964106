"""Asymptotic variance, covariance quadratic forms, and their convex conjugates.

For a stationary vector pi of the limit kernel P and a bounded observable f,
the per-step asymptotic variance is

    theta(f) = sum_i pi(i) * [f(i)^2 - (Pf)(i)^2],

which equals the pi-average of the one-step conditional variance
``(P f^2)(i) - (P f)(i)^2``; both forms are computed and must agree.  For a
family f_1..f_m the matrix ``Q[a,b] = sum_i pi(i) [f_a f_b - (Pf_a)(Pf_b)]``
satisfies ``z' Q z = theta(sum_l z_l f_l)`` and is positive semidefinite.

Large-sum tail exponents are governed by the convex conjugate of the
quadratic form ``z -> z' Q z / 2``: it equals ``x' Q^+ x / 2`` on the range
of Q and +infinity off it, with Q^+ the eigendecomposition pseudoinverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .ergodicity import StationaryVector, stationary
from .kernels import (
    KernelValidationError,
    Observable,
    ObservableSet,
    TruncatedKernel,
    _readonly,
)

__all__ = [
    "ThetaPositivityError",
    "RateComputationError",
    "asymptotic_variance",
    "covariance_matrix",
    "rate_1d",
    "rate_multi",
    "AtomicSignedMeasure",
    "measure_rate_lower_bound",
    "RateModel",
    "build_rate_model",
]

THETA_FORM_TOL = 1e-10
DEFAULT_PSD_TOL = 1e-10
RANGE_TOL = 1e-8


class ThetaPositivityError(ValueError):
    """The asymptotic variance is not strictly positive where required."""


class RateComputationError(RuntimeError):
    """Internal consistency of a rate computation failed (broken pi or kernel)."""


def _pi_vector(pi) -> np.ndarray:
    return pi.pi if isinstance(pi, StationaryVector) else np.asarray(pi, dtype=float)


def asymptotic_variance(pi, P: TruncatedKernel, f: Observable) -> float:
    """theta(f), computed in both forms; raises if they disagree beyond 1e-10."""
    p = _pi_vector(pi)
    if p.shape != (P.size,) or f.size != P.size:
        raise KernelValidationError("pi, kernel, and observable sizes must agree")
    pf = P.apply_to_function(f.values)
    defining = float(p @ (f.values**2 - pf**2))
    pf2 = P.apply_to_function(f.values**2)
    conditional = float(p @ (pf2 - pf**2))
    if abs(defining - conditional) > THETA_FORM_TOL:
        raise RateComputationError(
            "the two asymptotic-variance forms disagree "
            f"({defining} vs {conditional}); pi is likely not stationary for P"
        )
    return defining


def covariance_matrix(pi, P: TruncatedKernel, observables: ObservableSet) -> np.ndarray:
    """The m x m matrix with z' Q z = theta(sum_l z_l f_l) for every z."""
    p = _pi_vector(pi)
    if p.shape != (P.size,) or observables.size != P.size:
        raise KernelValidationError("pi, kernel, and observable sizes must agree")
    V = observables.value_matrix()
    PV = np.stack([P.apply_to_function(o.values) for o in observables])
    Q = (V * p) @ V.T - (PV * p) @ PV.T
    Q = 0.5 * (Q + Q.T)
    eigs = np.linalg.eigvalsh(Q)
    if eigs.min() < -DEFAULT_PSD_TOL:
        raise RateComputationError(f"covariance matrix not PSD: min eigenvalue {eigs.min()}")
    return Q


def _theta(theta_value) -> float:
    """An asymptotic variance argument as a float: the variance positivity
    hypothesis takes a finite theta > 0, so anything else (NaN, a bool) is a
    ``ThetaPositivityError``."""
    if isinstance(theta_value, bool) or not 0.0 < theta_value < math.inf:
        raise ThetaPositivityError(
            f"asymptotic variance must be strictly positive and finite, got {theta_value}"
        )
    return float(theta_value)


def rate_1d(x: float, theta_value: float) -> float:
    """x^2 / (2 theta), +inf at x = ±inf and once x^2 overflows; theta is
    read by ``_theta``, and x = NaN is a ``KernelValidationError``."""
    theta_value = _theta(theta_value)
    try:
        square = float(x) ** 2
    except OverflowError:  # |x| above about 1.34e154
        square = math.inf
    if math.isnan(square):
        raise KernelValidationError("x must be a number, got nan")
    return square / (2.0 * theta_value)


def rate_multi(x, Q: np.ndarray) -> float:
    """sup_z { <x, z> - z'Qz/2 } for PSD Q: x'Q^+x/2 on range(Q), else +inf.

    Eigenvalues below ``DEFAULT_PSD_TOL * lambda_max`` are treated as zero; x
    is off-range when its component outside the retained eigenspace exceeds
    ``||x|| * RANGE_TOL``.
    """
    x = np.asarray(x, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if x.ndim != 1 or Q.shape != (x.size, x.size):
        raise KernelValidationError(f"x of shape {x.shape} needs a square Q of its size, "
                                    f"got {Q.shape}")
    if np.isnan(x).any():
        raise KernelValidationError("x entries must be numbers, got nan")
    lam, vec = np.linalg.eigh(0.5 * (Q + Q.T))
    lam_max = float(lam.max(initial=0.0))
    keep = lam > DEFAULT_PSD_TOL * max(lam_max, 0.0) if lam_max > 0 else np.zeros_like(lam, bool)
    coeffs = vec.T @ x
    xnorm = float(np.linalg.norm(x))
    off_range = float(np.linalg.norm(coeffs[~keep]))
    if off_range > xnorm * RANGE_TOL:
        return math.inf
    return 0.5 * float((coeffs[keep] ** 2 / lam[keep]).sum()) if keep.any() else 0.0


# ---------------------------------------------------------------------------
# measures on the state grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AtomicSignedMeasure:
    """A finitely supported signed measure; states sit at the integer points 1..N."""

    atoms: Mapping[float, float]

    def __post_init__(self):
        atoms = dict(self.atoms)
        for point, weight in atoms.items():
            if not (math.isfinite(point) and math.isfinite(weight)):
                raise KernelValidationError("measure atoms must be finite")
        object.__setattr__(self, "atoms", atoms)

    def pair(self, f: Observable) -> float:
        """<f, nu>, each atom read off f's values; an atom that is not an
        integer in 1..N is a ``KernelValidationError``."""
        total = 0.0
        for point, weight in self.atoms.items():
            idx = int(round(point))
            if abs(point - idx) >= 1e-12 or not 1 <= idx <= f.size:
                raise KernelValidationError(f"atom {point} is not a state in 1..{f.size}")
            total += weight * float(f.values[idx - 1])
        return total


def measure_rate_lower_bound(
    nu: AtomicSignedMeasure, pi, P: TruncatedKernel, observables: ObservableSet
) -> float:
    """Finite-family lower bound for the measure-level rate at nu.

    Projects nu onto y = (<f_1, nu>, ..., <f_m, nu>) and evaluates the
    conjugate quadratic rate there.  Nondecreasing as the family grows
    (nested families only), and a lower bound for the full measure-level
    rate, which is never computed exactly.
    """
    Q = covariance_matrix(pi, P, observables)
    return rate_multi(np.array([nu.pair(f) for f in observables]), Q)


# ---------------------------------------------------------------------------
# bundled rate model
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RateModel:
    """Stationary vector of the limit kernel and the observables' variance data."""

    pi: StationaryVector
    theta_diag: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        theta = np.asarray(self.theta_diag, dtype=float)
        if not np.abs(Q - Q.T).max() <= 1e-12:
            raise RateComputationError("Q must be finite and symmetric within 1e-12")
        if np.linalg.eigvalsh(Q).min() < -DEFAULT_PSD_TOL:
            raise RateComputationError("Q must be PSD within tolerance")
        if not np.abs(np.diag(Q) - theta).max() <= 1e-12:
            raise RateComputationError("Q diagonal must match the per-observable variances")
        object.__setattr__(self, "Q", _readonly(Q))
        object.__setattr__(self, "theta_diag", _readonly(theta))

    def theta(self, index: int = 0) -> float:
        return float(self.theta_diag[index])

    def to_json_dict(self) -> dict:
        return {
            "theta": self.theta_diag.tolist(),
            "Q": self.Q.tolist(),
            "pi_residual": self.pi.residual,
        }


def build_rate_model(
    P: TruncatedKernel,
    observables: ObservableSet,
    pi: StationaryVector | None = None,
) -> RateModel:
    """Compute the stationary vector (unless given), per-observable variances, and Q."""
    if pi is None:
        pi = stationary(P)
    theta = np.array([asymptotic_variance(pi, P, f) for f in observables])
    Q = covariance_matrix(pi, P, observables)
    return RateModel(pi, theta, Q)
