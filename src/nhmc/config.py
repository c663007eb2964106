"""Declarative experiment configuration (JSON) and its validation.

A config validates every downstream precondition it can at parse time; the
variance-positivity check happens once the rate model is built, before any
simulation starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .kernels import (
    InitialDistribution,
    KernelFamily,
    KernelValidationError,
    Observable,
    ObservableSet,
    capped_identity_observable,
    family_from_config,
    indicator_observable,
    point_mass,
    uniform_initial,
)
from .simulate import SpeedFunction

__all__ = ["InvalidConfigError", "ExperimentConfig", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1


class InvalidConfigError(ValueError):
    """The experiment configuration is malformed or violates a precondition."""


def _observable_from_spec(spec: dict, size: int) -> Observable:
    kind = spec.get("kind")
    if kind == "indicator":
        return indicator_observable(int(spec["state"]), size)
    if kind == "capped_identity":
        return capped_identity_observable(int(spec["cap"]), size)
    if kind == "table":
        values = np.asarray(spec["values"], dtype=float)
        if values.shape != (size,):
            raise InvalidConfigError(
                f"observable table must have length {size}, got {values.shape}"
            )
        return Observable(values, float(spec.get("tail_value", 0.0)))
    raise InvalidConfigError(f"unknown observable kind {kind!r}")


def _initial_from_spec(spec: dict, size: int) -> InitialDistribution:
    kind = spec.get("kind", "point_mass")
    if kind == "point_mass":
        return point_mass(int(spec.get("state", 1)), size)
    if kind == "uniform":
        return uniform_initial(size)
    if kind == "table":
        probs = np.asarray(spec["probs"], dtype=float)
        if probs.shape != (size,):
            raise InvalidConfigError(f"initial table must have length {size}")
        return InitialDistribution(probs, float(spec.get("tail_mass", 0.0)))
    raise InvalidConfigError(f"unknown initial-distribution kind {kind!r}")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    family: KernelFamily
    initial: InitialDistribution
    observables: ObservableSet
    speed: SpeedFunction
    n_grid: tuple[int, ...]
    x_grid: tuple[float, ...]
    m_sup_range: int
    trials: int
    base_seed: int
    mdp_method: str
    z_weights: tuple[float, ...]
    output_dir: Path
    runtime_budget_seconds: float | None
    raw: dict = field(repr=False, default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        try:
            return cls._parse(raw)
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, InvalidConfigError):
                raise
            raise InvalidConfigError(f"bad configuration: {exc}") from exc

    @classmethod
    def _parse(cls, raw: dict) -> "ExperimentConfig":
        version = raw.get("schema_version")
        if version != SCHEMA_VERSION:
            raise InvalidConfigError(
                f"schema_version must be {SCHEMA_VERSION}, got {version!r}"
            )
        try:
            family = family_from_config(raw["family"])
        except KernelValidationError as exc:
            raise InvalidConfigError(str(exc)) from exc
        initial = _initial_from_spec(raw.get("initial", {"kind": "point_mass", "state": 1}),
                                     family.size)
        obs_specs = raw.get("observables", [])
        if not obs_specs:
            raise InvalidConfigError("at least one observable is required")
        observables = ObservableSet(
            tuple(_observable_from_spec(s, family.size) for s in obs_specs)
        )
        try:
            speed = SpeedFunction(float(raw.get("speed_beta", 0.6)))
        except KernelValidationError as exc:
            raise InvalidConfigError(str(exc)) from exc

        n_grid = tuple(int(v) for v in raw.get("n_grid", []))
        if not n_grid or any(v < 1 for v in n_grid) or list(n_grid) != sorted(set(n_grid)):
            raise InvalidConfigError("n_grid must be a strictly increasing list of ints >= 1")
        x_grid = tuple(float(v) for v in raw.get("x_grid", [0.0]))
        m_sup_range = int(raw.get("m_sup_range", 200))
        if m_sup_range < 0:
            raise InvalidConfigError("m_sup_range must be >= 0")
        trials = int(raw.get("trials", 10000))
        if trials < 1:
            raise InvalidConfigError("trials must be >= 1")
        base_seed = int(raw.get("base_seed", 0))
        # trial t draws from the stream seeded base_seed + t, an int64
        if not 0 <= base_seed <= 2**63 - trials:
            raise InvalidConfigError(
                f"base_seed must lie in [0, 2**63 - trials] = [0, {2**63 - trials}], "
                f"got {base_seed}"
            )
        mdp_method = raw.get("mdp_method", "exact_dp")
        if mdp_method not in ("exact_dp", "monte_carlo"):
            raise InvalidConfigError(f"unknown mdp_method {mdp_method!r}")
        z_weights = tuple(float(v) for v in raw.get("z_weights", [1.0] * len(observables)))
        if len(z_weights) != len(observables):
            raise InvalidConfigError("z_weights must have one entry per observable")
        budget = raw.get("runtime_budget_seconds")
        if budget is not None:
            budget = float(budget)
            if budget <= 0:
                raise InvalidConfigError("runtime_budget_seconds must be positive")
        return cls(
            family=family,
            initial=initial,
            observables=observables,
            speed=speed,
            n_grid=n_grid,
            x_grid=x_grid,
            m_sup_range=m_sup_range,
            trials=trials,
            base_seed=base_seed,
            mdp_method=mdp_method,
            z_weights=z_weights,
            output_dir=Path(raw.get("output_dir", "nhmc_runs")),
            runtime_budget_seconds=budget,
            raw=raw,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)
