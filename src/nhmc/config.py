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
    _check_fields,
    _config_float,
    _config_int,
    _config_object,
    _config_table,
    capped_identity_observable,
    family_from_config,
    indicator_observable,
    point_mass,
    uniform_initial,
)
from .sampling import _base_seed
from .simulate import SpeedFunction

__all__ = ["InvalidConfigError", "ExperimentConfig", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1


class InvalidConfigError(ValueError):
    """The experiment configuration is malformed or violates a precondition."""


# the fields a config takes, and those each kind of observable and initial law
# takes besides its kind: a field outside them is refused by name
_CONFIG_FIELDS = ("schema_version", "family", "initial", "observables", "speed_beta", "n_grid",
                  "x_grid", "m_sup_range", "trials", "base_seed", "mdp_method", "z_weights",
                  "output_dir", "runtime_budget_seconds")
_OBSERVABLE_FIELDS = {"indicator": ("state",), "capped_identity": ("cap",), "table": ("values",)}
_INITIAL_FIELDS = {"point_mass": ("state",), "uniform": (), "table": ("probs",)}


def _spec_kind(spec: dict, fields: dict, what: str, default=None) -> str:
    """The spec's kind, once it is known and the spec sets no field that kind does not take."""
    kind = _config_object(spec, f"an {what}").get("kind", default)
    if kind not in fields:
        raise InvalidConfigError(f"unknown {what} kind {kind!r}")
    _check_fields(spec, ("kind", *fields[kind]), f"a {kind} {what}")
    return kind


def _observable_from_spec(spec: dict, size: int) -> Observable:
    kind = _spec_kind(spec, _OBSERVABLE_FIELDS, "observable")
    if kind == "indicator":
        return indicator_observable(_config_int(spec["state"], "observable state"), size)
    if kind == "capped_identity":
        return capped_identity_observable(_config_int(spec["cap"], "observable cap"), size)
    values = _config_table(spec["values"], "observable values")
    if values.shape != (size,):
        raise InvalidConfigError(f"observable table must have length {size}, got {values.shape}")
    return Observable(values)


def _initial_from_spec(spec: dict, size: int) -> InitialDistribution:
    kind = _spec_kind(spec, _INITIAL_FIELDS, "initial-distribution", "point_mass")
    if kind == "point_mass":
        return point_mass(_config_int(spec.get("state", 1), "initial state"), size)
    if kind == "uniform":
        return uniform_initial(size)
    probs = _config_table(spec["probs"], "initial probs")
    if probs.shape != (size,):
        raise InvalidConfigError(f"initial table must have length {size}")
    return InitialDistribution(probs)


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
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, InvalidConfigError):
                raise
            raise InvalidConfigError(f"bad configuration: {exc}") from exc

    @classmethod
    def _parse(cls, raw: dict) -> "ExperimentConfig":
        version = _config_object(raw, "the config").get("schema_version")
        if version != SCHEMA_VERSION:
            raise InvalidConfigError(
                f"schema_version must be {SCHEMA_VERSION}, got {version!r}"
            )
        _check_fields(raw, _CONFIG_FIELDS, "the config")
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
            speed = SpeedFunction(_config_float(raw.get("speed_beta", 0.6), "speed_beta"))
        except KernelValidationError as exc:
            raise InvalidConfigError(str(exc)) from exc

        n_grid = tuple(_config_int(v, "n_grid entries") for v in raw.get("n_grid", []))
        if not n_grid or any(v < 1 for v in n_grid) or list(n_grid) != sorted(set(n_grid)):
            raise InvalidConfigError("n_grid must be a strictly increasing list of ints >= 1")
        x_grid = tuple(_config_float(v, "x_grid entries") for v in raw.get("x_grid", [0.0]))
        if not np.isfinite(x_grid).all():
            raise InvalidConfigError("x_grid entries must be finite")
        m_sup_range = _config_int(raw.get("m_sup_range", 200), "m_sup_range")
        if m_sup_range < 0:
            raise InvalidConfigError("m_sup_range must be >= 0")
        trials = _config_int(raw.get("trials", 10000), "trials")
        if trials < 1:
            raise InvalidConfigError("trials must be >= 1")
        for name, count in (("n_grid", n_grid[-1]), ("m_sup_range", m_sup_range), ("trials", trials)):
            if count > 2**53:  # s(k) takes a step index as float64, exact up to 2**53
                raise InvalidConfigError(f"{name} must be at most 2**53, got {count}")
        base_seed = _base_seed(raw.get("base_seed", 0))
        mdp_method = raw.get("mdp_method", "exact_dp")
        if mdp_method not in ("exact_dp", "monte_carlo"):
            raise InvalidConfigError(f"unknown mdp_method {mdp_method!r}")
        z_weights = tuple(_config_float(v, "z_weights entries")
                          for v in raw.get("z_weights", [1.0] * len(observables)))
        if len(z_weights) != len(observables):
            raise InvalidConfigError("z_weights must have one entry per observable")
        if not np.isfinite(z_weights).all():
            raise InvalidConfigError("z_weights entries must be finite")
        budget = raw.get("runtime_budget_seconds")
        if budget is not None:
            budget = _config_float(budget, "runtime_budget_seconds")
            if not budget > 0:
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
