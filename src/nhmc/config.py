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
    InitialDistribution, KernelFamily, KernelValidationError, Observable, ObservableSet, TailPolicy,
    TruncatedKernel, _config_int, _count, capped_identity_observable, constant_family,
    indicator_observable, point_mass, table_family, uniform_initial, zeta2_family, zeta4_family,
)
from .sampling import _base_seed
from .simulate import SpeedFunction

__all__ = ["InvalidConfigError", "ExperimentConfig", "SCHEMA_VERSION", "family_from_config"]

SCHEMA_VERSION = 1


class InvalidConfigError(ValueError):
    """The experiment configuration is malformed or violates a precondition."""


def _config_float(value, name: str) -> float:
    """A real config field: an int or a float.  A bool, a string or any other
    value is refused by name, never converted."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        return float(value)
    raise KernelValidationError(f"{name} must be a number, got {value!r}")


def _config_table(value, name: str, length: int | None = None) -> np.ndarray:
    """A table config field, nested lists of numbers (a list of ``length`` when
    given), as a float array: a bool, a string or any other entry is refused
    by name, never converted."""
    entries = np.asarray(value, dtype=object)
    for entry in entries.flat:
        _config_float(entry, f"{name} entries")
    if length is not None and entries.shape != (length,):
        raise KernelValidationError(f"{name} must have length {length}, got shape {entries.shape}")
    return entries.astype(float)


def _config_object(spec, where: str) -> dict:
    """A config object (a JSON dict), refused by name when it is anything else."""
    if not isinstance(spec, dict):
        raise KernelValidationError(f"{where} must be a JSON object, got {type(spec).__name__}")
    return spec


def _check_fields(spec: dict, allowed, where: str) -> None:
    """Refuse by name a config field outside ``allowed``: dropped, a misspelt
    field would leave its default to run in its place."""
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise KernelValidationError(f"unknown field {', '.join(map(repr, unknown))} in {where}")


# the fields a config takes, and those each kind of family, observable and
# initial law takes besides its kind: a field outside them is refused by name
_CONFIG_FIELDS = ("schema_version", "family", "initial", "observables", "speed_beta", "n_grid",
                  "x_grid", "m_sup_range", "trials", "base_seed", "mdp_method", "z_weights",
                  "output_dir", "runtime_budget_seconds")
_FAMILY_FIELDS = {"zeta2": ("N", "tail_policy", "alpha"),
                  "zeta4": ("N", "tail_policy", "alpha", "beta"),
                  "constant": ("N", "tail_policy", "matrix"),
                  "table": ("N", "tail_policy", "matrices", "limit")}
_OBSERVABLE_FIELDS = {"indicator": ("state",), "capped_identity": ("cap",), "table": ("values",)}
_INITIAL_FIELDS = {"point_mass": ("state",), "uniform": (), "table": ("probs",)}
# shorthand kinds accepted on the wire for the two built-in example families
# (no other spec kind has one)
_KIND_ALIASES = {"example1": "zeta2", "example2": "zeta4"}
# the initial law of a config that sets none
DEFAULT_INITIAL = {"kind": "point_mass", "state": 1}


def _spec_kind(spec: dict, fields: dict, what: str, default=None) -> str:
    """The spec's kind (an alias read as the kind it names), once it is known
    and the spec sets no field that kind does not take."""
    given = _config_object(spec, f"an {what}").get("kind", default)
    kind = _KIND_ALIASES.get(given, given)
    if kind not in fields:
        raise KernelValidationError(f"unknown {what} kind {given!r}")
    _check_fields(spec, ("kind", *fields[kind]), f"a {kind} {what}")
    return kind


def family_from_config(spec: dict) -> KernelFamily:
    """Build a family from its JSON form, e.g. {"kind":"zeta2","alpha":0.75,"N":1000,"tail_policy":"lump"}.
    A field its kind does not take is refused.  A constant or table family's
    kernels are given whole: its ``N``, if set, must be their state count and
    its ``tail_policy``, if set, ``lump``."""
    kind = _spec_kind(_config_object(spec, "the family"), _FAMILY_FIELDS, "family")
    try:
        policy = TailPolicy(spec.get("tail_policy", "lump"))
    except ValueError as exc:
        raise KernelValidationError(f"unknown tail policy {spec.get('tail_policy')!r}") from exc
    if kind in ("zeta2", "zeta4"):
        alpha = _config_float(spec.get("alpha"), "family alpha")
        size = _config_int(spec["N"], "family N")
        if kind == "zeta2":
            return zeta2_family(alpha, size, policy)
        return zeta4_family(alpha, _config_float(spec.get("beta"), "family beta"), size, policy)
    if kind == "constant":
        family = constant_family(TruncatedKernel(_config_table(spec["matrix"], "family matrix")))
    else:
        kernels = [TruncatedKernel(_config_table(m, "family matrices")) for m in spec["matrices"]]
        family = table_family(kernels, TruncatedKernel(_config_table(spec["limit"], "family limit")))
    if "N" in spec and _config_int(spec["N"], "family N") != family.size:
        raise KernelValidationError(f"family N is {spec['N']}; its kernels have {family.size} states")
    if policy != TailPolicy.LUMP:  # the kernels are given whole: no tail to treat
        raise KernelValidationError(f"family tail_policy must be lump for a {kind} family")
    return family


def _observable_from_spec(spec: dict, size: int) -> Observable:
    kind = _spec_kind(spec, _OBSERVABLE_FIELDS, "observable")
    if kind == "indicator":
        return indicator_observable(_config_int(spec["state"], "observable state"), size)
    if kind == "capped_identity":
        return capped_identity_observable(_config_int(spec["cap"], "observable cap"), size)
    return Observable(_config_table(spec["values"], "observable values", size))


def _initial_from_spec(spec: dict, size: int) -> InitialDistribution:
    kind = _spec_kind(spec, _INITIAL_FIELDS, "initial-distribution", "point_mass")
    if kind == "point_mass":
        return point_mass(_config_int(spec.get("state", 1), "initial state"), size)
    if kind == "uniform":
        return uniform_initial(size)
    return InitialDistribution(_config_table(spec["probs"], "initial probs", size))


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
        except InvalidConfigError:
            raise
        except KernelValidationError as exc:  # its message names the field already
            raise InvalidConfigError(str(exc)) from exc
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidConfigError(f"bad configuration: {exc}") from exc

    @classmethod
    def _parse(cls, raw: dict) -> "ExperimentConfig":
        version = _config_object(raw, "the config").get("schema_version")
        if version != SCHEMA_VERSION:
            raise InvalidConfigError(
                f"schema_version must be {SCHEMA_VERSION}, got {version!r}"
            )
        _check_fields(raw, _CONFIG_FIELDS, "the config")
        family = family_from_config(raw["family"])
        initial = _initial_from_spec(raw.get("initial", DEFAULT_INITIAL), family.size)
        obs_specs = raw.get("observables", [])
        if not obs_specs:
            raise InvalidConfigError("at least one observable is required")
        observables = ObservableSet(
            tuple(_observable_from_spec(s, family.size) for s in obs_specs)
        )
        speed = SpeedFunction(_config_float(raw.get("speed_beta", 0.6), "speed_beta"))

        n_grid = tuple(_config_int(v, "n_grid entries") for v in raw.get("n_grid", []))
        if not n_grid or any(v < 1 for v in n_grid) or list(n_grid) != sorted(set(n_grid)):
            raise InvalidConfigError("n_grid must be a strictly increasing list of ints >= 1")
        x_grid = tuple(_config_float(v, "x_grid entries") for v in raw.get("x_grid", [0.0]))
        if not np.isfinite(x_grid).all():
            raise InvalidConfigError("x_grid entries must be finite")
        m_sup_range = _count(raw.get("m_sup_range", 200), "m_sup_range", 0)
        trials = _count(raw.get("trials", 10000), "trials", 1)
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
