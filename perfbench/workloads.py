"""Workload definitions: which configs a workload generates and which CLI
commands it runs on them.

Every workload has two configs:

* ``main`` carries the workload's shape and runs the commands the workload is
  built to load (``focus``);
* ``smoke`` is a small config of the same family kind and tail policy (so a
  dense workload stays on the dense code paths) that runs the whole
  six-command pipeline.  It makes every command and every traced layer
  appear in every workload, so each reported metric is a measured,
  non-zero number, while the main config keeps the workload's load where it
  was chosen to be.

This module is standard-library only: the launcher imports it before numpy
is loaded.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMANDS = ("validate", "conditions", "rate", "clt", "mdp", "martingale")

# Seed reserved for checking a later performance claim; not used while tuning.
HELD_OUT_SEED = 7919
# `exact` runs no seed-dependent work on its main config; its smoke config
# uses this fixed stream so the whole workload is independent of --seed.
EXACT_BASE_SEED = 20260810
SEED_STRIDE = 1_000_000  # > any trial count, so distinct seeds share no trial stream

IND1 = {"kind": "indicator", "state": 1}
CAP3 = {"kind": "capped_identity", "cap": 3}

WORKLOADS = {
    "mc_long": {
        "why": "long horizons: the per-step sampling loop, the simulate gather "
        "and the martingale Monte Carlo loop dominate",
        "family": {"kind": "zeta2", "alpha": 0.75, "N": 1000, "tail_policy": "lump"},
        "observables": [IND1, CAP3],
        "n_grid": [1000, 10000],
        "m_sup_range": 200,
        "trials": 1500,
        "mdp_method": "exact_dp",
        "focus": ["clt", "martingale"],
        "seeded": True,
    },
    "mc_wide": {
        "why": "many short trajectories: per-trial stream set-up dominates "
        "sampling, and clt_samples.csv is the largest artifact",
        "family": {"kind": "zeta4", "alpha": 0.75, "beta": 1.0, "N": 1000,
                   "tail_policy": "lump"},
        "observables": [IND1],
        "n_grid": [20, 100],
        "m_sup_range": 200,
        "trials": 40000,
        "mdp_method": "monte_carlo",
        "focus": ["clt", "mdp"],
        "seeded": True,
    },
    "exact": {
        "why": "no sampling on the main config: exact DP, the capped Cesaro "
        "product scan and propagation dominate",
        "family": {"kind": "zeta4", "alpha": 0.75, "beta": 1.0, "N": 300,
                   "tail_policy": "lump"},
        "observables": [IND1, CAP3],
        "n_grid": [256, 2000, 10000, 20000],
        "m_sup_range": 200,
        "trials": 1000,
        "mdp_method": "exact_dp",
        "focus": ["validate", "conditions", "rate", "mdp"],
        "seeded": False,
    },
    "dense": {
        "why": "renormalize tail policy: the same layers through their dense "
        "fallbacks (per-step Dobrushin scans, kernel_at, row-CDF sampler)",
        "family": {"kind": "zeta2", "alpha": 0.75, "N": 150,
                   "tail_policy": "renormalize"},
        "observables": [IND1],
        "n_grid": [100, 500],
        "m_sup_range": 50,
        "trials": 2000,
        "mdp_method": "exact_dp",
        "focus": ["validate", "conditions", "rate", "clt", "martingale"],
        "seeded": True,
        # the dense fallbacks make the default smoke config cost as much as
        # the main one, so this workload's smoke config is smaller
        "smoke": {"N": 60, "n_grid": [64, 600]},
    },
}

# Sized so each smoke command runs for a few tenths of a second: shorter
# commands sample too little time to give a steady median on a shared machine.
SMOKE = {"N": 150, "observables": [CAP3], "n_grid": [128, 3000], "m_sup_range": 8,
         "trials": 2000, "mdp_method": "exact_dp"}

# The self-test's sizes: every code path of the bench size, in well under a
# second per command.  clt needs at least 1000 samples.
TINY_MAIN = {"N": 30, "n_grid": [16, 64], "m_sup_range": 3, "trials": 1000}
TINY_SMOKE = {"N": 20, "n_grid": [16, 32], "m_sup_range": 2, "trials": 1000}


def base_seed(name: str, seed: int) -> int:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return SEED_STRIDE * seed if WORKLOADS[name]["seeded"] else EXACT_BASE_SEED


def _config(spec: dict, overrides: dict, seed_value: int) -> dict:
    p = {**spec, **overrides}
    return {
        "schema_version": 1,
        "family": {**spec["family"], "N": p.get("N", spec["family"]["N"])},
        "initial": {"kind": "point_mass", "state": 1},
        "observables": p["observables"],
        "speed_beta": 0.6,
        "n_grid": p["n_grid"],
        "x_grid": [0.0, 0.4],
        "m_sup_range": p["m_sup_range"],
        "trials": p["trials"],
        "base_seed": seed_value,
        "mdp_method": p["mdp_method"],
    }


def configs(name: str, seed: int, tiny: bool = False) -> dict[str, dict]:
    """The raw configs of one workload, keyed ``main`` and ``smoke``."""
    spec = WORKLOADS[name]
    seed_value = base_seed(name, seed)
    main = TINY_MAIN if tiny else {}
    smoke = {**SMOKE, **TINY_SMOKE} if tiny else {**SMOKE, **spec.get("smoke", {})}
    return {
        "main": _config(spec, main, seed_value),
        "smoke": _config(spec, smoke, seed_value),
    }


def write_configs(name: str, seed: int, workdir: Path, tiny: bool = False) -> dict[str, Path]:
    """Write the workload's configs into ``workdir``; returns their paths by key."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, raw in configs(name, seed, tiny).items():
        raw["output_dir"] = str(workdir / "unused")  # NHMC_OUTPUT_DIR overrides it
        path = workdir / f"{key}.json"
        path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
        paths[key] = path
    return paths


def steps(name: str) -> list[tuple[str, str]]:
    """(command, config key) in run order: the focus commands, then the smoke pipeline."""
    return [(c, "main") for c in WORKLOADS[name]["focus"]] + [(c, "smoke") for c in COMMANDS]
