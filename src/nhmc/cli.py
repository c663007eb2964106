"""Config-driven experiment runner.

    nhmc validate|conditions|rate|clt|mdp|martingale --config FILE [--workers K]

Each command reads one JSON config, writes CSV/JSON artifacts plus a manifest
with per-file checksums into the output directory (NHMC_OUTPUT_DIR overrides
the config's ``output_dir``), and exits 0 on success, 2 on an invalid config
or kernel, 3 when the variance positivity hypothesis fails, 4 when the
runtime budget is exceeded or the run runs out of memory, 5 when a numerical
computation fails its own check (a stationary solve whose residual exceeds
1e-10, an inconsistent rate computation, an exact DP whose mean disagrees
with the exact expectation).

Reruns with identical config and seed reproduce the CSV outputs byte for
byte, regardless of the worker count.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .config import DEFAULT_INITIAL, ExperimentConfig, InvalidConfigError
from .ergodicity import (
    ConvergenceCondition,
    ConvergenceError,
    ReducibleKernelError,
    condition_profile,
    stationary,
)
from .kernels import KernelValidationError, _BandStep, _Horizons, expected_sum
from .rates import (
    RateComputationError, ThetaPositivityError, asymptotic_variance, build_rate_model, rate_1d,
)
from .sampling import RNG_VERSION
from .simulate import (
    CLT_MIN_SAMPLES, clt_diagnostic, martingale_check, mdp_diagnostic, simulate_sums,
)
from .sumdist import DPConsistencyError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_HYPOTHESIS = 3
EXIT_BUDGET = 4
EXIT_NUMERICAL = 5

THETA_MIN = 1e-12
VALIDATE_STEP_SAMPLE = (1, 2, 10, 100, 10**3, 10**5)
# The Cesaro scan is O(N) per step and start for the band families (plus a
# dense block of the last rows for renormalize ones), so it runs on a capped
# subgrid, as the closed form for the other families does.  Lifting the caps
# changes which rows conditions.csv holds (and the rows perfbench/reference.json
# keys as cesaro_product_average|n|8), so it is a change of its own.
CESARO_N_CAP = 512
CESARO_M_CAP = 8

# default pass/fail thresholds echoed into summary files
CLT_KS_MAX = 0.03
CLT_VAR_RATIO = (0.9, 1.1)
MDP_FINAL_REL_GAP = 0.30
MART_DRIFT_MAX = 0.02
MART_VAR_GAP = 0.01
MART_RESIDUAL_MAX = 1e-10


class RuntimeBudgetError(RuntimeError):
    """Wall-clock budget from the config was exceeded."""


class _Budget:
    def __init__(self, seconds: float | None):
        self.seconds = seconds
        self.start = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def check(self, stage: str) -> None:
        if self.seconds is not None and self.elapsed() > self.seconds:
            raise RuntimeBudgetError(
                f"runtime budget {self.seconds}s exceeded after stage {stage!r}"
            )


# ---------------------------------------------------------------------------
# artifact helpers
# ---------------------------------------------------------------------------

def _write_csv(path: Path, header, rows) -> None:
    """Rows of str, int, bool and Python float (written with ``repr``); csv
    writes None as an empty field, so a None that must read ``None`` is
    passed as that string."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _json_default(value):
    """numpy arrays and scalars as the Python values ``json`` writes."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, cfg: ExperimentConfig,
                    files: list[Path], budget: _Budget) -> Path:
    manifest = {
        "command": command,
        "library_version": __version__,
        **RNG_VERSION,
        "config": cfg.raw,
        "wall_clock_seconds": budget.elapsed(),
        "outputs": {p.name: _sha256(p) for p in files},
    }
    path = out_dir / "manifest.json"
    _write_json(path, manifest)
    return path


def verify_manifest(out_dir: str | Path) -> bool:
    """Rerun detection: do the emitted files still match the manifest checksums?"""
    out_dir = Path(out_dir)
    with open(out_dir / "manifest.json") as fh:
        manifest = json.load(fh)
    return all(
        (out_dir / name).exists() and _sha256(out_dir / name) == digest
        for name, digest in manifest["outputs"].items()
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_validate(cfg: ExperimentConfig, out_dir: Path, workers: int,
                 budget: _Budget) -> tuple[list[Path], dict]:
    """Check the kernels at the sampled steps: in O(N) from a band that moves
    mass (``_BandStep.check_rows``), else from the dense rows."""
    family, band = cfg.family, cfg.family.structure
    checks = []
    failures = []
    for k in VALIDATE_STEP_SAMPLE:
        try:
            if band is not None and band.pert.any():
                min_entry, row_err = _BandStep(band, family.perturbation_scale(k)).check_rows()
            else:
                rows = family.kernel_at(k).rows
                min_entry, row_err = float(rows.min()), float(np.abs(rows.sum(axis=1) - 1.0).max())
        except KernelValidationError as exc:
            failures.append({"k": k, "error": str(exc)})
            continue
        checks.append({"k": k, "max_row_mass_error": row_err, "min_entry": min_entry})
        budget.check(f"kernel k={k}")
    report = {
        "passed": not failures,
        "kernel_checks": checks,
        "failures": failures,
        "truncation_tail_mass": family.truncation_tail_mass(),
        "initial_distribution": cfg.raw.get("initial", DEFAULT_INITIAL),
    }
    path = out_dir / "validate_report.json"
    _write_json(path, report)
    if failures:
        raise InvalidConfigError(f"kernel invariants violated at k in {[f['k'] for f in failures]}")
    return [path], report


def cmd_conditions(cfg: ExperimentConfig, out_dir: Path, workers: int,
                   budget: _Budget) -> tuple[list[Path], dict]:
    profiles = []
    summary: dict = {"m_sup_range": cfg.m_sup_range}
    for condition in (
        ConvergenceCondition.MEAN_KERNEL_DEVIATION,
        ConvergenceCondition.SCALED_DOBRUSHIN_SUM,
    ):
        prof = condition_profile(cfg.family, condition, cfg.n_grid, cfg.m_sup_range)
        profiles.append(prof)
        summary[condition.value] = {
            "values": prof.values.tolist(),
            "m_argmax": None if prof.m_argmax is None else prof.m_argmax.tolist(),
        }
        budget.check(condition.value)
    cesaro_grid = [n for n in cfg.n_grid if n <= CESARO_N_CAP]
    if cesaro_grid:
        prof = condition_profile(
            cfg.family,
            ConvergenceCondition.CESARO_PRODUCT_AVERAGE,
            cesaro_grid,
            min(cfg.m_sup_range, CESARO_M_CAP),
        )
        profiles.append(prof)
        summary[prof.condition.value] = {
            "n_grid": prof.n_grid.tolist(),
            "m_sup_range": prof.m_sup_range,
            "values": prof.values.tolist(),
            "m_argmax": prof.m_argmax.tolist(),
            "error_bound": prof.error_bound,
        }
        budget.check("cesaro")
    csv_path = out_dir / "conditions.csv"
    _write_csv(
        csv_path,
        ("condition_id", "n", "m_sup_range", "value"),
        (row for prof in profiles for row in prof.csv_rows()),
    )
    files = [csv_path, out_dir / "conditions_summary.json"]
    _write_json(files[1], summary)
    return files, summary


def _rate_model(cfg: ExperimentConfig):
    pi = stationary(cfg.family.limit)
    model = build_rate_model(cfg.family.limit, cfg.observables, pi)
    if model.theta_diag.min() <= THETA_MIN:
        raise ThetaPositivityError(
            "an observable has asymptotic variance <= 1e-12; the positivity "
            f"hypothesis fails (theta = {model.theta_diag.tolist()})"
        )
    return model


def cmd_rate(cfg: ExperimentConfig, out_dir: Path, workers: int,
             budget: _Budget) -> tuple[list[Path], dict]:
    model = _rate_model(cfg)
    budget.check("rate model")
    payload = model.to_json_dict()
    payload["q_rank"] = int(np.linalg.matrix_rank(model.Q, tol=1e-10))
    json_path = out_dir / "rate_model.json"
    _write_json(json_path, payload)
    rows = [
        (l, x, rate_1d(x, model.theta(l)))
        for l in range(len(cfg.observables))
        for x in cfg.x_grid
    ]
    table_path = out_dir / "rate_table.csv"
    _write_csv(table_path, ("observable", "x", "rate"), rows)
    return [json_path, table_path], payload


def cmd_clt(cfg: ExperimentConfig, out_dir: Path, workers: int,
            budget: _Budget) -> tuple[list[Path], dict]:
    model = _rate_model(cfg)
    if cfg.trials < CLT_MIN_SAMPLES:  # refused before any trial is sampled
        raise InvalidConfigError(f"clt needs trials >= {CLT_MIN_SAMPLES}, got {cfg.trials}")
    rows = []
    summary = {"thresholds": {"ks_max": CLT_KS_MAX, "variance_ratio": CLT_VAR_RATIO}, "runs": []}
    # one sampling pass and one pass of the exact means serve every horizon,
    # row i of each at horizon i of the grid
    grid = _Horizons(cfg.n_grid, "n_grid")
    sums_grid = simulate_sums(cfg.initial, cfg.family, cfg.observables, grid,
                              cfg.trials, cfg.base_seed, workers)
    budget.check("clt sampling")
    expected_grid = expected_sum(cfg.initial, cfg.family, cfg.observables, grid)
    for n, sums, expected in zip(grid, sums_grid, expected_grid):
        for l in range(len(cfg.observables)):
            diag = clt_diagnostic(sums[:, l], expected[l], model.theta(l), n)
            rows.append((l, n, diag.ks_statistic, diag.variance_ratio, diag.num_samples))
            summary["runs"].append(
                {
                    "observable": l,
                    "n": n,
                    "ks_statistic": diag.ks_statistic,
                    "variance_ratio": diag.variance_ratio,
                    "ks_pass": diag.ks_statistic <= CLT_KS_MAX,
                    "variance_pass": CLT_VAR_RATIO[0] <= diag.variance_ratio <= CLT_VAR_RATIO[1],
                }
            )
        budget.check(f"clt n={n}")
    csv_path = out_dir / "clt.csv"
    _write_csv(csv_path, ("observable", "n", "ks_statistic", "variance_ratio", "num_samples"), rows)
    samples_path = out_dir / "clt_samples.csv"
    _write_csv(samples_path, ("observable", "n", "trial", "sum"), (
        row
        for n, sums in zip(grid, sums_grid)
        for l in range(len(cfg.observables))
        for row in zip(repeat(l), repeat(n), range(cfg.trials), sums[:, l].tolist())
    ))
    files = [csv_path, samples_path, out_dir / "clt_summary.json"]
    _write_json(files[2], summary)
    return files, summary


def cmd_mdp(cfg: ExperimentConfig, out_dir: Path, workers: int,
            budget: _Budget) -> tuple[list[Path], dict]:
    model = _rate_model(cfg)
    f = cfg.observables[0]
    estimates = mdp_diagnostic(
        cfg.family,
        cfg.initial,
        f,
        cfg.speed,
        cfg.x_grid,
        cfg.n_grid,
        model.theta(0),
        method=cfg.mdp_method,
        trials=cfg.trials,
        base_seed=cfg.base_seed,
        workers=workers,
    )
    budget.check("mdp estimates")
    rows = [
        (e.n, e.x, e.method, e.log_prob, e.scaled, e.target,
         "None" if e.std_error is None else e.std_error, e.zero_hits)
        for e in estimates
    ]
    csv_path = out_dir / "mdp.csv"
    _write_csv(
        csv_path,
        ("n", "x", "method", "log_prob", "scaled", "target", "std_error", "zero_hits"),
        rows,
    )
    summary = {"thresholds": {"final_rel_gap": MDP_FINAL_REL_GAP}, "per_x": []}
    for x in cfg.x_grid:
        series = [e for e in estimates if e.x == x and math.isfinite(e.scaled)]
        gaps = [abs(e.scaled - e.target) for e in series]
        entry = {
            "x": x,
            "scaled": [e.scaled for e in series],
            "target": series[0].target if series else None,
            "gap_decreasing": all(b < a for a, b in zip(gaps, gaps[1:])) if len(gaps) > 1 else None,
        }
        if series and 0 < abs(series[-1].target) < math.inf:  # a finite, non-zero target
            entry["final_rel_gap"] = gaps[-1] / abs(series[-1].target)
            entry["final_within_tolerance"] = entry["final_rel_gap"] <= MDP_FINAL_REL_GAP
        summary["per_x"].append(entry)
    files = [csv_path, out_dir / "mdp_summary.json"]
    _write_json(files[1], summary)
    return files, summary


def cmd_martingale(cfg: ExperimentConfig, out_dir: Path, workers: int,
                   budget: _Budget) -> tuple[list[Path], dict]:
    model = _rate_model(cfg)
    g = cfg.observables.combine(cfg.z_weights)
    theta_g = asymptotic_variance(model.pi, cfg.family.limit, g)
    if theta_g <= THETA_MIN:
        raise ThetaPositivityError(
            "the weighted observable g = sum z_l f_l has asymptotic variance <= 1e-12; "
            f"the positivity hypothesis fails (theta_g = {theta_g}, z = {list(cfg.z_weights)})"
        )
    result = martingale_check(
        cfg.family,
        cfg.initial,
        cfg.observables,
        cfg.z_weights,
        cfg.n_grid,
        cfg.trials,
        base_seed=cfg.base_seed,
        workers=workers,
        theta_value=theta_g,
    )
    budget.check("martingale")
    rows = [
        (int(n), float(d), float(v), result.theta_g, result.max_pathwise_residual)
        for n, d, v in zip(result.n_grid, result.drift_values, result.variance_values)
    ]
    csv_path = out_dir / "martingale.csv"
    _write_csv(
        csv_path,
        ("n", "drift_abs_mean", "variance_value", "theta_g", "max_pathwise_residual"),
        rows,
    )
    drift = result.drift_values
    summary = {
        "theta_g": result.theta_g,
        "max_pathwise_residual": result.max_pathwise_residual,
        "residual_pass": result.max_pathwise_residual <= MART_RESIDUAL_MAX,
        "drift_final": float(drift[-1]),
        "drift_decreasing": bool(np.all(np.diff(drift) < 0)) if drift.size > 1 else None,
        "drift_pass": float(drift[-1]) <= MART_DRIFT_MAX,
        "variance_final_gap": float(abs(result.variance_values[-1] - result.theta_g)),
        "variance_pass": bool(abs(result.variance_values[-1] - result.theta_g) <= MART_VAR_GAP),
    }
    files = [csv_path, out_dir / "martingale_summary.json"]
    _write_json(files[1], summary)
    return files, summary


COMMANDS = {
    "validate": cmd_validate,
    "conditions": cmd_conditions,
    "rate": cmd_rate,
    "clt": cmd_clt,
    "mdp": cmd_mdp,
    "martingale": cmd_martingale,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _resolve_output_dir(cfg: ExperimentConfig) -> Path:
    override = os.environ.get("NHMC_OUTPUT_DIR")
    out = Path(override) if override else cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    return out


def run(command: str, config_path: str, workers: int = 1) -> dict:
    """Run one command; returns its summary dict.  Raises on failure."""
    cfg = ExperimentConfig.from_file(config_path)
    out_dir = _resolve_output_dir(cfg)
    budget = _Budget(cfg.runtime_budget_seconds)
    files, summary = COMMANDS[command](cfg, out_dir, workers, budget)
    _write_manifest(out_dir, command, cfg, files, budget)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nhmc",
        description="Diagnostics and experiments for truncated nonhomogeneous Markov chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--workers", type=int, default=1, help="worker pool cap")
    args = parser.parse_args(argv)
    try:
        summary = run(args.command, args.config, args.workers)
    except (InvalidConfigError, KernelValidationError, ReducibleKernelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ThetaPositivityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except RuntimeBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print(f"error: out of memory running {args.command!r}; reduce N, n_grid or trials",
              file=sys.stderr)
        return EXIT_BUDGET
    except (ConvergenceError, RateComputationError, DPConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(json.dumps({"command": args.command, "ok": True, "summary": summary},
                     sort_keys=True, default=str))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
