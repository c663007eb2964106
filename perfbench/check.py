"""Output checks for one CLI command, and the reference values they compare to.

Outputs fall in two groups.

* Exact outputs (``conditions.csv`` values, ``rate_model.json`` theta and Q,
  ``exact_dp`` log-probabilities in ``mdp.csv``, ``theta_g`` and
  ``variance_value`` in ``martingale.csv``) are compared with values recorded
  at a fixed commit, to 1e-9 relative.  Only entries present in the reference
  are checked, so rows a later version adds are not failures.
* Monte Carlo outputs are checked only for properties that hold for any
  correct random stream: sample counts, the range of the sums, the sample mean
  against the exact expectation, Monte Carlo tail frequencies against the
  exact tail probability, and the pathwise martingale residual.  Byte-identical
  reruns are checked by the harness, which sees every iteration.

Every command's directory must also pass ``nhmc.cli.verify_manifest``.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12
MC_SIGMAS = 6.0  # a correct stream fails one check with probability ~2e-9
RESIDUAL_MAX = 1e-10


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(actual: float, expected: float) -> bool:
    if math.isinf(expected) or math.isinf(actual):
        return actual == expected
    return math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _key(*parts) -> str:
    return "|".join(str(p) for p in parts)


def _compare(label: str, actual: dict, expected: dict) -> list[str]:
    """Every reference entry must be present in ``actual`` and close to it."""
    errors = []
    for key, want in expected.items():
        if key not in actual:
            errors.append(f"{label} {key}: missing")
        elif not _close(actual[key], want):
            errors.append(f"{label} {key}: {actual[key]!r} != reference {want!r}")
    return errors


def _observable_range(spec: dict, size: int) -> tuple[float, float]:
    if spec["kind"] == "indicator":
        return 0.0, 1.0
    if spec["kind"] == "capped_identity":
        return 1.0, float(min(int(spec["cap"]), size))
    raise ValueError(f"no range rule for observable kind {spec['kind']!r}")


# ---------------------------------------------------------------------------
# reading exact values off the outputs
# ---------------------------------------------------------------------------

def _conditions(out: Path) -> dict:
    return {
        _key(r["condition_id"], r["n"], r["m_sup_range"]): float(r["value"])
        for r in _rows(out / "conditions.csv")
    }


def _rate(out: Path) -> dict:
    model = json.loads((out / "rate_model.json").read_text())
    values = {_key("theta", i): t for i, t in enumerate(model["theta"])}
    values.update(
        {_key("Q", i, j): q for i, row in enumerate(model["Q"]) for j, q in enumerate(row)}
    )
    return values


def _mdp_log_probs(out: Path) -> dict:
    return {_key(int(r["n"]), float(r["x"])): float(r["log_prob"]) for r in _rows(out / "mdp.csv")}


def _martingale(out: Path) -> dict:
    values = {}
    for r in _rows(out / "martingale.csv"):
        values[_key("variance", int(r["n"]))] = float(r["variance_value"])
        values["theta_g"] = float(r["theta_g"])
    return values


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

def _check_validate(out: Path, config: dict, ref: dict) -> list[str]:
    report = json.loads((out / "validate_report.json").read_text())
    return [] if report["passed"] else [f"validate reported failures {report['failures']}"]


def _check_conditions(out: Path, config: dict, ref: dict) -> list[str]:
    return _compare("conditions", _conditions(out), ref["conditions"])


def _check_rate(out: Path, config: dict, ref: dict) -> list[str]:
    return _compare("rate", _rate(out), ref["rate"])


def _check_clt(out: Path, config: dict, ref: dict) -> list[str]:
    errors = []
    trials = config["trials"]
    size = config["family"]["N"]
    for r in _rows(out / "clt.csv"):
        if int(r["num_samples"]) != trials:
            errors.append(f"clt.csv num_samples {r['num_samples']} != trials {trials}")
    groups: dict[tuple[int, int], list[float]] = defaultdict(list)
    for r in _rows(out / "clt_samples.csv"):
        groups[int(r["observable"]), int(r["n"])].append(float(r["sum"]))
    for l, spec in enumerate(config["observables"]):
        lo, hi = _observable_range(spec, size)
        for n in config["n_grid"]:
            sums = groups.get((l, n), [])
            if len(sums) != trials:
                errors.append(f"clt_samples obs {l} n {n}: {len(sums)} samples != {trials}")
                continue
            if min(sums) < n * lo - 1e-9 or max(sums) > n * hi + 1e-9:
                errors.append(f"clt_samples obs {l} n {n}: sums outside [{n * lo}, {n * hi}]")
            mean = math.fsum(sums) / trials
            var = math.fsum((s - mean) ** 2 for s in sums) / (trials - 1)
            expected = ref["expected_sum"][_key(l, n)]
            if abs(mean - expected) > MC_SIGMAS * math.sqrt(var / trials) + 1e-9 * max(1.0, abs(expected)):
                errors.append(f"clt_samples obs {l} n {n}: mean {mean} vs exact {expected}")
    return errors


def _check_mdp(out: Path, config: dict, ref: dict) -> list[str]:
    log_probs = _mdp_log_probs(out)
    errors = [f"mdp {k}: log_prob {v} > 0" for k, v in log_probs.items() if v > 0.0]
    if config["mdp_method"] == "exact_dp":
        return errors + _compare("mdp", log_probs, ref["mdp_log_prob"])
    trials = config["trials"]
    for key, p_exact in ref["mdp_tail"].items():
        if key not in log_probs:
            errors.append(f"mdp {key}: missing")
            continue
        p = math.exp(log_probs[key])
        hits = p * trials
        if abs(hits - round(hits)) > 1e-6 * trials:
            errors.append(f"mdp {key}: frequency {p} is not hits / {trials}")
        slack = MC_SIGMAS * math.sqrt(p_exact * (1.0 - p_exact) / trials) + 1.0 / trials
        if abs(p - p_exact) > slack:
            errors.append(f"mdp {key}: tail frequency {p} vs exact {p_exact}")
    return errors


def _check_martingale(out: Path, config: dict, ref: dict) -> list[str]:
    errors = []
    for r in _rows(out / "martingale.csv"):
        residual = float(r["max_pathwise_residual"])
        if not residual <= RESIDUAL_MAX:
            errors.append(f"martingale n {r['n']}: pathwise residual {residual}")
        drift = float(r["drift_abs_mean"])
        if not (math.isfinite(drift) and drift >= 0.0):
            errors.append(f"martingale n {r['n']}: drift {drift}")
    return errors + _compare("martingale", _martingale(out), ref["martingale"])


CHECKS = {
    "validate": _check_validate,
    "conditions": _check_conditions,
    "rate": _check_rate,
    "clt": _check_clt,
    "mdp": _check_mdp,
    "martingale": _check_martingale,
}


def check_command(command: str, out: Path, config: dict, ref: dict) -> list[str]:
    """Failure messages for one command's output directory; empty when it passes."""
    from nhmc.cli import verify_manifest

    try:
        manifest = json.loads((out / "manifest.json").read_text())
        if manifest.get("command") != command:
            return [f"manifest names command {manifest.get('command')!r}"]
        if not verify_manifest(out):
            return ["manifest checksums do not match the outputs"]
        return CHECKS[command](out, config, ref)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# recording the reference
# ---------------------------------------------------------------------------

def record(command: str, out: Path, config: dict) -> dict:
    """Exact reference values for one command's outputs.

    Values the outputs carry are read off them; the exact expectations and
    tail probabilities that Monte Carlo outputs are checked against are
    computed with the library's exact propagation and DP.
    """
    if command == "conditions":
        return {"conditions": _conditions(out)}
    if command == "rate":
        return {"rate": _rate(out)}
    if command == "martingale":
        return {"martingale": _martingale(out)}
    if command == "mdp" and config["mdp_method"] == "exact_dp":
        return {"mdp_log_prob": _mdp_log_probs(out)}
    if command not in ("clt", "mdp"):
        return {}

    import nhmc

    cfg = nhmc.ExperimentConfig.from_dict(config)
    if command == "clt":
        return {"expected_sum": {
            _key(l, n): nhmc.expected_sum(cfg.initial, cfg.family, f, n)
            for l, f in enumerate(cfg.observables)
            for n in cfg.n_grid
        }}
    f = cfg.observables[0]
    tails = {}
    for n in cfg.n_grid:
        dist = nhmc.exact_sum_distribution(cfg.initial, cfg.family, f, n)
        expected = nhmc.expected_sum(cfg.initial, cfg.family, f, n)
        for x in cfg.x_grid:
            tails[_key(n, x)] = dist.tail_probability(expected + x * cfg.speed(n))
    return {"mdp_tail": tails}
