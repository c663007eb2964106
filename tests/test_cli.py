import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nhmc
from nhmc import ConvergenceError, ExperimentConfig, StationaryVector, cli, sumdist


def base_config(out_dir, **overrides):
    cfg = {
        "schema_version": 1,
        "family": {"kind": "zeta2", "alpha": 0.75, "N": 120, "tail_policy": "lump"},
        "initial": {"kind": "point_mass", "state": 1},
        "observables": [{"kind": "indicator", "state": 1}],
        "speed_beta": 0.6,
        "n_grid": [50, 200],
        "x_grid": [0.0, 0.4],
        "m_sup_range": 20,
        "trials": 1200,
        "base_seed": 11,
        "mdp_method": "exact_dp",
        "output_dir": str(out_dir),
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def refuse_non_finite(name):
    """``parse_constant`` of a strict JSON parse: NaN, Infinity and -Infinity
    are not JSON."""
    raise ValueError(f"{name} is not JSON")


class TestValidate:
    def test_pass_and_tail_mass_report(self, tmp_path):
        cfg = base_config(tmp_path / "out", family={"kind": "zeta2", "alpha": 0.75,
                                                    "N": 1000, "tail_policy": "lump"})
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["validate", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "validate_report.json").read_text())
        assert report["passed"]
        # residual mass beyond the truncation is about (6/pi^2)/N
        assert report["truncation_tail_mass"] == pytest.approx(6 / np.pi**2 / 1000, rel=0.01)
        assert max(c["max_row_mass_error"] for c in report["kernel_checks"]) <= 1e-12

    @pytest.mark.parametrize("kind", ["zeta2", "zeta4"])
    @pytest.mark.parametrize("policy", ["lump", "renormalize"])
    def test_band_family_checked_from_its_band_form(self, tmp_path, monkeypatch, kind, policy):
        """A band family's sampled steps are checked from b, pert and s(k),
        without building a dense kernel; the smallest entry is the dense
        kernel's and each row mass is 1 within rounding."""
        family = {"kind": kind, "alpha": 0.75, "N": 60, "tail_policy": policy}
        if kind == "zeta4":
            family["beta"] = 1.0
        cfg = base_config(tmp_path / "out", family=family)
        fam = ExperimentConfig.from_dict(cfg).family
        dense = {k: fam.kernel_at(k).rows for k in cli.VALIDATE_STEP_SAMPLE}

        def no_dense(self, k):
            raise AssertionError("kernel_at called")

        monkeypatch.setattr(nhmc.KernelFamily, "kernel_at", no_dense)
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["validate", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "validate_report.json").read_text())
        assert [c["k"] for c in report["kernel_checks"]] == list(cli.VALIDATE_STEP_SAMPLE)
        for check in report["kernel_checks"]:
            assert check["min_entry"] == pytest.approx(dense[check["k"]].min(), abs=1e-16)
            assert check["max_row_mass_error"] <= 1e-15

    def test_band_form_beyond_tolerance_is_a_failure(self):
        fam = nhmc.zeta2_family(0.75, 20)
        with pytest.raises(nhmc.KernelValidationError, match="outside"):
            nhmc.kernels._BandStep(fam.structure, 1.5).check_rows()

    @pytest.mark.parametrize("family", [
        {"kind": "zeta2", "alpha": 0.4, "N": 50},
        {"kind": "zeta2", "alpha": float("nan"), "N": 50},
        {"kind": "zeta4", "alpha": 0.75, "beta": float("nan"), "N": 50},
    ], ids=["alpha_0.4", "alpha_nan", "zeta4_beta_nan"])
    def test_bad_alpha_exits_2(self, tmp_path, family):
        cfg = base_config(tmp_path / "out", family=family)
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_INVALID

    @pytest.mark.parametrize("command, overrides", [
        ("conditions", {"family": {"kind": "table", "limit": [[0.5, 0.5], [0.5, 0.5]],
                                   "matrices": [[[float("nan"), 0.5], [0.5, 0.5]]]}}),
        ("mdp", {"initial": {"kind": "table", "probs": [float("nan")] + [0.0] * 119}}),
        ("rate", {"x_grid": [0.0, float("nan")]}),
        ("mdp", {"x_grid": [0.0, float("nan")]}),
        ("validate", {"trials": float("inf")}),
        ("validate", {"family": {"kind": "zeta2", "alpha": 0.75, "N": float("inf")}}),
        ("validate", {"runtime_budget_seconds": float("nan")}),
    ], ids=["table_kernel_nan", "initial_table_nan", "x_grid_nan_rate", "x_grid_nan_mdp",
            "trials_inf", "N_inf", "runtime_budget_nan"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, command, overrides):
        path = write_config(tmp_path, "cfg.json", base_config(tmp_path / "out", **overrides))
        assert cli.main([command, "--config", str(path)]) == cli.EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["validate", "martingale"])
    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_z_weights_exit_2(self, tmp_path, capsys, command, weight):
        cfg = base_config(tmp_path / "out", z_weights=[weight])
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main([command, "--config", str(path)]) == cli.EXIT_INVALID
        assert "z_weights entries must be finite" in capsys.readouterr().err

    def test_zeta4_scale_above_one_exits_2(self, tmp_path):
        cfg = base_config(tmp_path / "out", family={"kind": "zeta4", "alpha": 0.75,
                                                    "beta": 3.0, "N": 50})
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_INVALID

    def test_band_overflow_exits_2(self, tmp_path):
        cfg = base_config(tmp_path / "out", family={"kind": "zeta2", "alpha": 0.75, "N": 2})
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_INVALID

    @pytest.mark.parametrize("field, value, command", [
        ("trials", 2**62, "clt"), ("trials", 2**62, "martingale"),
        ("trials", 2**63, "clt"), ("trials", 2**63, "martingale"),
        ("n_grid", [2**62], "conditions"), ("n_grid", [2**62], "martingale"),
        *(("n_grid", [2**63], c) for c in ("conditions", "clt", "mdp", "martingale")),
        ("m_sup_range", 2**62, "conditions"),
    ])
    def test_count_above_2_53_exits_2(self, tmp_path, capsys, field, value, command):
        """A step index reaches s(k) as float64, exact up to 2**53, so a
        larger count is refused by name while parsing, before anything is
        allocated; 2**53 itself parses."""
        path = write_config(tmp_path, "cfg.json", base_config(tmp_path / "out", **{field: value}))
        assert cli.main([command, "--config", str(path)]) == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}") and "must be at most 2**53" in err
        edge = [2**53] if field == "n_grid" else 2**53
        cfg = ExperimentConfig.from_dict(base_config(tmp_path, **{field: edge}))
        assert getattr(cfg, field) == (tuple(edge) if field == "n_grid" else edge)

    @pytest.mark.parametrize("seed", [-5, 2**63])
    def test_base_seed_outside_int64_exits_2(self, tmp_path, capsys, seed):
        path = write_config(tmp_path, "cfg.json", base_config(tmp_path / "out", base_seed=seed))
        assert cli.main(["clt", "--config", str(path)]) == cli.EXIT_INVALID
        assert "base_seed must lie in" in capsys.readouterr().err
        last = 2**63 - 1  # whatever the trial count: trials index lanes, not seeds
        assert ExperimentConfig.from_dict(base_config(tmp_path, base_seed=last)).base_seed == last

    @pytest.mark.parametrize("overrides, field", [
        ({"family": {"kind": "constant", "matrix": [[0.5, 0.3], [0.2, 0.7]],
                     "tail": [0.2, 0.1]}}, "'tail'"),
        ({"initial": {"kind": "table", "probs": [0.9 / 120] * 120, "tail_mass": 0.1}},
         "'tail_mass'"),
        ({"observables": [{"kind": "table", "values": [1.0] * 120, "tail_value": 1.0}]},
         "'tail_value'"),
    ], ids=["constant_tail", "initial_tail_mass", "observable_tail_value"])
    def test_mass_off_the_states_exits_2(self, tmp_path, capsys, overrides, field):
        """Every kernel row, start law and observable lives on 1..N: a field
        that would put mass or a value beyond N is refused by name, not
        ignored."""
        path = write_config(tmp_path, "cfg.json", base_config(tmp_path / "out", **overrides))
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_INVALID
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, field", [
        ({"n_grid": [10.7, 20.2]}, "n_grid entries"),
        ({"trials": 1000.9}, "trials"),
        ({"trials": True}, "trials"),
        ({"m_sup_range": 3.5}, "m_sup_range"),
        ({"base_seed": 4.2}, "base_seed"),
        ({"family": {"kind": "zeta2", "alpha": 0.75, "N": 120.5}}, "family N"),
        ({"observables": [{"kind": "indicator", "state": 1.9}]}, "observable state"),
        ({"observables": [{"kind": "capped_identity", "cap": 2.5}]}, "observable cap"),
        ({"initial": {"kind": "point_mass", "state": 1.5}}, "initial state"),
    ], ids=["n_grid", "trials", "trials_bool", "m_sup_range", "base_seed", "N",
            "indicator_state", "cap", "initial_state"])
    def test_non_integral_integer_field_exits_2(self, tmp_path, capsys, overrides, field):
        """An integer field is refused by name, not truncated."""
        path = write_config(tmp_path, "cfg.json", base_config(tmp_path / "out", **overrides))
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_INVALID
        assert f"{field} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, field", [
        ({"trails": 5000}, "'trails' in the config"),
        ({"family": {"kind": "zeta2", "alpha": 0.75, "N": 120, "tail_polcy": "renormalize"}},
         "'tail_polcy' in a zeta2 family"),
        ({"initial": {"kind": "uniform", "state": 3}}, "'state' in a uniform initial"),
        ({"observables": [{"kind": "indicator", "state": 1},
                          {"kind": "capped_identity", "cap": 3, "stat": 3}]},
         "'stat' in a capped_identity observable"),
    ], ids=["top_level", "family", "initial", "observable"])
    def test_unknown_field_exits_2(self, tmp_path, capsys, overrides, field):
        """A misspelt field is refused by name, where dropping it would run
        its default (10 000 trials, lump, state 1, no second observable)."""
        path = write_config(tmp_path, "cfg.json", base_config(tmp_path / "out", **overrides))
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_INVALID
        assert f"unknown field {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, field", [
        ({"family": {"kind": "zeta2", "alpha": True, "N": 120}}, "family alpha"),
        ({"family": {"kind": "zeta4", "alpha": 0.75, "beta": True, "N": 120}}, "family beta"),
        ({"speed_beta": "0.6"}, "speed_beta"),
        ({"x_grid": [True, 0.4]}, "x_grid entries"),
        ({"z_weights": [True]}, "z_weights entries"),
        ({"runtime_budget_seconds": "30"}, "runtime_budget_seconds"),
        ({"runtime_budget_seconds": True}, "runtime_budget_seconds"),
    ], ids=["alpha_bool", "zeta4_beta_bool", "speed_beta_string", "x_grid_bool",
            "z_weights_bool", "budget_string", "budget_bool"])
    def test_non_number_real_field_exits_2(self, tmp_path, capsys, overrides, field):
        """A real field takes an int or a float; a bool or a string is refused
        by name, never converted."""
        path = write_config(tmp_path, "cfg.json", base_config(tmp_path / "out", **overrides))
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_INVALID
        assert f"{field} must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, field", [
        ({"family": {"kind": "constant", "matrix": [[0.5, 0.5], [True, 0]]}}, "family matrix"),
        ({"family": {"kind": "table", "matrices": [[["0.5", 0.5], [0.5, 0.5]]],
                     "limit": [[0.5, 0.5], [0.5, 0.5]]}}, "family matrices"),
        ({"family": {"kind": "table", "matrices": [[[0.5, 0.5], [0.5, 0.5]]],
                     "limit": [[0.5, 0.5], [0.0, True]]}}, "family limit"),
        ({"initial": {"kind": "table", "probs": [True] + [0.0] * 119}}, "initial probs"),
        ({"observables": [{"kind": "table", "values": ["1", True] + [0.5] * 118}]},
         "observable values"),
        ({"observables": [{"kind": "table", "values": [0.5, True] + [0.5] * 118}]},
         "observable values"),
    ], ids=["matrix_bool", "matrices_string", "limit_bool", "probs_bool", "values_string",
            "values_bool_among_floats"])
    def test_non_number_table_entry_exits_2(self, tmp_path, capsys, overrides, field):
        """A table field takes numbers only: a bool or a numeric string is
        refused by name, also where numpy would convert it with the rest."""
        path = write_config(tmp_path, "cfg.json", base_config(tmp_path / "out", **overrides))
        assert cli.main(["rate", "--config", str(path)]) == cli.EXIT_INVALID
        assert f"{field} entries must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[]", "3", '"config"', "null"])
    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_INVALID
        assert "the config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, where", [
        ({"family": []}, "the family"),
        ({"initial": [1]}, "an initial-distribution"),
        ({"observables": [[]]}, "an observable"),
    ], ids=["family", "initial", "observable"])
    def test_spec_that_is_not_an_object_exits_2(self, tmp_path, capsys, overrides, where):
        path = write_config(tmp_path, "cfg.json", base_config(tmp_path / "out", **overrides))
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_INVALID
        assert f"{where} must be a JSON object" in capsys.readouterr().err

    ROWS = [[0.5, 0.5], [0.25, 0.75]]
    OTHER = [[0.1, 0.9], [0.6, 0.4]]
    # each kind's spec, and for each field the kind takes another valid value
    FAMILY_SPECS = {
        "zeta2": ({"kind": "zeta2", "alpha": 0.75, "N": 30, "tail_policy": "lump"},
                  {"alpha": 0.9, "N": 40, "tail_policy": "renormalize"}),
        "zeta4": ({"kind": "zeta4", "alpha": 0.75, "beta": 1.0, "N": 30, "tail_policy": "lump"},
                  {"alpha": 0.9, "beta": 0.5, "N": 40, "tail_policy": "renormalize"}),
        "constant": ({"kind": "constant", "matrix": ROWS, "N": 2, "tail_policy": "lump"},
                     {"matrix": OTHER, "N": 5, "tail_policy": "renormalize"}),
        "table": ({"kind": "table", "matrices": [ROWS], "limit": ROWS, "N": 2,
                   "tail_policy": "lump"},
                  {"matrices": [OTHER], "limit": OTHER, "N": 5, "tail_policy": "renormalize"}),
    }

    @pytest.mark.parametrize("kind", FAMILY_SPECS)
    def test_every_family_field_is_read(self, tmp_path, capsys, kind):
        """A family reads every field its kind takes: changing one to another
        valid value changes the family built, or the config exits 2 naming
        it.  A constant or table family's kernels are given whole, so a
        different ``N`` or a ``tail_policy`` other than lump exits 2."""
        def built(family):
            return (family.kind, family.size, family.tail_policy, family.alpha, family.beta,
                    family.limit.rows.tobytes(), [k.rows.tobytes() for k in family.table])

        spec, changes = self.FAMILY_SPECS[kind]
        assert set(changes) == set(nhmc.config._FAMILY_FIELDS[kind])
        base = built(nhmc.family_from_config(spec))
        for field, value in changes.items():
            changed = {**spec, field: value}
            path = write_config(tmp_path, "cfg.json", base_config(tmp_path / field,
                                                                  family=changed))
            status = cli.main(["validate", "--config", str(path)])
            if status == cli.EXIT_INVALID:
                assert f"family {field}" in capsys.readouterr().err, field
            else:
                assert status == 0 and built(nhmc.family_from_config(changed)) != base, field

    def test_constant_family_refuses_fields_it_would_drop(self, tmp_path, capsys):
        """A 2-state constant family that sets N = 5 and renormalize exits 2
        naming N, where both fields used to be dropped."""
        family = {"kind": "constant", "matrix": self.ROWS, "N": 5, "tail_policy": "renormalize"}
        path = write_config(tmp_path, "cfg.json", base_config(tmp_path / "out", family=family))
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_INVALID
        assert "family N is 5; its kernels have 2 states" in capsys.readouterr().err

    def test_integral_floats_are_integers(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(
            tmp_path, n_grid=[50.0, 2e2], trials=1e4, m_sup_range=20.0, base_seed=11.0,
            family={"kind": "zeta2", "alpha": 0.75, "N": 120.0},
            initial={"kind": "point_mass", "state": 2.0}))
        assert cfg.n_grid == (50, 200) and cfg.trials == 10000 and cfg.family.size == 120
        assert all(type(v) is int for v in (*cfg.n_grid, cfg.trials, cfg.m_sup_range,
                                            cfg.base_seed, cfg.family.size))
        assert cfg.initial.probs[1] == 1.0

    def test_missing_schema_version_exits_2(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        del cfg["schema_version"]
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_INVALID


class TestConditions:
    def test_constant_family_profiles_vanish(self, tmp_path):
        rng = np.random.default_rng(0)
        row = rng.random(6) + 0.2
        row /= row.sum()
        cfg = base_config(
            tmp_path / "out",
            family={"kind": "constant", "matrix": [row.tolist()] * 6},
            n_grid=[2, 8, 32],
        )
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["conditions", "--config", str(path)]) == 0
        rows = (tmp_path / "out" / "conditions.csv").read_text().splitlines()
        assert rows[0] == "condition_id,n,m_sup_range,value"
        values = [float(r.split(",")[-1]) for r in rows[1:]]
        assert max(values) <= 1e-12

    def test_two_state_identical_rows_constant_runs_on_its_band(self, tmp_path, monkeypatch):
        """At N = 2 no row lies below N - 1; the band's closed forms still
        give every condition, with no dense scan, and every value is 0 up to
        the Cesaro scan's rounding."""
        def dense(*args):
            raise AssertionError("a dense scan ran on an identical-rows constant family")

        for name in ("dobrushin_delta", "_kernel_distance", "_cesaro_gaps_closed"):
            monkeypatch.setattr(nhmc.ergodicity, name, dense)
        cfg = base_config(tmp_path / "out", family={"kind": "constant",
                                                    "matrix": [[0.3, 0.7], [0.3, 0.7]]},
                          n_grid=[1, 2, 64])
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["conditions", "--config", str(path)]) == 0
        rows = (tmp_path / "out" / "conditions.csv").read_text().splitlines()[1:]
        assert len(rows) == 9 and all(float(r.split(",")[-1]) <= 1e-12 for r in rows)

    def test_renormalize_cesaro_scan_stays_off_the_dense_path(self, tmp_path, monkeypatch):
        """At N=1000 under the caps (n <= 512, m <= 8) the renormalize scan
        runs on the band with a dense last-row block, never on row stacks."""
        def dense_scan(*args):
            raise AssertionError("renormalize scan took the dense row-stack path")

        monkeypatch.setattr(nhmc.ergodicity, "_cesaro_gaps_closed", dense_scan)
        cfg = base_config(
            tmp_path / "out",
            family={"kind": "zeta2", "alpha": 0.75, "N": 1000, "tail_policy": "renormalize"},
            n_grid=[64, 512, 2000],
        )
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["conditions", "--config", str(path)]) == 0
        summary = json.loads((tmp_path / "out" / "conditions_summary.json").read_text())
        cesaro = summary["cesaro_product_average"]
        assert cesaro["n_grid"] == [64, 512] and cesaro["m_sup_range"] == cli.CESARO_M_CAP
        assert 0.0 < cesaro["error_bound"] <= 1e-15

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = base_config(tmp_path / "out", n_grid=[10, 100])
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["conditions", "--config", str(path)]) == 0
        first = sha(tmp_path / "out" / "conditions.csv")
        assert cli.main(["conditions", "--config", str(path)]) == 0
        assert sha(tmp_path / "out" / "conditions.csv") == first




class TestTableFamily:
    """A ``table`` family (two listed kernels, then a limit without identical
    rows) through the config and every command: the dense fallbacks that no
    built-in family reaches."""

    LIMIT = [[0.4, 0.3, 0.2, 0.1], [0.1, 0.4, 0.3, 0.2],
             [0.2, 0.1, 0.4, 0.3], [0.3, 0.2, 0.1, 0.4]]
    MATRICES = [[[0.7, 0.1, 0.1, 0.1], [0.1, 0.7, 0.1, 0.1],
                 [0.1, 0.1, 0.7, 0.1], [0.1, 0.1, 0.1, 0.7]],
                [[0.25] * 4] * 4]

    def config(self, out_dir):
        family = {"kind": "table", "N": 4, "matrices": self.MATRICES, "limit": self.LIMIT}
        return base_config(out_dir, family=family, trials=1000, mdp_method="exact_dp")

    def test_every_command_runs(self, tmp_path, monkeypatch):
        """Pass flags are not asserted: θ is computed with the identical-row
        expression, which does not hold for this limit (ROADMAP open item 2)."""
        dense_scans = []
        real = nhmc.ergodicity._cesaro_gaps_closed

        def spy(*args):
            dense_scans.append(args)
            return real(*args)

        monkeypatch.setattr(nhmc.ergodicity, "_cesaro_gaps_closed", spy)
        cfg = self.config(tmp_path / "out")
        path = write_config(tmp_path, "cfg.json", cfg)
        for command in cli.COMMANDS:
            assert cli.main([command, "--config", str(path)]) == 0, command
        assert dense_scans
        rows = (tmp_path / "out" / "conditions.csv").read_text().splitlines()
        cesaro = [r for r in rows if r.startswith("cesaro_product_average,")]
        family = nhmc.family_from_config(cfg["family"])
        prof = nhmc.condition_profile(family, nhmc.ConvergenceCondition.CESARO_PRODUCT_AVERAGE,
                                      cfg["n_grid"], min(cfg["m_sup_range"], cli.CESARO_M_CAP))
        assert cesaro == [",".join(map(str, row)) for row in prof.csv_rows()]

class TestRate:
    def test_theta_matches_row_variance(self, tmp_path, q_zeta2):
        cfg = base_config(tmp_path / "out")
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["rate", "--config", str(path)]) == 0
        model = json.loads((tmp_path / "out" / "rate_model.json").read_text())
        assert model["theta"][0] == pytest.approx(q_zeta2 * (1 - q_zeta2), abs=1e-12)
        assert model["pi_residual"] <= 1e-10
        table = (tmp_path / "out" / "rate_table.csv").read_text().splitlines()
        assert table[0] == "observable,x,rate"

    def test_constant_observable_exits_3(self, tmp_path):
        cfg = base_config(
            tmp_path / "out",
            observables=[{"kind": "table", "values": [1.0] * 120}],
        )
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["rate", "--config", str(path)]) == cli.EXIT_HYPOTHESIS

    def test_duplicate_observables_report_rank_one(self, tmp_path):
        cfg = base_config(
            tmp_path / "out",
            observables=[{"kind": "indicator", "state": 1},
                         {"kind": "indicator", "state": 1}],
        )
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["rate", "--config", str(path)]) == 0
        model = json.loads((tmp_path / "out" / "rate_model.json").read_text())
        assert model["q_rank"] == 1


class TestExperiments:
    def test_clt_smoke(self, tmp_path):
        cfg = base_config(tmp_path / "out", n_grid=[100])
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["clt", "--config", str(path)]) == 0
        summary = json.loads((tmp_path / "out" / "clt_summary.json").read_text())
        run = summary["runs"][0]
        assert {"ks_statistic", "variance_ratio", "ks_pass", "variance_pass"} <= set(run)

    def test_clt_with_too_few_trials_exits_2_before_sampling(self, tmp_path, monkeypatch,
                                                             capsys):
        calls = []
        monkeypatch.setattr(cli, "simulate_sums", lambda *args: calls.append(args))
        path = write_config(tmp_path, "cfg.json", base_config(tmp_path / "out", trials=999))
        assert cli.main(["clt", "--config", str(path)]) == cli.EXIT_INVALID
        assert calls == []
        assert "clt needs trials >= 1000, got 999" in capsys.readouterr().err

    def test_mdp_smoke(self, tmp_path):
        cfg = base_config(tmp_path / "out", n_grid=[50, 150])
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["mdp", "--config", str(path)]) == 0
        lines = (tmp_path / "out" / "mdp.csv").read_text().splitlines()
        assert lines[0] == "n,x,method,log_prob,scaled,target,std_error,zero_hits"
        assert len(lines) == 1 + 2 * 2

    @pytest.mark.parametrize("method", ["exact_dp", "monte_carlo"])
    def test_huge_x_entries_leave_the_other_rows_as_they_were(self, tmp_path, method):
        """x = 1e300 and 1.7e308 (whose x^2 and x a(n) overflow) exit 0 with a
        rate of inf and tails of -inf; the rows of 0.0 and 0.4 are byte-identical
        to a run without them, and every summary is strict JSON, with no NaN
        or Infinity.  Below zero the target is 0, the upper tail's limit."""
        rows = {}
        for sub, xs in (("plain", [0.0, 0.4]), ("huge", [0.0, 0.4, 1e300, 1.7e308]),
                        ("negative", [0.0, 0.4, -1e300, -1.7e308])):
            cfg = base_config(tmp_path / sub, family={"kind": "zeta2", "alpha": 0.75, "N": 30,
                                                      "tail_policy": "lump"},
                              x_grid=xs, trials=1000, mdp_method=method)
            path = write_config(tmp_path, f"{sub}.json", cfg)
            assert cli.main(["rate", "--config", str(path)]) == 0
            assert cli.main(["mdp", "--config", str(path)]) == 0
            assert "NaN" not in (tmp_path / sub / "mdp_summary.json").read_text()
            for summary in (tmp_path / sub).glob("*.json"):
                json.loads(summary.read_text(), parse_constant=refuse_non_finite)
            rows[sub] = {name: (tmp_path / sub / name).read_text().splitlines()
                         for name in ("rate_table.csv", "mdp.csv")}
        plain, huge = rows["plain"], rows["huge"]
        negative = [row.split(",") for row in rows["negative"]["mdp.csv"]]
        assert [",".join(row) for row in negative if row[1] not in ("-1e+300", "-1.7e+308")] \
            == plain["mdp.csv"]
        assert [float(row[5]) for row in negative if row[1] in ("-1e+300", "-1.7e+308")] \
            == [0.0] * 4
        assert huge["rate_table.csv"] == plain["rate_table.csv"] + ["0,1e+300,inf",
                                                                    "0,1.7e+308,inf"]
        assert rows["negative"]["rate_table.csv"][3:] == ["0,-1e+300,inf", "0,-1.7e+308,inf"]
        mdp = [row.split(",") for row in huge["mdp.csv"]]
        assert [",".join(row) for row in mdp if row[1] not in ("1e+300", "1.7e+308")] \
            == plain["mdp.csv"]
        assert [row[3:6] for row in mdp if row[1] in ("1e+300", "1.7e+308")] == [["-inf"] * 3] * 4

    def test_exact_mdp_writes_missing_std_error_as_none(self, tmp_path):
        path = write_config(tmp_path, "cfg.json", base_config(tmp_path / "out", n_grid=[50]))
        assert cli.main(["mdp", "--config", str(path)]) == 0
        rows = (tmp_path / "out" / "mdp.csv").read_text().splitlines()[1:]
        assert [row.split(",")[6] for row in rows] == ["None", "None"]

    @pytest.mark.parametrize("command", ["clt", "mdp"])
    def test_one_sampling_pass_per_block_across_the_horizon_grid(self, tmp_path, monkeypatch,
                                                                 command):
        calls = []
        real = nhmc.simulate.sample_paths

        def counted(trials, mu0, family, n, base_seed):
            calls.append((len(trials), n))
            return real(trials, mu0, family, n, base_seed)

        monkeypatch.setattr(nhmc.simulate, "sample_paths", counted)
        cfg = base_config(tmp_path / "out", trials=5000, mdp_method="monte_carlo",
                          n_grid=[20, 60, 100])
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main([command, "--config", str(path)]) == 0
        assert calls == [(4096, 100), (904, 100)]  # blocks of at most 4096 trials

    def test_martingale_smoke(self, tmp_path):
        cfg = base_config(tmp_path / "out", trials=64)
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["martingale", "--config", str(path)]) == 0
        summary = json.loads((tmp_path / "out" / "martingale_summary.json").read_text())
        assert summary["residual_pass"]

    def test_degenerate_martingale_weights_exit_3(self, tmp_path, capsys):
        """z = 0 makes g constant: theta_g = 0, so no check of g can pass."""
        cfg = base_config(tmp_path / "out", trials=64, z_weights=[0.0, 0.0],
                          observables=[{"kind": "indicator", "state": 1},
                                       {"kind": "indicator", "state": 2}])
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["martingale", "--config", str(path)]) == cli.EXIT_HYPOTHESIS
        assert "theta_g" in capsys.readouterr().err
        assert not (tmp_path / "out" / "martingale.csv").exists()

    def test_workers_takes_only_one(self, tmp_path, capsys):
        """Blocks run on one thread: ``--workers 1`` runs, and any other count
        exits 2 through argparse, naming the flag, before anything is written."""
        cfg = base_config(tmp_path / "out", trials=1500, mdp_method="monte_carlo",
                          n_grid=[60])
        path = write_config(tmp_path, "cfg.json", cfg)
        for command in ("mdp", "clt"):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--config", str(path), "--workers", "2"])
            assert exc.value.code == cli.EXIT_INVALID
            assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        for command in ("mdp", "clt"):
            assert cli.main([command, "--config", str(path), "--workers", "1"]) == 0
        assert (tmp_path / "out" / "mdp.csv").exists()
        assert (tmp_path / "out" / "clt_samples.csv").exists()


class TestArtifacts:
    def test_manifest_checksums_match_outputs(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["rate", "--config", str(path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["library_version"]
        assert manifest["config"]["base_seed"] == 11
        for name, digest in manifest["outputs"].items():
            assert sha(tmp_path / "out" / name) == digest
        assert cli.verify_manifest(tmp_path / "out")
        (tmp_path / "out" / "rate_table.csv").write_text("tampered")
        assert not cli.verify_manifest(tmp_path / "out")

    @pytest.mark.parametrize("command", ["validate", "clt", "martingale"])
    def test_manifest_names_the_stream(self, tmp_path, command):
        """Every manifest records the stream's version and numpy's, which
        implements it: ``sampling.RNG_VERSION``, with the rest unchanged."""
        path = write_config(tmp_path, "cfg.json", base_config(tmp_path / "out"))
        assert cli.main([command, "--config", str(path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["rng_version"] == 2 and manifest["numpy_version"] == np.__version__
        assert nhmc.sampling.RNG_VERSION == {"rng_version": 2, "numpy_version": np.__version__}
        assert set(manifest) == {"command", "library_version", "config", "wall_clock_seconds",
                                 "outputs", "rng_version", "numpy_version"}
        assert cli.verify_manifest(tmp_path / "out")

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        override = tmp_path / "elsewhere"
        monkeypatch.setenv("NHMC_OUTPUT_DIR", str(override))
        cfg = base_config(tmp_path / "ignored")
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["rate", "--config", str(path)]) == 0
        assert (override / "rate_model.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_runtime_budget_exits_4(self, tmp_path):
        cfg = base_config(tmp_path / "out", runtime_budget_seconds=1e-9, n_grid=[400])
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["clt", "--config", str(path)]) == cli.EXIT_BUDGET

    def test_stationary_convergence_failure_exits_5(self, tmp_path, monkeypatch, capsys):
        def no_convergence(P):
            raise ConvergenceError("stationary solve residual 1e-3 exceeds 1e-10")

        monkeypatch.setattr(cli, "stationary", no_convergence)
        path = write_config(tmp_path, "cfg.json", base_config(tmp_path / "out"))
        assert cli.main(["rate", "--config", str(path)]) == cli.EXIT_NUMERICAL
        assert "residual" in capsys.readouterr().err

    def test_rate_consistency_failure_exits_5(self, tmp_path, monkeypatch, capsys):
        """A pi that is not stationary makes the two variance forms disagree."""
        monkeypatch.setattr(cli, "stationary",
                            lambda P: StationaryVector(np.full(P.size, 1.0 / P.size), 0.0))
        path = write_config(tmp_path, "cfg.json", base_config(tmp_path / "out"))
        assert cli.main(["rate", "--config", str(path)]) == cli.EXIT_NUMERICAL
        assert "disagree" in capsys.readouterr().err

    def test_dp_mean_mismatch_exits_5(self, tmp_path, monkeypatch, capsys):
        real = sumdist.expected_sum
        monkeypatch.setattr(sumdist, "expected_sum", lambda *args: real(*args) + 1.0)
        path = write_config(tmp_path, "cfg.json", base_config(tmp_path / "out"))
        assert cli.main(["mdp", "--config", str(path)]) == cli.EXIT_NUMERICAL
        assert "DP mean" in capsys.readouterr().err

    def test_out_of_memory_exits_4(self, tmp_path, monkeypatch, capsys):
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "simulate_sums", no_memory)
        path = write_config(tmp_path, "cfg.json", base_config(tmp_path / "out"))
        assert cli.main(["clt", "--config", str(path)]) == cli.EXIT_BUDGET
        assert "out of memory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_svg_flag_is_rejected(self, tmp_path, command):
        path = write_config(tmp_path, "cfg.json", base_config(tmp_path / "out"))
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(path), "--svg"])
        assert exc.value.code == 2


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's nhmc."""
    src = str(Path(nhmc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_loads_no_scipy_module():
    """numpy is nhmc's only runtime library; scipy serves the tests alone."""
    code = ("import sys, nhmc.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    assert run_python(code).strip() == "[]"


def test_every_command_runs_with_scipy_unimportable(tmp_path):
    cfg = base_config(tmp_path / "out", family={"kind": "zeta2", "alpha": 0.75, "N": 30},
                      n_grid=[20, 60], m_sup_range=5, trials=1000)
    path = write_config(tmp_path, "cfg.json", cfg)
    code = ("import json, sys\n"
            "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
            "from nhmc import cli\n"
            "print(json.dumps({c: cli.main([c, '--config', sys.argv[1]]) for c in cli.COMMANDS}))")
    codes = json.loads(run_python(code, path).splitlines()[-1])
    assert codes == dict.fromkeys(cli.COMMANDS, 0)


def test_every_command_runs_at_n_32767_in_3_gib(tmp_path):
    """No command builds an N x N array for a built-in family: at N = 32767,
    where one would take 8 GiB, all six exit 0 under a 3 GiB address-space
    limit."""
    cfg = base_config(tmp_path / "out", family={"kind": "zeta2", "alpha": 0.75, "N": 32767},
                      observables=[{"kind": "indicator", "state": 1},
                                   {"kind": "capped_identity", "cap": 3}],
                      n_grid=[10, 40], m_sup_range=4, trials=1000)
    path = write_config(tmp_path, "cfg.json", cfg)
    code = ("import json, resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))\n"
            "from nhmc import cli\n"
            "print(json.dumps({c: cli.main([c, '--config', sys.argv[1]]) for c in cli.COMMANDS}))")
    codes = json.loads(run_python(code, path).splitlines()[-1])
    assert codes == dict.fromkeys(cli.COMMANDS, 0)
