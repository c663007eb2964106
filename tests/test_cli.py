import copy
import hashlib
import importlib.util
import json

import numpy as np
import pytest

from nhmc import cli


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

    def test_bad_alpha_exits_2(self, tmp_path):
        cfg = base_config(tmp_path / "out", family={"kind": "zeta2", "alpha": 0.4, "N": 50})
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_INVALID

    def test_zeta4_scale_above_one_exits_2(self, tmp_path):
        cfg = base_config(tmp_path / "out", family={"kind": "zeta4", "alpha": 0.75,
                                                    "beta": 3.0, "N": 50})
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_INVALID

    def test_band_overflow_exits_2(self, tmp_path):
        cfg = base_config(tmp_path / "out", family={"kind": "zeta2", "alpha": 0.75, "N": 2})
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_INVALID

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

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = base_config(tmp_path / "out", n_grid=[10, 100])
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["conditions", "--config", str(path)]) == 0
        first = sha(tmp_path / "out" / "conditions.csv")
        assert cli.main(["conditions", "--config", str(path)]) == 0
        assert sha(tmp_path / "out" / "conditions.csv") == first


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
            observables=[{"kind": "table", "values": [1.0] * 120, "tail_value": 1.0}],
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

    def test_mdp_smoke(self, tmp_path):
        cfg = base_config(tmp_path / "out", n_grid=[50, 150])
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["mdp", "--config", str(path)]) == 0
        lines = (tmp_path / "out" / "mdp.csv").read_text().splitlines()
        assert lines[0] == "n,x,method,log_prob,scaled,target,std_error,zero_hits"
        assert len(lines) == 1 + 2 * 2

    def test_martingale_smoke(self, tmp_path):
        cfg = base_config(tmp_path / "out", trials=64)
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["martingale", "--config", str(path)]) == 0
        summary = json.loads((tmp_path / "out" / "martingale_summary.json").read_text())
        assert summary["residual_pass"]

    def test_worker_count_reproduces_csv_bytes(self, tmp_path):
        digests = {}
        for workers, sub in ((1, "w1"), (6, "w6")):
            cfg = base_config(tmp_path / sub, trials=1500, mdp_method="monte_carlo",
                              n_grid=[60])
            path = write_config(tmp_path, f"cfg_{sub}.json", cfg)
            assert cli.main(["mdp", "--config", str(path), "--workers", str(workers)]) == 0
            assert cli.main(["clt", "--config", str(path), "--workers", str(workers)]) == 0
            digests[sub] = (
                sha(tmp_path / sub / "mdp.csv"),
                sha(tmp_path / sub / "clt_samples.csv"),
            )
        assert digests["w1"] == digests["w6"]


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

    def test_svg_flag_writes_plot(self, tmp_path):
        pytest.importorskip("matplotlib")
        cfg = base_config(tmp_path / "out", n_grid=[10, 40])
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["conditions", "--config", str(path), "--svg"]) == 0
        assert (tmp_path / "out" / "conditions.svg").exists()

    @pytest.mark.skipif(importlib.util.find_spec("matplotlib") is not None,
                        reason="matplotlib is installed; test_svg_flag_writes_plot covers --svg")
    def test_svg_flag_without_matplotlib_notes_and_skips_plot(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out", n_grid=[10, 40])
        path = write_config(tmp_path, "cfg.json", cfg)
        assert cli.main(["conditions", "--config", str(path), "--svg"]) == 0
        assert "matplotlib not installed" in capsys.readouterr().err
        assert not (tmp_path / "out" / "conditions.svg").exists()
        assert cli.verify_manifest(tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert not any(name.endswith(".svg") for name in manifest["outputs"])
