"""The benchmark traces the program from outside, at each import site; a
renamed or removed site would make its per-layer metric read 0."""

import json

from nhmc import cli
from perfbench.tracer import Tracer


def test_every_trace_target_resolves():
    with Tracer().installed() as tracer:
        assert tracer.missing == []


def test_traced_clt_counts_every_sampled_trial_step(tmp_path, capsys):
    """The sampling counters read the calls of ``nhmc.simulate.sample_paths``:
    sampling that moved off it would leave them at 0."""
    trials, n_grid = 1100, [16, 40]
    cfg = {
        "schema_version": 1,
        "family": {"kind": "zeta2", "alpha": 0.75, "N": 30, "tail_policy": "lump"},
        "observables": [{"kind": "indicator", "state": 1}],
        "n_grid": n_grid,
        "trials": trials,
        "base_seed": 3,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with Tracer().installed() as tracer:
        assert cli.main(["clt", "--config", str(path)]) == 0
    metrics = tracer.metrics()
    assert metrics["sampling.trials"] == trials
    assert metrics["sampling.trial_steps"] == trials * max(n_grid)
