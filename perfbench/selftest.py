"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload it runs the launcher's untraced and traced paths at the
self-test sizes and asserts that

* every metric named in BENCHMARK.json is emitted, with its unit, and every
  output check passed;
* every span's self time is >= 0 and every span nests under ``cli.run``;

then it corrupts outputs on purpose and asserts that the checker counts each
corruption as a failure.  Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import check  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORKDIR = ROOT / ".perfbench_work" / "selftest"


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def check_runs() -> None:
    declared = declared_metrics()
    for name in workloads.WORKLOADS:
        for trace in ("0", "1"):
            args = run.parse_args(["--workload", name, "--seed", "3", "--seconds", "1",
                                   "--trace", trace])
            result = run.run(args, WORKDIR / f"{name}-{trace}", tiny=True)
            label = f"{name} --trace {trace}"
            expect(result["correct"] and result["failed"] == 0,
                   f"{label}: checks failed: {result['failures']}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(units == declared[trace],
                   f"{label}: emitted {sorted(units.items())}, declared {sorted(declared[trace].items())}")
            expect(not result["environment"]["missing_trace_targets"],
                   f"{label}: trace targets missing: {result['environment']['missing_trace_targets']}")
            for spans in result.get("spans", []):
                expect(bool(spans), f"{label}: a traced iteration recorded no spans")
                for span_name, self_time, root in spans:
                    expect(self_time >= 0.0, f"{label}: {span_name} self time {self_time} < 0")
                    expect(root == "cli.run", f"{label}: {span_name} nests under {root}, not cli.run")
            print(f"ok {label}: {len(units)} metrics")


def rewrite_manifest(out: Path) -> None:
    """Make the manifest match the files again, as a program writing wrong values would."""
    manifest = json.loads((out / "manifest.json").read_text())
    for name in manifest["outputs"]:
        manifest["outputs"][name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest))


def edit_csv(path: Path, row: int, column: str, value: str) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    cells[header.index(column)] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def check_corruption() -> None:
    """Each deliberately corrupted output must count as a failure."""
    cases = [
        # (workload, config key, command, file, row, column, value, expected message)
        ("exact", "main", "conditions", "conditions.csv", 1, "value", "0.123", "conditions"),
        ("exact", "main", "mdp", "mdp.csv", 2, "log_prob", "-0.5", "mdp"),
        ("mc_long", "main", "martingale", "martingale.csv", 1, "variance_value", "0.5",
         "martingale"),
        ("mc_long", "main", "martingale", "martingale.csv", 1, "max_pathwise_residual",
         "1e-6", "pathwise residual"),
        ("mc_wide", "main", "clt", "clt_samples.csv", 1, "sum", "1e6", "outside"),
        ("mc_wide", "main", "clt", "clt_samples.csv", 1, "n", "17", "samples"),
        ("mc_wide", "main", "mdp", "mdp.csv", 1, "log_prob", "-30.0", "tail frequency"),
    ]
    works: dict[str, harness.Workload] = {}
    for case, (name, key, command, filename, row, column, value, message) in enumerate(cases):
        if name not in works:
            works[name] = harness.Workload(name, 3, WORKDIR / f"corrupt-{name}", tiny=True)
            works[name].reference = works[name].record()
        work = works[name]
        out = work.workdir / f"case{case}"
        code, _ = harness.run_command(command, work.paths[key], out)
        config, ref = work.configs[key], work.reference[key]
        expect(code == 0 and not check.check_command(command, out, config, ref),
               f"{name} {command}: the uncorrupted output does not pass")
        expect(not work._same_bytes(f"{key}-{command}", out),
               f"{name} {command}: a rerun with the same seed is not byte-identical")
        edit_csv(out / filename, row, column, value)
        errors = check.check_command(command, out, config, ref)
        expect(any("manifest" in e for e in errors),
               f"{filename} edited without its manifest: not caught ({errors})")
        expect(any(filename in e for e in work._same_bytes(f"{key}-{command}", out)),
               f"{filename} edited: byte-identity check did not catch it")
        rewrite_manifest(out)
        errors = check.check_command(command, out, config, ref)
        expect(any(message in e for e in errors),
               f"{filename} {column}={value}: expected a '{message}' failure, got {errors}")
        print(f"ok corrupt {name} {filename} {column}: {errors[0]}")


def main() -> int:
    try:
        check_runs()
        check_corruption()
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.parent.rmdir()  # only when no benchmark run is using it
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
