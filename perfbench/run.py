"""Benchmark of the nhmc experiment CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload runs in a fresh
interpreter (``harness.py``) with ``src`` on the path and the BLAS thread
count pinned to 1; with ``--trace 0`` the launcher then times set-up
(``import nhmc.cli`` plus ``ExperimentConfig.from_file`` of the workload's
main config) in ``SETUP_RUNS`` further fresh interpreters and reports the
median, each normalized by the machine-speed probe (``calibrate.py``) run in
the same interpreter right after it.  Before the result it prints one JSON line with the environment
record; the last line of standard output is the result.  The exit code is
non-zero, with no result printed, when the checkout holds no ``src/nhmc`` or
the workload process fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

BLAS_THREADS = "1"  # the CLI runs with --workers 1; one BLAS thread keeps timings comparable
SETUP_RUNS = 3
SETUP_PROBE_SETS = 6  # about 0.25 s of probing after each set-up, once it is timed
HARNESS_TIMEOUT = 150
SETUP_TIMEOUT = 20
SETUP_CODE = """
import sys, time
start = time.perf_counter()
import nhmc.cli
nhmc.cli.ExperimentConfig.from_file(sys.argv[1])
seconds = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import calibrate
probe = calibrate.Probe()
for _ in range(int(sys.argv[3])):
    probe.run_set()
print(seconds, probe.slowdown())
"""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def git_commit() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def setup_seconds(config: Path, env: dict) -> tuple[float, float]:
    """Median set-up time, normalized by the probe that follows it, and raw."""
    normalized, raw = [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(config), str(BENCH), str(SETUP_PROBE_SETS)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT, check=True,
        )
        seconds, slowdown = map(float, proc.stdout.split())
        normalized.append(seconds / slowdown)
        raw.append(seconds)
    return statistics.median(normalized), statistics.median(raw)


def run(args, workdir: Path, tiny: bool = False) -> dict:
    """One benchmark run: the harness's result, plus set-up time when untraced."""
    env = child_env()
    cmd = [sys.executable, str(BENCH / "harness.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=HARNESS_TIMEOUT, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        paths = workloads.write_configs(args.workload, args.seed, workdir, tiny)
        setup, result["environment"]["raw_setup_s"] = setup_seconds(paths["main"], env)
        result["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
    result["environment"]["commit"] = git_commit()
    return result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="nhmc CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nhmc" / "cli.py").is_file():
        print(f"error: no nhmc source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, workdir)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    for failure in result.pop("failures"):
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"environment": result.pop("environment")}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
