"""One benchmark run of one workload, in a fresh interpreter.

    python3 perfbench/harness.py --workload W --seed N --seconds S --trace 0|1 --workdir DIR [--tiny]

``perfbench/run.py`` starts this process with the BLAS thread count pinned
and ``src`` on the path; run it through that launcher.  It repeats the
workload's command sequence, each command through ``nhmc.cli.main`` with
``--workers 1`` and its own ``NHMC_OUTPUT_DIR``, for ``--seconds`` (an
iteration starts only while it is expected to end in time, and at least
``MIN_ITERATIONS`` run), checks every output, and prints one JSON line: the
result plus an environment record.

With ``--trace 1`` iterations alternate untraced and traced; the span
metrics are medians over the traced ones, the per-command wall times
(``cli.<command>_wall_s``) medians over the untraced ones, and
``trace.overhead_s`` is the traced minus the untraced median wall time.
With ``--trace 0`` the end-to-end times are per-iteration means divided by
the run's probe slowdown (``calibrate.py``); the raw means and the slowdown
go into the environment record.  ``--tiny`` runs the self-test
sizes and records their reference values first, from the same program.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_ITERATIONS = 2
MAX_MEASURE_SECONDS = 120.0  # stop starting iterations here whatever --seconds says
REFERENCE = BENCH / "reference.json"

E2E_UNITS = {"wall_ref_s": "s", "smoke_ref_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}
# Per-command wall times are reported per layer, not end to end: a command
# the workload runs only on its smoke config takes a few tenths of a second,
# and such short timings spread by more than any end-to-end bound allows.
LAYER_UNITS = {
    **tracer.UNITS,
    **{f"cli.{c}_wall_s": "s" for c in workloads.COMMANDS},
    "cli.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
}


def run_command(command: str, config_path: Path, out: Path) -> tuple[int, float]:
    """Run one CLI command in-process; returns (exit code, wall seconds)."""
    from nhmc import cli

    out.mkdir(parents=True)
    os.environ["NHMC_OUTPUT_DIR"] = str(out)
    argv = [command, "--config", str(config_path), "--workers", "1"]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # a crash is a failed command, not a failed benchmark
        print(f"{command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = -1
    return code, time.perf_counter() - start


class Workload:
    """The configs, steps and reference of one workload, plus its run state."""

    def __init__(self, name: str, seed: int, workdir: Path, tiny: bool):
        self.steps = workloads.steps(name)
        self.paths = workloads.write_configs(name, seed, workdir, tiny)
        self.configs = {k: json.loads(p.read_text()) for k, p in self.paths.items()}
        self.workdir = workdir
        self.reference: dict[str, dict] = {}
        self.digests: dict[str, str] = {}  # first iteration's CSV digests
        self.attempted = 0
        self.failures: list[str] = []
        self.probe = calibrate.Probe()

    def record(self) -> dict:
        """Reference values of every config, from one pass of the steps."""
        ref: dict[str, dict] = {key: {} for key in self.configs}
        for command, key in self.steps:
            out = self.workdir / "record" / f"{key}-{command}"
            code, _ = run_command(command, self.paths[key], out)
            if code != 0:
                raise RuntimeError(f"{command} on {key} exited {code} while recording")
            ref[key].update(check.record(command, out, self.configs[key]))
        shutil.rmtree(self.workdir / "record")
        return ref

    def iterate(self, index: int) -> dict:
        """One pass of the steps: per-command times, artifact bytes; checks outputs."""
        times = {c: 0.0 for c in workloads.COMMANDS}
        smoke = 0.0
        artifact_bytes = 0
        it_dir = self.workdir / f"it{index}"
        for command, key in self.steps:
            out = it_dir / f"{key}-{command}"
            code, seconds = run_command(command, self.paths[key], out)
            self.probe.follow(seconds)
            times[command] += seconds
            if key == "smoke":
                smoke += seconds
            self.attempted += 1
            if code != 0:
                errors = [f"exit code {code}"]
            else:
                errors = check.check_command(command, out, self.configs[key], self.reference[key])
                errors += self._same_bytes(f"{key}-{command}", out)
                artifact_bytes += sum(p.stat().st_size for p in out.iterdir())
            if errors:
                self.failures.append(f"iteration {index} {key} {command}: {'; '.join(errors[:3])}")
        shutil.rmtree(it_dir)
        return {"times": times, "wall": sum(times.values()), "smoke": smoke,
                "artifact_bytes": artifact_bytes}

    def _same_bytes(self, label: str, out: Path) -> list[str]:
        errors = []
        for path in sorted(out.glob("*.csv")):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            first = self.digests.setdefault(f"{label}/{path.name}", digest)
            if digest != first:
                errors.append(f"{path.name} differs from the first iteration")
        return errors


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workers": 1,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path, tiny: bool) -> dict:
    import nhmc

    src = (ROOT / "src").resolve()
    if src not in Path(nhmc.__file__).resolve().parents:
        raise RuntimeError(f"imported nhmc from {nhmc.__file__}, not from {src}")
    work = Workload(name, seed, workdir, tiny)
    work.reference = work.record() if tiny else json.loads(REFERENCE.read_text())[name]
    spans = tracer.Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    budget = min(seconds, MAX_MEASURE_SECONDS)
    index = 0
    last = 0.0
    # start another iteration only while it is expected to end within the budget
    while index < MIN_ITERATIONS or time.perf_counter() - start + last <= budget:
        began = time.perf_counter()
        if trace and index % 2 == 1:
            spans.reset()
            with spans.installed():
                record = work.iterate(index)
            record["layers"] = spans.metrics()
            record["spans"] = [(s.name, s.self_time, s.root.name) for s in spans.spans]
            traced.append(record)
        else:
            untraced.append(work.iterate(index))
        last = time.perf_counter() - began
        index += 1

    if trace:
        metrics = {
            metric: statistics.median([r["layers"][metric] for r in traced])
            for metric in traced[0]["layers"]
        }
        for command in workloads.COMMANDS:
            metrics[f"cli.{command}_wall_s"] = statistics.median(
                [r["times"][command] for r in untraced]
            )
        metrics["cli.artifact_bytes"] = statistics.median([r["artifact_bytes"] for r in traced])
        metrics["trace.overhead_s"] = statistics.median([r["wall"] for r in traced]) - (
            statistics.median([r["wall"] for r in untraced])
        )
        units = LAYER_UNITS
    else:
        # means, like the probe's: both weight the machine's states by time
        slowdown = work.probe.slowdown()
        raw = {"wall_s": statistics.mean([r["wall"] for r in untraced]),
               "smoke_s": statistics.mean([r["smoke"] for r in untraced])}
        metrics = {"wall_ref_s": raw["wall_s"] / slowdown,
                   "smoke_ref_s": raw["smoke_s"] / slowdown}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["pass_ratio"] = (work.attempted - len(work.failures)) / work.attempted
        units = E2E_UNITS
    result = {
        "correct": not work.failures,
        "attempted": work.attempted,
        "failed": len(work.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
        "environment": {**environment(), "iterations": index, "traced_iterations": len(traced),
                        "missing_trace_targets": spans.missing,
                        "probe_slowdown": work.probe.slowdown(),
                        **({} if trace else {f"raw_{k}": v for k, v in raw.items()})},
        "failures": work.failures[:20],
    }
    if tiny:
        result["spans"] = [r["spans"] for r in traced]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.workdir, args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
