"""Digests of the outputs of the six commands, and how many differ from another run's.

    PYTHONPATH=src:. python scripts/artifact_digests.py WORK_DIR [BASE_DIGESTS]

Runs validate, conditions, rate, clt, mdp and martingale on both configs of
every perfbench workload at seed 0, under WORK_DIR, and prints one line
``sha256  path`` per CSV and non-manifest JSON they write, sorted by path.
``nhmc`` comes from the first ``src`` on the path and the workloads from
``perfbench``, so one set of workloads can run against two checkouts.

With BASE_DIGESTS, the lines this script printed for another checkout, it
then prints how many files differ from those (a file only one side wrote
differs too), and which.  A differing file does not fail the run, since a
change may move outputs on purpose; a command that exits non-zero, or a JSON
output holding NaN or +-Infinity (which strict JSON parsers refuse), does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from nhmc import cli
from perfbench.workloads import COMMANDS, WORKLOADS, configs


def _refuse(name):
    raise ValueError(f"{name} is not JSON")


def digests(work: Path) -> tuple[dict, list]:
    """{path under ``work``: sha256} of every output, and the failures."""
    out, failed = {}, []
    for name in WORKLOADS:
        for key, cfg in configs(name, 0).items():
            for command in COMMANDS:
                run_dir = work / name / key / command
                path = work / name / key / f"{command}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps({**cfg, "output_dir": str(run_dir)}))
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli.main([command, "--config", str(path)])
                if status:
                    failed.append(f"{name}/{key}/{command} exited {status}")
                    continue
                for file in run_dir.iterdir():
                    if file.suffix not in (".csv", ".json") or file.name == "manifest.json":
                        continue
                    out[str(file.relative_to(work))] = hashlib.sha256(file.read_bytes()).hexdigest()
                    if file.suffix == ".json":
                        try:
                            json.loads(file.read_text(), parse_constant=_refuse)
                        except ValueError as exc:
                            failed.append(f"{file.relative_to(work)}: {exc}")
    return out, failed


def main(argv: list[str]) -> int:
    head, failed = digests(Path(argv[0]))
    for path in sorted(head):
        print(f"{head[path]}  {path}")
    if len(argv) > 1:
        lines = Path(argv[1]).read_text().splitlines()
        base = {path: digest for digest, path in (line.split("  ", 1) for line in lines)}
        differ = sorted(p for p in head.keys() | base.keys() if head.get(p) != base.get(p))
        print(f"{len(differ)} of {len(head.keys() | base.keys())} files differ from the base")
        for path in differ:
            print(path)
    if failed:
        print("; ".join(failed), file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
