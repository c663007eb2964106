"""Record the exact reference values the output checks compare against.

    python3 perfbench/record_reference.py

Runs every workload's command sequence once at benchmark size and writes
``perfbench/reference.json``.  The values do not depend on the seed.  Record
them again only when a change to the program is meant to change an exact
output, and say so where the change is described.
"""

import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as in the benchmark's own processes
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import harness  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    workdir = BENCH.parent / ".perfbench_work" / "record"
    reference = {}
    try:
        for name in workloads.WORKLOADS:
            reference[name] = harness.Workload(name, 0, workdir / name, tiny=False).record()
            print(f"recorded {name}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    harness.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
