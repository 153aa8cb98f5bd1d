"""Record the reference results that every benchmark op is checked against.

Runs every job of the pool (each slot of each in-process workload under
each library-seed variant) and the six README commands once, and writes
their checkable summaries to ``perfbench/reference.json``. Run it from the
root of a source checkout only when the package's results are meant to
change; the file pins the results of the commit it was made at.

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads as W  # noqa: E402


def main() -> int:
    ref: dict = {}
    for workload, slots in W.SLOTS.items():
        for v in range(W.VARIANTS):
            setup = W.Setup(workload, 0, [v] * len(slots))
            for job in setup.jobs:
                if job.id not in ref:
                    ref[job.id] = job.run()
                    print(job.id, ref[job.id].get("trend"), flush=True)
    workdir = ROOT / ".perfbench" / "tmp" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in W.CLI_COMMANDS:
            _, rc, stdout = W.run_cli(name, ROOT, workdir)
            ref[f"cli-readme:{name}"] = W.cli_summary(name, rc, stdout, workdir)
            print(name, rc, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
