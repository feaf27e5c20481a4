"""Rewrite ``reference.json``: compact digests of every workload's CSVs at the
reference seed.

Run from the root of a checkout whose outputs are known to be right:

    python3 perfbench/record_reference.py

Recording a new reference is a change to the benchmark's correctness gate
and belongs in a change of its own.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import run
from gate import REFERENCE_PATH, REFERENCE_SEED, csv_files, digest
from workloads import WORKLOADS, experiments


def main() -> int:
    os.environ.update(run.child_env())
    sys.path.insert(0, os.environ["PYTHONPATH"])
    import splineproj.cli as cli

    workdir = os.path.join(run.ROOT, ".perfbench_work", "reference")
    shutil.rmtree(workdir, ignore_errors=True)
    doc = {"seed": REFERENCE_SEED, "workloads": {}}
    for workload in WORKLOADS:
        files = {}
        for i, argv in enumerate(experiments(workload, REFERENCE_SEED)):
            outdir = os.path.join(workdir, workload, str(i))
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv + ["--output", outdir])
            names = csv_files(outdir)
            if names:
                files[str(i)] = {name: digest(os.path.join(outdir, name)) for name in names}
        doc["workloads"][workload] = files
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
