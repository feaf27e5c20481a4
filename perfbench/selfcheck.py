"""Self-check of the traced run; exits non-zero on a failed assertion.

    python3 perfbench/selfcheck.py

For each workload it runs the benchmark twice with ``--trace 1`` at seed
``SEED`` and checks two things:

* every count metric (``calls``, ``points``, ``evals``, ``pieces_*``,
  ``rows``, ``bytes``, ``max_*``) repeats exactly between the two runs;
* the self times of all spans plus the glue (the part of the traced pass
  that no experiment span covers) add up to the traced pass's wall time, and
  the glue is a small share of it.  Self times subtract the part of a span
  that its children cover, and the glue is measured from the gaps between
  experiment spans, so the sum only matches when spans nest properly:
  children inside their parent, siblings and experiments not overlapping,
  every experiment inside the pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run
from tracing import covered, self_times

SEED = 1
COUNT_STATS = ("calls", "points", "evals", "pieces_in", "pieces_out", "rows",
               "bytes", "max_depth", "max_order")
#: Largest share of the traced pass outside every experiment span (the
#: harness loop between experiments).
MAX_GLUE_SHARE = 0.01


def traced_run(workload: str) -> tuple[dict, dict, dict]:
    out = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=run.ROOT)
    line = json.loads(out.stdout.strip().splitlines()[-1])
    workdir = os.path.join(run.ROOT, ".perfbench_work", workload)
    with open(os.path.join(workdir, "result.json")) as fh:
        result = json.load(fh)
    with open(os.path.join(workdir, "spans.json")) as fh:
        spans = json.load(fh)
    return line, result, spans


def check_accounting(trace: dict) -> list[str]:
    start, end = trace["pass"]
    spans = trace["spans"]
    wall = end - start
    own = self_times(spans)
    roots = [(s, e) for _, s, e, parent, _ in spans if parent < 0]
    glue = wall - covered(start, end, roots)
    problems = []
    if abs(sum(own) + glue - wall) > 1e-6 * wall:
        problems.append(f"self times {sum(own)} + glue {glue} != traced wall {wall}")
    if not 0 <= glue <= MAX_GLUE_SHARE * wall:
        problems.append(f"glue {glue} s outside [0, {MAX_GLUE_SHARE} * wall {wall}]")
    if min(own) < 0:
        problems.append(f"negative self time {min(own)}")
    return problems


def check(workload: str) -> list[str]:
    problems = []
    (first, res1, spans1), (second, res2, spans2) = traced_run(workload), traced_run(workload)
    if not (first["correct"] and second["correct"]):
        problems.append("a traced run failed the correctness gate")
    names = sorted(set(res1["layers"]) | set(res2["layers"]))
    counts = [n for n in names if n.rsplit(".", 1)[-1] in COUNT_STATS]
    for name in counts:
        a, b = res1["layers"].get(name), res2["layers"].get(name)
        if a != b:
            problems.append(f"count {name} differs between runs: {a} vs {b}")
    problems += check_accounting(spans1) + check_accounting(spans2)
    print(f"{workload}: {len(counts)} count metrics compared, "
          f"{'ok' if not problems else 'FAILED'}")
    return problems


def main() -> int:
    problems = []
    for workload in run.WORKLOADS:
        problems += [f"{workload}: {p}" for p in check(workload)]
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
