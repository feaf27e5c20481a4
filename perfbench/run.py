"""splineproj benchmark: time to certificate per workload, and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify-dense --seed 3 --seconds 55 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the ``end_to_end`` ones of ``BENCHMARK.json``; with
``--trace 1`` the ``per_layer`` ones.  The line before it records the
environment.  See ``perfbench/NOTES.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: OpenBLAS threads in every process the benchmark starts: a single-threaded
#: baseline, steadier than 2 threads on a shared 2-core machine.
BLAS_THREADS = 1
#: A run must end within 180 s: the worker is stopped after this long.
WORKER_TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("SPLINEPROJ_OUT", None)
    return env


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "splineproj", "__init__.py")):
        return fail(f"no splineproj sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = os.path.join(ROOT, ".perfbench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = child_env()
    result_path = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--result", result_path]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("worker did not finish in time")
    if proc.returncode != 0 or not os.path.exists(result_path):
        return fail(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result_path) as fh:
        res = json.load(fh)
    walls, setup = res["walls"], res["setup"]
    wall, setup_s = res["wall_s"], res["setup_s"]
    median_pass = statistics.median(walls)
    if args.trace:
        values = dict(res["layers"])
        values.update({
            "process.cpu_s": statistics.median(res["cpus"]),
            "process.first_pass_s": walls[0],
            "host.probe_s": res["probe_s"],
            "trace.overhead_s": res["traced_wall"] - median_pass,
            "cli.csv_identical": res["csv_identical"],
            "cli.csv_files": res["csv_files"],
            "gate.failed_frac": res["failed"] / res["attempted"],
        })
    else:
        values = {
            "wall_s": wall,
            "setup_s": setup_s,
            "peak_rss_mb": res["peak_rss_mb"],
            "pass_frac": res["passed"] / res["attempted"],
        }
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}

    env_record = dict(res["env"], wall_samples=len(walls), setup_samples=len(setup),
                      run_seconds=args.seconds)
    print("env " + json.dumps(env_record, sort_keys=True))
    q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    print(f"{args.workload} seed {args.seed}: wall_s {wall:.4f} s, setup_s {setup_s:.4f} s "
          f"at the reference host speed; host probe median {res['probe_s']:.4f} s "
          f"(reference {res['probe_reference_s']}); as measured: passes "
          f"median {median_pass:.4f} s (quartiles {q1:.4f}..{q3:.4f}, "
          f"{len(walls)} passes, first {walls[0]:.4f} s), "
          f"imports median {statistics.median(setup):.4f} s ({len(setup)}), "
          f"peak_rss_mb {res['peak_rss_mb']:.1f}, "
          f"failed_frac {res['failed']}/{res['attempted']}, "
          f"pass_frac {res['passed']}/{res['attempted']}")
    for problem in res["problems"]:
        print(f"gate: {problem}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
