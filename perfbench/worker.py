"""One benchmark run in a fresh process: import splineproj, run passes, gate them.

Started by ``run.py``; not meant to be run by hand.  A pass calls
``splineproj.cli.main(argv)`` in-process for each experiment of the
workload, in order, each one after the previous returns (a closed loop with
one client).  Untraced passes are timed while the next one is expected to
end within ``--seconds``, each followed by one timed ``import splineproj``
in a fresh interpreter.  Every experiment and every import is bracketed by
two runs of ``host_probe``, a fixed job whose time tells how fast the shared
host is running at that moment; ``wall_s`` and ``setup_s`` are the measured
times scaled by ``HOST_REFERENCE_S`` over the probe time next to them.  The
first pass, which also pays first-call costs (lazy imports, first-use
caches), is kept as well.  With ``--trace 1`` one more pass runs, without
probes, with the timing wrappers of ``tracing.py`` installed, which are
removed afterwards.  The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import gate
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Start no pass expected to end after this much time in the worker, so that a
# run ends well inside the 180 s it may take even when the program is slower.
DEADLINE_S = 120.0

#: Median time of ``host_probe`` on the machine the benchmark was defined on
#: (2-core x86 virtual machine, Intel Xeon, 1 BLAS thread) while that shared
#: host ran at its fast speed.  It only sets the scale of ``wall_s`` and
#: ``setup_s``: they read as seconds on that machine at that speed.
HOST_REFERENCE_S = 0.037

_PROBE_RNG = np.random.default_rng(0)
_PROBE_VEC = _PROBE_RNG.random(64)
_PROBE_MAT = _PROBE_RNG.random((200, 200)) + 200.0 * np.eye(200)


def host_probe() -> float:
    """Seconds for a fixed job that mixes what ``splineproj`` spends its time
    on: a pure-Python loop, numpy calls on small arrays and dense inverses.

    On a shared virtual machine the speed can swing by up to 2x within
    seconds and sometimes for whole minutes; the probe slows with it.  Its
    code and inputs must not change, or ``HOST_REFERENCE_S`` no longer holds.
    """
    t0 = time.perf_counter()
    s = 0.0
    for i in range(100_000):
        s += (i % 7) * 0.5
    x = _PROBE_VEC
    for _ in range(4000):
        s += float((np.sin(x) * x + x[::-1]).sum())
    for _ in range(8):
        np.linalg.inv(_PROBE_MAT)
    return time.perf_counter() - t0


def scaled(times, probes_before, probes_after) -> float:
    """Median of ``times`` measured at the reference host speed: each time is
    divided by the mean of the probes taken just before and just after it."""
    return HOST_REFERENCE_S * statistics.median(
        t / ((b + a) / 2) for t, b, a in zip(times, probes_before, probes_after))


def time_import() -> float:
    """Seconds for a fresh interpreter to ``import splineproj``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import splineproj"], check=True,
                   timeout=30, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, exps) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    sblas = scipy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{sblas.get('name')} {sblas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "workload": args.workload,
        "seed": args.seed,
        "experiments": [" ".join(argv) for argv in exps],
    }


class Run:
    def __init__(self, workload, seed, workdir):
        self.exps = workloads.experiments(workload, seed)
        self.outdirs = [os.path.join(workdir, f"{i:02d}-{argv[0]}")
                        for i, argv in enumerate(self.exps)]
        for d in self.outdirs:
            os.makedirs(d)
        self.reference = (gate.load_reference(workload)
                          if seed == gate.REFERENCE_SEED else None)
        self.expected_sha: dict[str, str] = {}
        if self.reference is not None:
            for i, files in self.reference.items():
                for name, ref in files.items():
                    self.expected_sha[os.path.join(self.outdirs[int(i)], name)] = ref["sha256"]
        self.attempted = self.failed = self.passed = 0
        self.csv_files = self.csv_identical = 0
        self.problems: list[str] = []

    def run_pass(self, cli, tracer=None, probe=None):
        """Run every experiment once; with ``probe``, call it before the first
        experiment and after each one.

        Returns ``(start, end, cpu seconds, [wall seconds per experiment],
        [probe seconds])``, with ``start`` and ``end`` read from
        ``time.perf_counter``; the CPU time leaves out the probes.
        """
        for d in self.outdirs:
            for f in os.listdir(d):
                os.unlink(os.path.join(d, f))
        statuses, outputs, exp_walls = [], [], []
        cpu = 0.0
        start = time.perf_counter()
        probes = [probe()] if probe else []
        for i, (argv, outdir) in enumerate(zip(self.exps, self.outdirs)):
            if tracer is not None:
                tracer.experiment = f"{i:02d}-{argv[0]}"
                span = tracer.open(f"cli.{argv[0]}")
            sink = io.StringIO()
            c0 = time.process_time()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                statuses.append(cli.main(argv + ["--output", outdir]))
            exp_walls.append(time.perf_counter() - t0)
            cpu += time.process_time() - c0
            outputs.append(sink)
            if tracer is not None:
                tracer.close(span)
            if probe:
                probes.append(probe())
        end = time.perf_counter()
        self.check_pass(statuses, [s.getvalue() for s in outputs])
        return start, end, cpu, exp_walls, probes

    def check_pass(self, statuses, outputs):
        for argv, outdir, status, output in zip(self.exps, self.outdirs, statuses, outputs):
            problems, passed = gate.check_verdicts(argv[0], status, outdir)
            self.attempted += 1
            self.passed += passed
            for name in gate.csv_files(outdir):
                path = os.path.join(outdir, name)
                sha = gate.sha256(path)
                self.csv_files += 1
                self.csv_identical += self.expected_sha.setdefault(path, sha) == sha
            if problems:
                self.failed += 1
                self.note(argv, problems, output)

    def check_reference(self):
        """Compare the last pass's CSVs with the compact reference."""
        for i, files in self.reference.items():
            outdir = self.outdirs[int(i)]
            present = gate.csv_files(outdir)
            problems = [] if sorted(files) == present else [f"CSV files {present}, reference {sorted(files)}"]
            for name in files:
                if name in present:
                    got = gate.digest(os.path.join(outdir, name))
                    problems += [f"{name}: {p}" for p in gate.compare_digest(got, files[name])]
            if problems:
                self.failed += 1
                self.note(self.exps[int(i)], problems, "")

    def note(self, argv, problems, output):
        if len(self.problems) < 20:
            tail = output.strip().splitlines()[-3:]
            self.problems.append(f"{' '.join(argv)}: {'; '.join(problems)} {tail}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    started = time.perf_counter()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import splineproj.cli as cli

    run = Run(args.workload, args.seed, args.workdir)
    walls, cpus, exp_walls, exp_probes, setup, setup_probes = [], [], [], [], [], []
    rounds = []
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        _, _, cpu, per_exp, probes = run.run_pass(cli, probe=host_probe)
        walls.append(sum(per_exp))
        cpus.append(cpu)
        exp_walls.append(per_exp)
        exp_probes.append(probes)
        setup.append(time_import())
        setup_probes.append((probes[-1], host_probe()))
        rounds.append(time.perf_counter() - r0)
        # Start another pass only if it should end inside the window.
        ends = time.perf_counter() + statistics.median(rounds)
        if ends - t0 > args.seconds or ends - started > DEADLINE_S:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wall_s = sum(
        scaled(times, [p[i] for p in exp_probes], [p[i + 1] for p in exp_probes])
        for i, times in enumerate(zip(*exp_walls)))
    result = {
        "wall_s": wall_s,
        "setup_s": scaled(setup, *zip(*setup_probes)),
        "probe_reference_s": HOST_REFERENCE_S,
        "walls": walls,
        "exp_walls": exp_walls,
        "setup": setup,
        "probe_s": statistics.median([p for ps in exp_probes for p in ps]
                                     + [after for _, after in setup_probes]),
        "cpus": cpus,
        "peak_rss_mb": peak_rss_mb,
        "env": environment(args, run.exps),
    }
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            start, end, _, _, _ = run.run_pass(cli, tracer)
        finally:
            tracer.remove()
        tracer.write(os.path.join(args.workdir, "spans.json"), start, end)
        result.update({"layers": tracer.layer_metrics(), "traced_wall": end - start})
    if run.reference is not None:
        run.check_reference()
    result.update({
        "attempted": run.attempted,
        "failed": run.failed,
        "passed": run.passed,
        "csv_files": run.csv_files,
        "csv_identical": run.csv_identical,
        "problems": run.problems,
    })
    tmp = args.result + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
