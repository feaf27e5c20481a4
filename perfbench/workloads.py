"""Workload definitions: the experiment argv lists and their expected verdicts.

Each workload is an ordered list of ``splineproj`` CLI experiments.  The
workload seed picks the ``random:M:SEED`` partition seeds and the ``step:c``
jump locations; singular points (``abspow``) stay on breaks of every dyadic
partition (0 and 1/2).  The program only ever sees the generated argv.
"""

from __future__ import annotations

import random

# Sizes are scaled so that one pass takes about 5 s on a 2-core x86 virtual
# machine: long enough to average over the swings in speed of a shared host,
# short enough for a 55 s run to hold 8 to 11 passes and report their median.
PROJECT_M = 4000
LADDER_LEVELS = 11

WORKLOADS = ("project-ladder", "certify-dense")

#: Check names each command declared when the benchmark was added.  Every one
#: must PASS, except the known defects below, which may PASS or FAIL.
EXPECTED_CHECKS = {
    "project": ("galerkin_orthogonality",),
    "verify-decay": ("gamma_below_0.95", "entrywise_bound"),
    "verify-lemma": ("constants_finite",),
    "verify-kernel-bound": ("theta_below_one", "constant_finite"),
    "kernel": ("constant_reproduction", "kernel_symmetry"),
    "invert": ("inverse_residual", "inverse_symmetry"),
    "gram": ("scaled_row_sums",),
    "stability": ("d_hat_at_least_one",),
    "converge": ("errors_finite",),
    "dominate": ("c_hat_finite", "c_hat_stable"),
    "weak11": ("maximal_weak_constant", "p_star_finite"),
    "maximal": ("finite_nonnegative",),
}

#: ``gram`` compares scaled row sums with a fixed 1e-13 tolerance, which
#: roundoff exceeds once n is about 1000 or more; at 4000 intervals it fails
#: for every partition seed tried (smallest deviation 1.5e-13 over 120).
#: The workload keeps n above that on purpose so the defect stays visible.
KNOWN_DEFECTS = {"gram": ("scaled_row_sums",)}


def experiments(workload: str, seed: int) -> list[list[str]]:
    """The argv of every experiment of ``workload`` at ``seed``, in order."""
    rng = random.Random(f"{workload}:{seed}")

    def part(m):
        return f"random:{m}:{rng.randrange(1, 1_000_000)}"

    def step():
        return f"step:{rng.uniform(0.15, 0.85):.4f}"

    if workload == "project-ladder":
        top = str(LADDER_LEVELS)
        return [
            ["project", "--k", "4", "--partition", part(PROJECT_M), "--function", "sin"],
            ["project", "--k", "2", "--partition", part(PROJECT_M), "--function", step()],
            ["converge", "--k", "4", "--function", step(), "--levels", top],
            ["converge", "--k", "2", "--function", "abspow:0:-0.5", "--levels", top],
            ["dominate", "--k", "3", "--function", "abspow:0.5:-0.3",
             "--levels", top, "--min-level", "4"],
            ["weak11", "--k", "3", "--function", step(), "--levels", top],
            ["maximal", "--function", "abspow:0:-0.5", "--eval-grid", "4096",
             "--grid", "16384"],
        ]
    if workload == "certify-dense":
        return [
            ["verify-decay", "--k", "3", "--partition", part(2000)],
            ["verify-lemma", "--k", "3", "--partition", part(700)],
            ["verify-kernel-bound", "--k", "3", "--partition", part(400)],
            ["kernel", "--k", "3", "--partition", part(300), "--eval-grid", "256"],
            ["invert", "--k", "3", "--partition", part(500)],
            ["gram", "--k", "4", "--partition", part(4000)],
            ["stability", "--k", "4", "--partition", part(5000)],
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
