"""Correctness gate: exit status, check verdicts and CSV outputs of each experiment.

An experiment fails the gate when its exit status or a check verdict differs
from the expectation recorded when the benchmark was added (``workloads.EXPECTED_CHECKS``
and ``KNOWN_DEFECTS``), or, at the reference seed, when a CSV value lies
outside ``CSV_RTOL`` of the compact reference in ``reference.json``.  Byte
identity of CSVs is counted, not gated.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

from workloads import EXPECTED_CHECKS, KNOWN_DEFECTS

REFERENCE_SEED = 0
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
#: A CSV value may differ from the reference by this share of the largest
#: magnitude in its column (samples) or of the column's absolute sum (sums).
CSV_RTOL = 1e-9
SAMPLE_ROWS = 9


def check_verdicts(command: str, status: int, outdir: str) -> tuple[list[str], bool]:
    """Gate one experiment run.

    Returns ``(problems, all_passed)``: ``problems`` is empty when the run
    matches its recorded expectation; ``all_passed`` is True when it exited
    0 with every declared check passing.
    """
    path = os.path.join(outdir, f"{command.replace('-', '_')}_report.json")
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"exit {status}, no readable report: {exc}"], False
    verdicts = {c["name"]: c["passed"] for c in report["checks"]}
    expected = EXPECTED_CHECKS[command]
    may_fail = KNOWN_DEFECTS.get(command, ())
    problems = []
    if sorted(verdicts) != sorted(expected):
        problems.append(f"checks {sorted(verdicts)}, expected {sorted(expected)}")
    problems += [f"check {name} failed" for name in expected
                 if name not in may_fail and verdicts.get(name) is not True]
    all_passed = all(verdicts.values())
    if status != (0 if all_passed else 1):
        problems.append(f"exit status {status} with checks {verdicts}")
    return problems, status == 0 and all_passed


def csv_files(outdir: str) -> list[str]:
    return sorted(f for f in os.listdir(outdir) if f.endswith(".csv"))


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digest(path: str) -> dict:
    """Compact reference of a numeric CSV: header, row count, per-column sums
    and absolute sums, evenly spaced sample rows, and the SHA-256 of the bytes."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    ncol = len(header)
    step = max(1, (len(rows) - 1) // (SAMPLE_ROWS - 1)) if rows else 1
    picks = sorted({min(i * step, len(rows) - 1) for i in range(SAMPLE_ROWS)}) if rows else []
    return {
        "header": header,
        "rows": len(rows),
        "sum": [sum(r[c] for r in rows) for c in range(ncol)],
        "abs_sum": [sum(abs(r[c]) for r in rows) for c in range(ncol)],
        "abs_max": [max((abs(r[c]) for r in rows), default=0.0) for c in range(ncol)],
        "samples": {str(i): rows[i] for i in picks},
        "sha256": sha256(path),
    }


def compare_digest(got: dict, ref: dict) -> list[str]:
    """Differences between a CSV digest and its reference beyond CSV_RTOL."""
    if got["header"] != ref["header"] or got["rows"] != ref["rows"]:
        return [f"shape {got['header']} x {got['rows']}, "
                f"reference {ref['header']} x {ref['rows']}"]
    problems = []
    for c, col in enumerate(ref["header"]):
        if not _close(got["sum"][c], ref["sum"][c], CSV_RTOL * ref["abs_sum"][c]):
            problems.append(f"column {col} sum {got['sum'][c]!r}, reference {ref['sum'][c]!r}")
        for i, row in ref["samples"].items():
            v = got["samples"][i][c]
            if not _close(v, row[c], CSV_RTOL * ref["abs_max"][c]):
                problems.append(f"column {col} row {i}: {v!r}, reference {row[c]!r}")
    return problems


def _close(a: float, b: float, tol: float) -> bool:
    """Within ``tol``; equal infinities and NaN against NaN also match.

    A column holding an infinity has an infinite scale, so its finite values
    are held to ``CSV_RTOL`` of their own magnitude instead, and an infinite
    reference value must be matched exactly.
    """
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    if not math.isfinite(b):
        return False
    if not math.isfinite(tol):
        tol = CSV_RTOL * abs(b)
    return abs(a - b) <= tol


def load_reference(workload: str) -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["workloads"][workload]
