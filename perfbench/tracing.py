"""Timing wrappers installed from outside the program, for the traced run.

``Tracer.install()`` replaces each traced public function in every
``splineproj`` namespace that binds it (``cli``, ``projection`` and
``analysis`` import names directly, so patching only the defining module
would miss their calls) and ``Tracer.remove()`` puts the originals back.
Spans are kept in memory as ``[name, start, end, parent, experiment]`` rows
and written out once, when the run ends.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

#: Traced functions as ``module: names``.  ``analysis._maximal_on_points``
#: is private but ``cli`` calls it directly.
TRACED = {
    "knots": ("generate_partition", "dyadic_ladder"),
    "bspline": ("eval_basis_many", "eval_spline_many"),
    "gram": ("assemble_gram", "scaled_gram", "solve_banded", "invert_gram"),
    "quadrature": ("refine_pieces", "integrate_adaptive"),
    "functions": ("parse_function",),
    "projection": ("moments", "project", "galerkin_residual", "kernel_values",
                   "kernel_constant_integral"),
    "analysis": ("decay_report", "kernel_bound_report", "lemma_constants",
                 "stability_constant", "domination_report", "weak_type_report",
                 "convergence_report", "modulus_of_smoothness",
                 "_maximal_on_points"),
    "cli": ("write_csv", "write_report"),
}

MODULES = ("knots", "bspline", "gram", "quadrature", "functions", "projection",
           "analysis", "cli")


def _size(x) -> int:
    return int(np.size(x))


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.experiment: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.experiment])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, count=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                count(tracer.counts, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_refine(self, name, fn):
        """``refine_pieces`` with its ``eval_pair`` callback timed and counted."""
        tracer = self
        counts = self.counts

        def traced(pieces, eval_pair, *args, **kwargs):
            def timed_pair(piece):
                t0 = time.perf_counter()
                try:
                    return eval_pair(piece)
                finally:
                    counts[f"{name}.integrand_s"] += time.perf_counter() - t0
                    counts[f"{name}.evals"] += 1

            counts[f"{name}.pieces_in"] += len(pieces)
            idx = tracer.open(name)
            try:
                done, est = fn(pieces, timed_pair, *args, **kwargs)
            finally:
                tracer.close(idx)
            counts[f"{name}.pieces_out"] += len(done)
            if done:
                counts[f"{name}.max_depth"] = max(
                    counts[f"{name}.max_depth"], max(p.depth for p in done))
                counts[f"{name}.max_order"] = max(
                    counts[f"{name}.max_order"], max(p.order for p in done))
            return done, est

        traced.__wrapped__ = fn
        return traced

    # -- install / remove ---------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        import splineproj
        from splineproj.functions import TestFunction

        modules = [sys.modules[f"splineproj.{m}"] for m in MODULES] + [splineproj]
        for modname, names in TRACED.items():
            mod = sys.modules[f"splineproj.{modname}"]
            for fname in names:
                fn = getattr(mod, fname)
                name = f"{modname}.{fname}"
                if fname == "refine_pieces":
                    wrapper = self._wrap_refine(name, fn)
                else:
                    wrapper = self._wrap(name, fn, _COUNTERS.get(name))
                for ns in modules:
                    for attr, val in list(vars(ns).items()):
                        if val is fn:
                            self._patched.append((ns, attr, val))
                            setattr(ns, attr, wrapper)

        counts = self.counts
        call = TestFunction.__call__

        def counted_call(f, x):
            counts["functions.calls"] += 1
            counts["functions.points"] += _size(x)
            return call(f, x)

        self._patched.append((TestFunction, "__call__", call))
        TestFunction.__call__ = counted_call

    def remove(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """``<module>.<function>.{calls,total_s,self_s}`` plus the counters.

        ``total_s`` counts only the outermost call of a name, so recursion
        through one name is not counted twice; ``self_s`` subtracts the
        part of a span's interval that its child spans cover.
        """
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, parent, _), own in zip(self.spans, self_times(self.spans)):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[f"{name}.total_s"] += end - start
        out.update(self.counts)
        q = "quadrature.refine_pieces"
        if out.get(f"{q}.evals"):
            out[f"{q}.useful_ratio"] = out[f"{q}.pieces_out"] / out[f"{q}.evals"]
        return dict(out)

    def write(self, path: str, start: float, end: float) -> None:
        """Write the spans of a pass that ran from ``start`` to ``end``."""
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"pass": [start, end],
                       "columns": ["name", "start", "end", "parent", "experiment"],
                       "spans": self.spans}, fh)
        os.replace(tmp, path)


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the part of ``[lo, hi]`` that the union of ``intervals`` covers."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered(start, end, children[i])
            for i, (name, start, end, parent, _) in enumerate(spans)]


def _count_points(counts, name, args, result):
    counts[f"{name}.points"] += _size(args[1] if name.endswith("eval_basis_many")
                                      else args[2])


def _count_kernel_points(counts, name, args, result):
    counts[f"{name}.points"] += _size(result)


def _count_inverse_bytes(counts, name, args, result):
    n = args[0].n
    counts[f"{name}.bytes"] += 8 * n * n


def _count_csv(counts, name, args, result):
    counts[f"{name}.rows"] += len(args[2])
    counts[f"{name}.bytes"] += os.path.getsize(args[0])


_COUNTERS = {
    "bspline.eval_basis_many": _count_points,
    "bspline.eval_spline_many": _count_points,
    "projection.kernel_values": _count_kernel_points,
    "gram.invert_gram": _count_inverse_bytes,
    "cli.write_csv": _count_csv,
}
