"""Integrable test functions with their jump and singular points.

A TestFunction wraps a vectorized evaluator together with the finite sets
of points where it jumps or blows up.  The markers steer quadrature
splitting, and their complement is the declared set of Lebesgue points used
by the convergence experiments.

The built-in corpus covers the regimes the experiments need: polynomials
(reproduced exactly), smooth oscillation (sin/cos), a bounded analytic bump
(runge), a jump (step), a kink (absdist), and integrable power singularities
(abspow with exponent in (-1, 0)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonIntegrableMarker

__all__ = ["TestFunction", "parse_function", "CORPUS_NAMES", "default_probes"]


@dataclass(frozen=True)
class TestFunction:
    """Real function on an interval with integrability metadata.

    ``evaluator`` must accept a float ndarray and return one of the same
    shape.  ``singularities`` lists ``(point, exponent)`` pairs with
    exponent > -1, so the function stays integrable.
    """

    evaluator: callable
    name: str = "f"
    discontinuities: tuple[float, ...] = ()
    singularities: tuple[tuple[float, float], ...] = ()

    __test__ = False  # keep pytest from collecting the class

    def __post_init__(self):
        for point, alpha in self.singularities:
            if alpha <= -1:
                raise NonIntegrableMarker(
                    f"singularity at {point} has exponent {alpha} <= -1"
                )

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            return np.asarray(self.evaluator(x), dtype=float)

    @property
    def markers(self) -> tuple[float, ...]:
        """Quadrature split points: jumps, kinks and singular points."""
        return tuple(self.discontinuities) + tuple(p for p, _ in self.singularities)

    @property
    def singular(self) -> bool:
        return bool(self.singularities)


CORPUS_NAMES = ("const", "x", "x^p", "sin", "cos", "runge",
                "step:c", "absdist:c", "abspow:c:alpha")


def parse_function(spec: str) -> TestFunction:
    """Build a corpus function from a spec string like ``step:0.5``.

    Grammar: ``name[:param[:param]]``.  Known names: ``const``, ``x``,
    ``x^p`` (integer p >= 0), ``sin``/``cos`` (one full period per unit
    length), ``runge``, ``step:c``, ``absdist:c``, ``abspow:c:alpha``.
    """
    parts = spec.split(":")
    name, params = parts[0], parts[1:]

    def want(count):
        if len(params) != count:
            raise ValueError(f"function {name!r} takes {count} parameter(s), "
                             f"got {len(params)} in {spec!r}")
        return [float(p) for p in params]

    if name == "const":
        want(0)
        return TestFunction(lambda x: np.ones_like(x), name=spec)
    if name == "x" or (name.startswith("x^") and not params):
        p = 1 if name == "x" else int(name[2:])
        if p < 0:
            raise ValueError(f"polynomial power must be >= 0 in {spec!r}")
        return TestFunction(lambda x, p=p: x ** p, name=spec)
    if name == "sin":
        want(0)
        return TestFunction(lambda x: np.sin(2 * np.pi * x), name=spec)
    if name == "cos":
        want(0)
        return TestFunction(lambda x: np.cos(2 * np.pi * x), name=spec)
    if name == "runge":
        want(0)
        return TestFunction(lambda x: 1.0 / (1.0 + 25.0 * x * x), name=spec)
    if name == "step":
        (c,) = want(1)
        return TestFunction(lambda x, c=c: np.where(x < c, 0.0, 1.0), name=spec,
                            discontinuities=(c,))
    if name == "absdist":
        (c,) = want(1)
        return TestFunction(lambda x, c=c: np.abs(x - c), name=spec,
                            discontinuities=(c,))
    if name == "abspow":
        c, alpha = want(2)
        if alpha <= -1:
            raise NonIntegrableMarker(f"abspow exponent {alpha} <= -1 in {spec!r}")
        fn = lambda x, c=c, a=alpha: np.abs(x - c) ** a
        if alpha < 0:
            return TestFunction(fn, name=spec, singularities=((c, alpha),))
        if alpha == 0 or alpha == int(alpha) and int(alpha) % 2 == 0:
            return TestFunction(fn, name=spec)
        return TestFunction(fn, name=spec, discontinuities=(c,))
    raise ValueError(f"unknown function {spec!r}; known names: {CORPUS_NAMES}")


def default_probes(f: TestFunction, a: float, b: float) -> list[float]:
    """Two Lebesgue-point probes, nudged off any marked point."""
    probes = []
    for q in (0.25, 0.75):
        x = a + q * (b - a)
        while any(abs(x - m) < 1e-9 * (b - a) for m in f.markers):
            x += 0.0137 * (b - a)
        probes.append(min(x, b))
    return probes
