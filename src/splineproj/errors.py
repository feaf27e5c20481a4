"""Exception types raised by the library.

Errors that indicate bad user input subclass ValueError; errors that
indicate a numerical breakdown subclass ArithmeticError, so callers can
distinguish "fix your input" from "the computation failed".
"""


class SplineProjError(Exception):
    """Base class for all library-specific errors."""


class NonMonotoneBreaks(SplineProjError, ValueError):
    """Breakpoints are not strictly increasing (or knots decrease)."""


class NonFiniteKnots(SplineProjError, ValueError):
    """A knot is NaN or infinite."""


class MultiplicityOutOfRange(SplineProjError, ValueError):
    """A knot multiplicity is below 1 or exceeds the spline order."""


class EmptyInterval(SplineProjError, ValueError):
    """The interval [a, b] is empty or degenerate (a >= b)."""


class InvalidRatio(SplineProjError, ValueError):
    """Geometric mesh ratio is not a positive real number."""


class ZeroIntervals(SplineProjError, ValueError):
    """A partition was requested with no intervals."""


class OutOfDomain(SplineProjError, ValueError):
    """An evaluation point lies outside [a, b]."""


class LengthMismatch(SplineProjError, ValueError):
    """A coefficient or multiplicity sequence has the wrong length."""


class NotPositiveDefinite(SplineProjError, ArithmeticError):
    """Banded Cholesky factorization broke down; the matrix is not SPD."""


class RefinementFailure(SplineProjError, ArithmeticError):
    """A solve's residual is above its target or NaN, or a projection's
    Galerkin residual is not finite; nothing is refined."""


class QuadratureNonConvergence(SplineProjError, ArithmeticError):
    """Adaptive quadrature exhausted its budget above the requested tolerance."""


class DegenerateKernel(SplineProjError, ArithmeticError):
    """Every sampled value of the reproducing kernel lies below the zero floor."""


class NonIntegrableMarker(SplineProjError, ValueError):
    """A declared singularity has exponent <= -1, so f is not integrable."""
