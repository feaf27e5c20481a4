"""Orthogonal projection onto a spline space and its reproducing kernel.

The projection of an integrable ``f`` is the spline whose inner products
against every basis function match those of ``f``.  Computing it takes the
moment vector ``b_j = <f, N_j>`` (adaptive quadrature, split at declared
markers) and one banded solve.  The reproducing (Dirichlet) kernel
``Kd(x, y) = sum a_lm N_l(x) N_m(y)`` over the inverse Gram entries gives
the same projection as an integral operator; it is kept as a verification
path only, since the coefficient route is O(n k^2) instead of O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bspline import (_blocks_at_spans, eval_basis_many, eval_spline_many,
                      span_gauss_blocks)
from .functions import TestFunction
from .gram import GramMatrix, InverseGram, assemble_gram, solve_banded
from .knots import KnotSequence
from .quadrature import Piece, gauss_points, refine_pieces, split_at_markers

__all__ = ["Projection", "moments", "project", "kernel_constant_integral",
           "kernel_values"]

#: Per-moment absolute tolerance when f has no declared singularity.
DEFAULT_MOMENT_TOL = 1e-11
#: Fallback tolerance for integrable singularities; the dyadically graded
#: pieces cannot reach 1e-11 for exponents near -1/2, 5e-9 is attainable.
SINGULAR_MOMENT_TOL = 5e-9


def default_moment_tol(f: TestFunction) -> float:
    return SINGULAR_MOMENT_TOL if f.singular else DEFAULT_MOMENT_TOL


@dataclass(frozen=True, eq=False)
class Projection:
    """Spline coefficients of the L2-closest spline to ``f``.

    ``rhs_error`` is the accumulated quadrature error estimate of the
    moment vector; orthogonality of ``f - Pf`` against the basis holds up
    to this plus the solver residual.
    """

    knots: KnotSequence
    coeffs: np.ndarray
    rhs_error: float

    def __call__(self, x):
        return eval_spline_many(self.knots, self.coeffs, x)


def moments(K: KnotSequence, f: TestFunction, tol: float | None = None,
            base_order: int | None = None) -> tuple[np.ndarray, float]:
    """Moment vector ``b_j = <f, N_j>`` and its quadrature error estimate.

    Each nondegenerate knot interval is cut at the declared markers and
    handed to the adaptive engine; the per-piece integrand is the k-vector
    ``f * (local basis block)``.  The returned estimate aggregates all
    pieces, so it covers every single moment.  It is an estimate, not a
    rigorous bound: on slowly converging singular tails it tracks the true
    error to within a few percent.
    """
    if tol is None:
        tol = default_moment_tol(f)
    if base_order is None:
        base_order = max(K.k, 4) + 4

    t = K.t

    def eval_pair(p: Piece):
        span = p.payload
        vals = []
        mag = 0.0
        for g in (p.order, 2 * p.order):
            x, w = gauss_points(p.lo, p.hi, g)
            fx = f(x)
            blocks = _blocks_at_spans(K, x, np.full(x.shape, span))
            vals.append((w * fx) @ blocks)
            mag = float(((w * np.abs(fx)) @ blocks).max())
        p.measure((vals[1], float(np.abs(vals[1] - vals[0]).max())), magnitude=mag)

    pieces = []
    for span in K.spans:
        for lo, hi in split_at_markers(float(t[span]), float(t[span + 1]), f.markers):
            if hi > lo:
                pieces.append(Piece(lo, hi, order=base_order, payload=int(span)))
    done, est = refine_pieces(pieces, eval_pair, tol)
    b = np.zeros(K.n)
    for p in done:
        first = p.payload - (K.k - 1)
        b[first: first + K.k] += p.value
    return b, float(est)


def project(K: KnotSequence, f: TestFunction, tol: float | None = None,
            gram: GramMatrix | None = None) -> Projection:
    """Orthogonal projection of ``f`` onto the spline space of ``K``.

    Fixes every spline in the space and reproduces polynomials of degree
    below the order exactly (up to quadrature and solve tolerances).
    """
    if gram is None:
        gram = assemble_gram(K)
    b, est = moments(K, f, tol=tol)
    c = solve_banded(gram, b)
    return Projection(K, c, est)


def kernel_values(A: InverseGram, K: KnotSequence, x, y) -> np.ndarray:
    """Reproducing kernel table ``Kd(x[p], y[q])``, shape ``(len(x), len(y))``.

    The basis is evaluated once per point set; the k^2 terms
    ``N_l(x) a_lm N_m(y)`` are summed in (l, m) order.
    """
    fx, bx = eval_basis_many(K, np.ravel(x))
    fy, by = eval_basis_many(K, np.ravel(y))
    out = np.zeros((fx.size, fy.size))
    for l in range(K.k):
        rows = bx[:, l, None] * A.entries[fx + l]
        for m in range(K.k):
            out += rows[:, fy + m] * by[:, m]
    return out


def kernel_constant_integral(A: InverseGram, K: KnotSequence, x: float) -> float:
    """``int Kd(x, y) dy`` over [a, b] by exact per-interval Gauss rules.

    The spline space contains constants, so the exact value is 1; the
    computed value differs only by roundoff.
    """
    ys, w, _ = span_gauss_blocks(K)
    return float(np.sum(w * kernel_values(A, K, x, ys.ravel()).reshape(ys.shape)))


def galerkin_residual(K: KnotSequence, pf: Projection, f: TestFunction,
                      tol: float | None = None) -> np.ndarray:
    """Independent check of ``<f - Pf, N_j>`` for all j.

    Recomputes the moments of ``f`` with a different base rule and
    subtracts the Gram action on the computed coefficients, so the result
    measures genuine orthogonality failure, not a rerun of the same
    quadrature.
    """
    if tol is None:
        tol = default_moment_tol(f) / 2
    b_check, _ = moments(K, f, tol=tol, base_order=max(K.k, 4) + 7)
    G0 = assemble_gram(K)
    return b_check - G0.matvec(pf.coeffs)
