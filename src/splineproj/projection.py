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

from .bspline import (eval_basis_many, eval_spline_many, node_blocks,
                      span_gauss_blocks)
from .functions import TestFunction
from .gram import GramMatrix, assemble_gram, solve_banded
from .knots import KnotSequence
from .quadrature import Pieces, gauss_pair, integrate_adaptive, refine_many

__all__ = ["Projection", "moments", "project", "project_ladder", "galerkin_residual",
           "kernel_constant_integral", "kernel_values", "kernel_from_basis", "l1_norm"]

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
    to this plus the residual of solving ``gram``, the Gram matrix of ``knots``.
    """

    knots: KnotSequence
    coeffs: np.ndarray
    rhs_error: float
    gram: GramMatrix

    def __call__(self, x):
        return eval_spline_many(self.knots, self.coeffs, x)


def _ladder_moments(ladder, f: TestFunction, tol: float | None = None,
                    base_order: int | None = None) -> list[tuple[np.ndarray, float]]:
    """``moments(K, f, tol, base_order)`` for every level ``K`` of ``ladder``,
    whose levels share one order, from one ``quadrature.refine_many`` call.

    Each level is one job: ``[a, b]`` cut at every break and declared
    marker, each piece's payload its span plus the level's offset in the
    levels' knot vectors end to end, from which the basis blocks are read.
    The jobs are refined in lockstep, one evaluator call per rule order a
    round, and each level takes the pieces it would take alone.
    """
    k = ladder[0].k
    tol = default_moment_tol(f) if tol is None else tol
    base_order = max(k, 4) + 4 if base_order is None else base_order
    offsets = np.cumsum([0] + [len(K.t) for K in ladder[:-1]]).tolist()
    t = np.concatenate([K.t for K in ladder])
    cuts = [np.union1d(K.t, [m for m in f.markers if K.a < m < K.b]) for K in ladder]
    jobs = [(Pieces(c[:-1], c[1:], order=base_order, payload=K.span_indices(c[:-1]) + o), tol)
            for K, c, o in zip(ladder, cuts, offsets)]
    refined = refine_many(jobs, gauss_pair(f, basis=lambda x, s: node_blocks(t, k, x, s)))
    b = np.zeros(len(t))  # level K's moments are b[o: o + K.n], o its offset
    for done, _ in refined:
        # np.add.at adds in piece order, as a loop over the pieces would
        np.add.at(b, (done.payload - (k - 1))[:, None] + np.arange(k), done.value)
    return [(b[o: o + K.n], float(est)) for K, o, (_, est) in zip(ladder, offsets, refined)]


def moments(K: KnotSequence, f: TestFunction, tol: float | None = None,
            base_order: int | None = None) -> tuple[np.ndarray, float]:
    """Moment vector ``b_j = <f, N_j>`` and its quadrature error estimate.

    The interval is cut at every break and declared marker, and each piece
    is handed to the adaptive engine; ``quadrature.gauss_pair`` measures the
    k-vector ``f * (local basis block)`` on it.  The returned estimate aggregates all
    pieces, so it covers every single moment.  It is an estimate, not a
    rigorous bound: on slowly converging singular tails it tracks the true
    error to within a few percent.  The one-level case of ``_ladder_moments``:
    the direct quadrature on ``K`` alone, which ladder results compare against.
    """
    return _ladder_moments([K], f, tol, base_order)[0]


def project(K: KnotSequence, f: TestFunction) -> Projection:
    """Orthogonal projection of ``f`` onto the spline space of ``K``: the
    one-level case of ``project_ladder``.

    Fixes every spline in the space and reproduces polynomials of degree
    below the order exactly (up to quadrature and solve tolerances).
    """
    return project_ladder([K], f)[0]


def project_ladder(ladder, f: TestFunction) -> list[Projection]:
    """The projection of ``f`` onto every level ``K`` of a mesh-refinement
    ladder; ``ValueError`` on an empty ladder, or unless all levels share
    one order and one interval.

    The levels' moments come from ``_ladder_moments``, refined in lockstep,
    so each level's projection is bitwise that of the level alone.  When
    several levels fail, the error raised may name another level than
    ``project`` level by level.
    """
    if not ladder:
        raise ValueError("empty ladder: no level to project")
    k, a, b = ladder[0].k, ladder[0].a, ladder[0].b
    if any((K.k, K.a, K.b) != (k, a, b) for K in ladder):
        raise ValueError("ladder levels must share one order k and one interval")
    grams = [assemble_gram(K) for K in ladder]
    return [Projection(K, solve_banded(gram, rhs), est, gram)
            for K, gram, (rhs, est) in zip(ladder, grams, _ladder_moments(ladder, f))]


def kernel_values(G0: GramMatrix, K: KnotSequence, x, y) -> np.ndarray:
    """Reproducing kernel table ``Kd(x[p], y[q])``, shape ``(len(x), len(y))``.

    The basis is evaluated once per point set; see ``kernel_from_basis``.
    """
    return kernel_from_basis(G0, eval_basis_many(K, np.ravel(x)),
                             eval_basis_many(K, np.ravel(y)))


def kernel_from_basis(G0: GramMatrix, x_basis, y_basis) -> np.ndarray:
    """``kernel_values`` from the ``eval_basis_many`` results of both point
    sets, so a caller that tabulates against the same ``y`` many times
    evaluates its basis once.  Only the inverse rows ``fx .. fx + k - 1``
    are solved, as one ``solve_banded`` against those identity columns: the
    inverse is symmetric.  The contraction has two stages of k passes each:
    ``R = sum_l N_l(x) a[fx + l]`` over whole rows ``a`` of the inverse,
    then ``sum_m R[:, fy + m] N_m(y)``, each term a gather of R's columns.
    """
    fx, bx = x_basis
    fy, by = y_basis
    k = bx.shape[1]
    need = np.unique(fx[:, None] + np.arange(k))
    X = solve_banded(G0, np.equal.outer(np.arange(G0.n), need))
    R = np.zeros((fx.size, G0.n))
    for l in range(k):
        term = X.T[np.searchsorted(need, fx + l)]
        term *= bx[:, l, None]
        R += term
    out = np.zeros((fx.size, fy.size))
    term = np.empty_like(out)
    for m in range(k):
        np.take(R, fy + m, axis=1, out=term, mode="clip")
        term *= by[:, m]
        out += term
    return out


def kernel_constant_integral(G0: GramMatrix, K: KnotSequence, x) -> np.ndarray:
    """``int Kd(x[p], y) dy`` over [a, b] for each point, by exact
    per-interval Gauss rules, from one kernel table.

    The spline space contains constants, so the exact value is 1; the
    computed value differs only by roundoff.
    """
    ys, w, _ = span_gauss_blocks(K)
    table = kernel_values(G0, K, x, ys.ravel()).reshape(-1, *ys.shape)
    return np.sum(w * table, axis=(1, 2))


def galerkin_residual(pf: Projection, f: TestFunction) -> np.ndarray:
    """Independent check of ``<f - Pf, N_j>`` for all j.

    Recomputes the moments of ``f`` on ``pf.knots`` with a different base
    rule and subtracts the action of ``pf.gram`` on the coefficients, so the
    result measures genuine orthogonality failure, not a rerun of the same
    quadrature.
    """
    b_check, _ = moments(pf.knots, f, base_order=max(pf.knots.k, 4) + 7)
    return b_check - pf.gram.matvec(pf.coeffs)


def l1_norm(f: TestFunction, a: float, b: float) -> float:
    """``int_a^b |f|``, split at ``f``'s markers, to the moment tolerance."""
    val, _ = integrate_adaptive(lambda u: np.abs(f(u)), a, b, markers=f.markers,
                                tol=default_moment_tol(f))
    return val
