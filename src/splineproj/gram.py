"""B-spline Gram matrices: assembly, banded solves, and full inversion.

The Gram matrix ``g[i, j] = <N_i, N_j>`` is symmetric positive definite
with bandwidth ``k - 1``.  On every nondegenerate knot interval the
integrand ``N_i * N_j`` is a polynomial of degree at most ``2k - 2``, so a
k-point Gauss rule per interval assembles each entry exactly up to
roundoff.  Storage is the LAPACK upper symmetric-banded layout, which feeds
straight into the banded Cholesky solver.

The inverse is dense by nature, its entries merely decay away from the
diagonal.  ``inverse_columns`` solves and refines only the columns asked
for, which are also rows, the matrix being symmetric.  ``invert_gram``
forms the whole inverse from those same columns, block by block, and
measures how far they are from symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .bspline import span_gauss_blocks
from .errors import LengthMismatch, NotPositiveDefinite, RefinementFailure
from .knots import KnotSequence

__all__ = ["GramMatrix", "InverseGram", "assemble_gram", "scaled_gram",
           "solve_banded", "inverse_columns", "invert_gram"]

#: Largest ``max |G0 A - I|`` that ends iterative refinement early.
RESIDUAL_TARGET = 1e-9
#: Width of the column blocks ``invert_gram`` solves and refines: n x 256
#: doubles at a time beside the inverse.
_BLOCK = 256


@dataclass(eq=False)
class GramMatrix:
    """Symmetric banded matrix in LAPACK upper form.

    ``bands[k-1-d, j]`` holds the entry ``(j - d, j)`` for offsets
    ``d = 0 .. k-1``; row ``k-1`` is the main diagonal.
    """

    order: int
    bands: np.ndarray
    _factor: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.bands.shape[1]

    def entry(self, i, j):
        """Entry ``(i, j)``; ``i`` and ``j`` may be index arrays."""
        hi = np.maximum(i, j)
        d = hi - np.minimum(i, j)
        inside = d < self.order
        vals = self.bands[self.order - 1 - np.where(inside, d, 0), hi]
        return np.where(inside, vals, 0.0)[()]

    def to_dense(self) -> np.ndarray:
        n, k = self.n, self.order
        dense = np.zeros((n, n))
        for d in range(k):
            diag = self.bands[k - 1 - d, d:]
            idx = np.arange(n - d)
            dense[idx, idx + d] = diag
            dense[idx + d, idx] = diag
        return dense

    def matvec(self, c: np.ndarray) -> np.ndarray:
        """``G c`` for a vector or, column by column, an ``(n, m)`` block."""
        c = np.asarray(c, dtype=float)
        n, k = self.n, self.order
        bands = self.bands.reshape(self.bands.shape + (1,) * (c.ndim - 1))
        out = bands[k - 1] * c
        for d in range(1, k):
            diag = bands[k - 1 - d, d:]
            out[: n - d] += diag * c[d:]
            out[d:] += diag * c[: n - d]
        return out

    def row_sums(self) -> np.ndarray:
        return self.matvec(np.ones(self.n))

    def factor(self) -> np.ndarray:
        """Banded Cholesky factor, computed once and cached."""
        if self._factor is None:
            try:
                self._factor = cholesky_banded(self.bands, lower=False)
            except np.linalg.LinAlgError as exc:
                raise NotPositiveDefinite(
                    f"banded Cholesky broke down: {exc}"
                ) from exc
        return self._factor


@dataclass(frozen=True, eq=False)
class InverseGram:
    """Dense inverse of a Gram matrix with its quality certificates.

    ``residual`` is ``max |(G0 A - I)_ij|`` after any refinement;
    ``asymmetry`` is the relative asymmetry ``max |A - A.T| / max |A|`` of
    the computed inverse.  Rows of ``entries`` are the coefficient vectors
    of the basis dual to the B-splines.
    """

    entries: np.ndarray
    residual: float
    asymmetry: float

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def assemble_gram(K: KnotSequence) -> GramMatrix:
    """Assemble ``<N_i, N_j>`` by exact per-interval Gauss quadrature."""
    k, n = K.k, K.n
    _, w, blocks = span_gauss_blocks(K)
    local = np.einsum("sg,sgp,sgq->spq", w, blocks, blocks)
    # add each span's upper triangle into the bands, span by span in (p, q)
    # order: the same additions in the same order as a plain loop
    p, q = np.triu_indices(k)
    cols = (K.spans - (k - 1))[:, None] + q[None, :]
    rows = np.broadcast_to(k - 1 - (q - p), cols.shape)
    bands = np.zeros((k, n))
    np.add.at(bands, (rows.ravel(), cols.ravel()), local[:, p, q].ravel())
    return GramMatrix(k, bands)


def scaled_gram(G0: GramMatrix, K: KnotSequence) -> np.ndarray:
    """Row-rescaled Gram matrix ``<M_i, N_j>`` with unit row sums, dense.

    Row ``i`` of the plain Gram matrix divided by ``kappa_i / k``; the
    result is banded but no longer symmetric.
    """
    if G0.n != K.n:
        raise LengthMismatch(f"Gram dimension {G0.n} != spline dimension {K.n}")
    return G0.to_dense() * (K.k / K.kappa)[:, None]


def solve_banded(G0: GramMatrix, rhs) -> np.ndarray:
    """Solve ``G0 c = rhs`` by banded Cholesky and ``_refine`` to a residual
    of ``1e-10 * max |rhs|``.

    Work is O(n k^2) per right-hand side.  Raises NotPositiveDefinite on
    factorization breakdown, which for an assembled Gram matrix signals an
    assembly bug rather than an input problem.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != G0.n:
        raise LengthMismatch(f"rhs length {rhs.shape[0]} != dimension {G0.n}")
    c = cho_solve_banded((G0.factor(), False), rhs)
    target = 1e-10 * np.abs(rhs).max(initial=0.0)
    return _refine(G0, c, lambda c: G0.matvec(c) - rhs, target, "solve")[0]


def _refine(G0: GramMatrix, X: np.ndarray, residual_of, target, what: str):
    """Refine ``X`` in place while ``max |residual_of(X)|``, the residual
    ``G0 X - B`` of the system it solves, is above ``target``: at most three
    sweeps, each subtracting the banded solve against that residual.  Returns
    ``(X, residual)``; a residual still above ``target`` raises
    RefinementFailure."""
    fac = G0.factor()
    for sweep in range(4):
        R = residual_of(X)
        residual = float(np.abs(R).max(initial=0.0))
        if residual <= target:
            return X, residual
        if sweep == 3:
            raise RefinementFailure(
                f"{what} residual {residual:.3e} above {target:.3g} "
                "after three refinement sweeps")
        X -= cho_solve_banded((fac, False), R, overwrite_b=True)


def _residual(G0: GramMatrix, cols: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``G0 X - I[:, cols]`` for the columns ``X`` of the inverse."""
    R = G0.matvec(X)
    R[cols, np.arange(cols.size)] -= 1.0
    return R


def inverse_columns(G0: GramMatrix, cols) -> tuple[np.ndarray, float]:
    """Columns ``cols`` of the inverse as an n x len(cols) array, and the
    residual ``max |G0 X - I[:, cols]|`` they end with.

    Each column is solved against its identity column from the cached
    banded factor, on its own, so it is bitwise that column of one solve
    against the whole identity; then ``_refine`` refines the block in place
    while the residual is above ``RESIDUAL_TARGET``.
    """
    cols = np.asarray(cols, dtype=np.intp)
    X = np.zeros((G0.n, cols.size), order="F")
    X[cols, np.arange(cols.size)] = 1.0
    X = cho_solve_banded((G0.factor(), False), X, overwrite_b=True)
    return _refine(G0, X, lambda X: _residual(G0, cols, X), RESIDUAL_TARGET,
                   "inverse")


def invert_gram(G0: GramMatrix) -> InverseGram:
    """Dense inverse from ``inverse_columns``, ``_BLOCK`` columns at a time.

    Each refined column block ``X`` is written as rows ``j, j + 1, ...`` of
    one C-ordered n x n array, the inverse being symmetric, so the inverse
    is the only n x n array held.  ``residual`` is the largest block
    residual; a block above ``RESIDUAL_TARGET`` raises RefinementFailure.
    ``asymmetry`` compares each new row block with the columns it mirrors
    among the rows written so far, and is left for the caller to judge.
    """
    n = G0.n
    A = np.empty((n, n))
    residual = scale = diff = 0.0
    for j in range(0, n, _BLOCK):
        X, block_residual = inverse_columns(G0, np.arange(j, min(j + _BLOCK, n)))
        e = j + X.shape[1]
        A[j: e] = X.T
        del X  # before the next block is solved
        residual = max(residual, block_residual)
        scale = max(scale, float(np.abs(A[j: e]).max()))
        # every pair (i, c) with max(i, c) in this block, against its mirror
        diff = max(diff, float(np.abs(A[j: e, :e] - A[:e, j: e].T).max()))
    return InverseGram(A, residual, diff / scale if scale > 0 else 0.0)
