"""B-spline Gram matrices: assembly, banded solves, and full inversion.

The Gram matrix ``g[i, j] = <N_i, N_j>`` is symmetric positive definite
with bandwidth ``k - 1``.  On every nondegenerate knot interval the
integrand ``N_i * N_j`` is a polynomial of degree at most ``2k - 2``, so a
k-point Gauss rule per interval assembles each entry exactly up to
roundoff.  Storage is the LAPACK upper symmetric-banded layout, which feeds
straight into the banded Cholesky solver.

The inverse is dense by nature, its entries merely decay away from the
diagonal.  It has two producers.  ``inverse_columns`` solves and refines
only the columns asked for, which are also rows, the matrix being
symmetric; ``invert_gram`` forms the whole inverse from those same columns,
block by block, and measures how far they are from symmetric.
``inverse_rows`` streams every row's upper triangle, bottom-up, by the
back-substitution recurrence of the banded factor, in O(n) memory and with
a residual over every entry, but with no refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .bspline import span_gauss_blocks
from .errors import LengthMismatch, NotPositiveDefinite, RefinementFailure
from .knots import KnotSequence

__all__ = ["GramMatrix", "InverseGram", "assemble_gram", "scaled_gram",
           "solve_banded", "inverse_columns", "inverse_rows", "invert_gram"]

#: Largest ``max |G0 A - I|`` an inverse is accepted with: it ends the
#: refinement of solved columns early, and bounds the unrefined row stream.
RESIDUAL_TARGET = 1e-9
#: Width of the column blocks ``invert_gram`` solves and refines: n x 256
#: doubles at a time beside the inverse.
_BLOCK = 256
#: Rows of the inverse that ``inverse_rows`` yields at once.
_ROWS = 32
#: Columns of a row block whose residual is summed at once: two work
#: arrays of _ROWS x 512 doubles, not of _ROWS x n.
_RESIDUAL_COLUMNS = 512


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


def inverse_rows(G0: GramMatrix):
    """The inverse's rows, ``_ROWS`` at a time from the last block up.

    Yields ``(j, rows, residual)`` for the blocks ``j = ..., 64, 32, 0``:
    ``rows[r]`` is row ``i = j + r`` of the inverse ``A``, an array of
    length n that holds the upper triangle from column ``i`` on, the
    ``p = k - 1`` entries left of the diagonal mirrored in, and zeros further
    left.  ``rows`` is a view of a rolling buffer of ``_ROWS + 2p`` rows,
    overwritten when the next block is asked for.

    With the cached factor ``G0 = U^T U``, ``U A = U^-T`` is lower triangular
    with diagonal ``1 / U_ii``, so row ``i`` follows from rows ``i+1 ..
    i+p`` alone, nothing being solved per column:

        a_ic = -sum_{d=1..p} U_i,i+d a_i+d,c / U_ii        for c > i,
        a_ii = 1 / U_ii^2 - sum_{d=1..p} U_i,i+d a_i,i+d / U_ii.

    ``residual`` is ``max |G0 A - I|`` over every entry of the block's rows
    of ``G0 A`` from column ``j`` on, ``(G0 A)[i, c]`` for ``c >= i`` by the
    stencil over rows ``i-p .. i+p``, and ``(G0 A)[c, i] = (A G0)[i, c]``
    for ``c > i`` by the stencil along row ``i``: together every entry of
    the matrix once the stream ends.  The stencils need the p rows above the
    block, so a block is yielded once those exist.  A residual above
    ``RESIDUAL_TARGET`` raises RefinementFailure; there are no refinement
    sweeps, since a correction needs whole columns, which a bottom-up
    stream does not hold until it ends.
    """
    n, p = G0.n, G0.order - 1
    fac = G0.factor()
    # coef[i, d - 1] = -U_i,i+d / U_ii, zero past the last row
    coef = np.zeros((n, p))
    for d in range(1, p + 1):
        coef[: n - d, d - 1] = -fac[p - d, d:] / fac[p, : n - d]
    inv_sq = 1.0 / fac[p] ** 2
    # g[q + p, r] = G_r,r+q = G_r+q,r, zero outside the matrix
    g = np.zeros((2 * p + 1, n))
    for q in range(p + 1):
        g[p + q, : n - q] = g[p - q, q:] = G0.bands[p - q, q:]
    # buffer row s is row base + s of A, column c of A is column c + p; the
    # rows and columns outside the matrix stay zero
    buf = np.zeros((_ROWS + 2 * p, n + 2 * p))
    done = n  # rows done .. n - 1 are computed
    for j in range(_ROWS * ((n - 1) // _ROWS), -1, -_ROWS):
        base = j - p
        if done < n:
            # rows j + _ROWS - p .. j + _ROWS + p - 1 move to the bottom
            buf[_ROWS:] = buf[: 2 * p]
        for i in range(done - 1, max(base, 0) - 1, -1):
            b = i - base
            band = buf[b, i + p + 1: i + 2 * p + 1]
            np.dot(coef[i], buf[b + 1: b + p + 1, i + p + 1: n + p],
                   out=buf[b, i + p + 1: n + p])
            buf[b, i + p] = inv_sq[i] + coef[i] @ band
            buf[b + 1: b + p + 1, i + p] = band
        done = max(base, 0)
        if base < 0:
            buf[: -base] = 0.0
        e = min(_ROWS, n - j)
        residual = _row_block_residual(buf, g, j, e, p)
        if not residual <= RESIDUAL_TARGET:
            raise RefinementFailure(
                f"inverse residual {residual:.3e} above {RESIDUAL_TARGET:.3g} "
                f"in rows {j}..{j + e - 1}, with no refinement of a row stream")
        yield j, buf[p: p + e, p: n + p], residual


def _row_block_residual(buf, g, j, e, p):
    """``max |G0 A - I|`` over rows ``j .. j+e-1`` of ``G0 A`` from column
    ``j`` on (the upper triangle and the diagonal) and over the same part of
    ``A G0`` without the diagonal, each sum taken term by term for ``q = -p
    .. p``, ``_RESIDUAL_COLUMNS`` columns at a time; ``buf`` holds rows
    ``j - p ..`` of ``A`` as ``inverse_rows`` lays them out.  A NaN
    anywhere makes the residual NaN."""
    n = g.shape[1]
    out = np.empty((e, min(_RESIDUAL_COLUMNS, n - j)))
    term = np.empty_like(out)
    worst = []
    for c0 in range(j, n, _RESIDUAL_COLUMNS):
        c1 = min(c0 + _RESIDUAL_COLUMNS, n)
        acc, tmp = out[:, : c1 - c0], term[:, : c1 - c0]
        # (G0 A)[i, c] = sum_q G_i,i+q a_i+q,c, kept for c >= i
        np.multiply(g[0, j: j + e, None], buf[: e, c0 + p: c1 + p], out=acc)
        for q in range(1 - p, p + 1):
            acc += np.multiply(g[q + p, j: j + e, None],
                               buf[p + q: p + q + e, c0 + p: c1 + p], out=tmp)
        if c0 == j:
            acc[:, :e][np.tri(e, e, -1, dtype=bool)] = 0.0
            acc[:, :e][np.diag_indices(e)] -= 1.0
        worst.append(np.abs(acc, out=acc).max())
        # (A G0)[i, c] = sum_q a_i,c+q G_c+q,c, kept for c > i
        np.multiply(buf[p: p + e, c0: c1], g[0, c0: c1], out=acc)
        for q in range(1 - p, p + 1):
            acc += np.multiply(buf[p: p + e, c0 + p + q: c1 + p + q], g[q + p, c0: c1],
                               out=tmp)
        if c0 == j:
            acc[:, :e][np.tri(e, e, 0, dtype=bool)] = 0.0
        worst.append(np.abs(acc, out=acc).max())
    return float(np.max(worst))
