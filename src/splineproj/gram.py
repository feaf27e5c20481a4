"""B-spline Gram matrices: assembly, banded solves, and full inversion.

The Gram matrix ``g[i, j] = <N_i, N_j>`` is symmetric positive definite
with bandwidth ``k - 1``.  On every nondegenerate knot interval the
integrand ``N_i * N_j`` is a polynomial of degree at most ``2k - 2``, so a
k-point Gauss rule per interval assembles each entry exactly up to
roundoff.  It is stored by rows of its upper band, ``band[i, d] = G0[i,
i + d]``, and the Cholesky factor ``G0 = U^T U`` is kept in the same layout.

The factor and the solves are numpy only.  ``GramMatrix.factor`` is a
blocked banded Cholesky: one ``np.linalg.cholesky`` per window of at most
``_ROWS + k - 1`` rows, each window's leading corner corrected by the rows
the window before it factored, in O(n k) memory.  ``_cho_solve`` solves
``U^T y = b`` and then ``U x = y`` in place, for a vector or an n x m
block, by ``_substitute``: a substitution that runs over the rows of all
blocks at once and then carries the k - 1 values that link each block to
the next from block to block.  It uses elementwise arithmetic only, so
each column of a block is bitwise that column solved on its own.

The inverse is dense by nature, its entries merely decay away from the
diagonal.  It is read two ways.  ``solve_banded`` against identity
columns gives the columns asked for, which are also rows, the matrix being
symmetric.  ``inverse_rows`` streams every row's upper triangle, bottom-up,
by block back-substitution through the banded factor: each block of rows
from the k - 1 rows below it, by one small solve against the block's
triangle of U and one GEMM, in O(n) memory.  Where the entries' decay
underflows, the stream holds exact zeros, never a subnormal: each entry
below the smallest normal double in magnitude is set to zero as its block
is formed.  So each block's rows end at its extent, one past the last
column where they can be nonzero: the stream works it out once per block,
stops the products of the block above there, and yields the rows cut at
it.  Its residual, two more GEMMs per block, still covers every entry of
``G0 A - I``.  ``invert_gram`` forms the whole inverse from that stream,
each block up to its extent in a zero array and its upper triangle
mirrored below it, so it is exactly symmetric.

Every solve is one pass through the cached factor and one residual gate,
``_gate``, with nothing refined: banded Cholesky is backward stable, so a
residual above its target signals a wrong factor or a NaN.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import isqrt

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .bspline import span_gauss_blocks
from .errors import LengthMismatch, NotPositiveDefinite, RefinementFailure
from .knots import KnotSequence

__all__ = ["GramMatrix", "InverseGram", "assemble_gram", "scaled_gram",
           "solve_banded", "inverse_rows", "invert_gram"]

#: Largest ``max |G0 A - I|`` an inverse is accepted with, from any block
#: of the row stream.
RESIDUAL_TARGET = 1e-9
#: Rows of the inverse that ``inverse_rows`` yields at once, the width of
#: the tiles of G0 its residual reads, and the most rows of a window of the
#: banded Cholesky.
_ROWS = 32
#: Windows the banded Cholesky lays out at once: 64 x 41 x 41 doubles (860
#: kB) at k = 10.
_WINDOWS = 64
#: The smallest normal double: ``inverse_rows`` holds no entry below it in
#: magnitude but exact zeros.
_TINY = np.finfo(float).tiny


@dataclass(eq=False)
class GramMatrix:
    """Symmetric banded matrix by rows of its upper band: ``band[i, d]``
    holds the entry ``(i, i + d)`` for ``d = 0 .. k-1``, zero past the last
    column."""

    band: np.ndarray
    _factor: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.band.shape[0]

    @property
    def order(self) -> int:
        return self.band.shape[1]

    def entry(self, i, j):
        """Entry ``(i, j)``; ``i`` and ``j`` may be index arrays."""
        lo = np.minimum(i, j)
        d = np.maximum(i, j) - lo
        inside = d < self.order
        vals = self.band[lo, np.where(inside, d, 0)]
        return np.where(inside, vals, 0.0)[()]

    def to_dense(self) -> np.ndarray:
        return self.entry(*np.indices((self.n, self.n)))

    def matvec(self, c: np.ndarray) -> np.ndarray:
        """``G c`` for a vector or, column by column, an ``(n, m)`` block."""
        c = np.asarray(c, dtype=float)
        n, k = self.n, self.order
        band = self.band.reshape(self.band.shape + (1,) * (c.ndim - 1))
        out = band[:, 0] * c
        for d in range(1, k):
            diag = band[: n - d, d]
            out[: n - d] += diag * c[d:]
            out[d:] += diag * c[: n - d]
        return out

    def factor(self) -> np.ndarray:
        """Banded Cholesky factor ``U`` in the layout of ``band``
        (``G0 = U^T U``), computed once and cached; see ``_cholesky_banded``."""
        if self._factor is None:
            self._factor = _cholesky_banded(self.band)
        return self._factor


def _cholesky_banded(band: np.ndarray) -> np.ndarray:
    """``U`` with ``G0 = U^T U`` for the matrix ``band`` holds, in the same
    layout: ``U_i,i+d`` at ``[i, d]``, zero past the last column.

    Block by block of at most ``_ROWS`` rows, R each: window b is the dense
    matrix of rows and columns ``Rb .. Rb + R - 1 + p`` (``p = k - 1``; the
    identity past the matrix, so that every window is whole), its leading
    p x p corner less ``C C^T``, with ``C`` the p x p block of the window
    before's factor that couples the rows before the window to that corner.
    One ``np.linalg.cholesky`` then gives the window's first R rows of
    ``U`` and, as ``C``, the coupling for the next window.  A window that
    is not positive definite raises NotPositiveDefinite; a NaN is not one,
    since LAPACK's Cholesky takes it through, and it reaches the residual
    gates.
    """
    n, k = band.shape
    p = k - 1
    # as few windows as with _ROWS rows each, and as even; at least p rows,
    # so that the coupling C lies within the window before
    count = -(-n // max(_ROWS, p))
    rows = max(-(-n // count), p)
    w = rows + p
    # the band, and the identity past the matrix
    g = np.zeros((rows * count + p, k))
    g[n:, 0] = 1.0
    g[:n] = band
    urow = np.empty((rows * count, k))
    r = np.arange(w)
    corner = np.zeros((p, p))
    for b0 in range(0, count, _WINDOWS):
        b1 = min(b0 + _WINDOWS, count)
        first = rows * np.arange(b0, b1)[:, None]
        S = np.zeros((b1 - b0, w, w))
        for d in range(k):
            S[:, r[d:], r[: w - d]] = S[:, r[: w - d], r[d:]] = g[first + r[: w - d], d]
        L = np.empty_like(S)
        for b, s in enumerate(S):
            s[:p, :p] -= corner
            try:
                L[b] = np.linalg.cholesky(s)
            except np.linalg.LinAlgError as exc:
                i = rows * (b0 + b)
                raise NotPositiveDefinite(
                    f"banded Cholesky broke down in rows {i}..{min(i + w, n) - 1}: {exc}"
                ) from exc
            coupling = L[b, rows:, rows - p: rows]
            corner = coupling @ coupling.T
        for d in range(k):
            urow[rows * b0: rows * b1, d] = L[:, r[d: rows + d], r[:rows]].ravel()
    fac = urow[:n]
    for d in range(1, k):
        fac[n - d:, d] = 0.0  # past the last column
    return fac


@dataclass(frozen=True, eq=False)
class InverseGram:
    """Dense inverse of a Gram matrix with its quality certificate.

    ``residual`` is ``max |(G0 A - I)_ij|``; ``entries`` is exactly
    symmetric, its lower triangle the upper one mirrored.  Rows of
    ``entries`` are the coefficient vectors of the basis dual to the
    B-splines.
    """

    entries: np.ndarray
    residual: float

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def assemble_gram(K: KnotSequence) -> GramMatrix:
    """Assemble ``<N_i, N_j>`` by exact per-interval Gauss quadrature."""
    k, n = K.k, K.n
    _, w, blocks = span_gauss_blocks(K)
    local = np.matmul((blocks * w[:, :, None]).transpose(0, 2, 1), blocks)
    # add each span's upper triangle into the band by slices (the spans are
    # distinct, so no slice repeats a row): q runs down, so every band
    # entry takes its spans in ascending order, the order of a plain loop
    first = K.spans - (k - 1)
    band = np.zeros((n, k))
    for q in range(k - 1, -1, -1):
        for p in range(q + 1):
            band[first + p, q - p] += local[:, p, q]
    return GramMatrix(band)


def scaled_gram(G0: GramMatrix, K: KnotSequence) -> np.ndarray:
    """Row-rescaled Gram matrix ``<M_i, N_j>`` with unit row sums, dense.

    Row ``i`` of the plain Gram matrix divided by ``kappa_i / k``; the
    result is banded but no longer symmetric.
    """
    if G0.n != K.n:
        raise LengthMismatch(f"Gram dimension {G0.n} != spline dimension {K.n}")
    return G0.to_dense() * (K.k / K.kappa)[:, None]


def solve_banded(G0: GramMatrix, rhs) -> np.ndarray:
    """Solve ``G0 c = rhs`` by one pass through the cached banded Cholesky
    factor, gated at a residual ``max |G0 c - rhs|`` of ``1e-10 * max |rhs|``.

    Work is O(n k^2) per right-hand side.  Raises NotPositiveDefinite on
    factorization breakdown, which for an assembled Gram matrix signals an
    assembly bug rather than an input problem, and RefinementFailure on a
    residual above the target: nothing is refined.
    """
    rhs = np.asarray(rhs)
    if rhs.dtype.kind not in "biu":
        rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != G0.n:
        raise LengthMismatch(f"rhs length {rhs.shape[0]} != dimension {G0.n}")
    # one float copy of rhs, which the solve overwrites; the residual takes
    # a boolean or integer rhs as it is, converted as in the copy.  A NaN in
    # rhs makes the residual NaN, not the target
    c = rhs.astype(float)
    target = 1e-10 * np.abs(c[np.isfinite(c)]).max(initial=0.0)
    _cho_solve(G0.factor(), c)
    residual = G0.matvec(c)
    residual -= rhs
    _gate(residual, target, "solve")
    return c


def _gate(R, target: float, what: str, where: str = "") -> float:
    """``max |R|``, the residual of a solve; RefinementFailure when it is
    above ``target`` or NaN."""
    residual = float(np.abs(R).max(initial=0.0))
    if not residual <= target:
        raise RefinementFailure(f"{what} residual {residual:.3e} above {target:.3g}{where}")
    return residual


def _cho_solve(fac: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``G0^-1 B`` in place of ``B``, a vector or an n x m block of any
    layout, from the band factor ``fac`` of ``G0 = U^T U``: ``U^T y = B``,
    then ``U x = y`` as a lower triangular system in reversed row order.
    Returns ``B``.  Every column is bitwise the same as when solved alone."""
    n, k = fac.shape
    B2 = B.reshape(n, -1) if B.ndim == 1 else B
    # row i of U^T reads U_i-d,i = fac[i - d, d] for d = 0 .. k - 1
    forward = np.zeros((k, n))
    for d in range(k):
        forward[d, d:] = fac[: n - d, d]
    _substitute(forward, B2)
    # row n - 1 - i of U, reversed, reads U_i,i+d = fac[i, d]
    _substitute(fac.T[:, ::-1], B2[::-1])
    return B


def _substitute(coef: np.ndarray, B: np.ndarray) -> None:
    """Solve the banded lower triangular system
    ``sum_d coef[d, i] v[i - d] = B[i]`` (``d = 0 .. p``; ``coef[0]`` the
    diagonal) in place of the n x m array ``B``, which may be a view.
    ``coef[d, i]`` for ``i < d`` multiplies zeros, so any finite value there
    is harmless.

    Each row is first divided by its diagonal entry.  The rows go in blocks
    of ``R ~ sqrt(n)``, all blocks at once, row by row: block b's rows as if
    the p values before it were zero (the first m columns of ``X``), and as
    their response to each of those p values set to one (the last p
    columns; the p rows ahead of each block in ``X`` hold these p unit
    values).  Then the p values that end each block are carried to the
    next, block by block, and each block adds its response to the values
    before it.  Each step is elementwise across the columns, and every sum
    runs along the first axis of a C-ordered array, in the same order
    whatever m is."""
    p = coef.shape[0] - 1
    n, m = B.shape
    R = max(p, 1, isqrt(n))
    count = -(-n // R)
    head, last = R * (count - 1), n - R * (count - 1)
    c = np.zeros((p + 1, R * count))
    c[0, n:] = 1.0
    c[:, :n] = coef
    c = c.reshape(p + 1, count, R).transpose(2, 0, 1)  # c[r, d, b]
    # X[p + r, :, b] is row r of block b: its m values, then its p responses
    X = np.zeros((p + R, m + p, count))
    for j in range(p):
        X[j, m + j] = 1.0
    X[p:, :m, :-1] = B[:head].reshape(count - 1, R, m).transpose(1, 2, 0)
    X[p: p + last, :m, -1] = B[head:]
    X[p:, :m] /= c[:, :1]
    if p:
        # off[r, j, 0, b] multiplies the value p - j rows before row r of
        # block b, and before[r, j] = X[r + j] holds it
        off = (c[:, :0:-1] / c[:, :1])[:, :, None]
        s0, s1, s2 = X.strides
        before = as_strided(X, shape=(R, p, m + p, count), strides=(s0, s0, s1, s2))
        terms, total = np.empty((p, m + p, count)), np.empty((m + p, count))
        for row, o, prev in zip(X[p:], off, before):
            np.multiply(o, prev, out=terms)
            row -= np.add.reduce(terms, axis=0, out=total)
        # response[b, j, i, 0]: of the i-th of block b's last p values to the
        # j-th value before the block
        response = np.ascontiguousarray(X[R:, m:].transpose(2, 1, 0))[..., None]
        carried = np.zeros((count, p, m))  # the p values before each block
        terms = np.empty((p, p, m))
        for end, z, t, out in zip(X[R:, :m].transpose(2, 0, 1), response,
                                  carried[:, :, None], carried[1:]):
            np.multiply(z, t, out=terms)
            np.add.reduce(terms, axis=0, out=out)
            out += end
        carried = carried.transpose(1, 2, 0)
        for j in range(p):
            X[p:, :m] += X[p:, m + j, None] * carried[j]
    B[:head].reshape(count - 1, R, m)[:] = X[p:, :m, :-1].transpose(2, 0, 1)
    B[head:] = X[p: p + last, :m, -1]


def invert_gram(G0: GramMatrix) -> InverseGram:
    """Dense inverse from ``inverse_rows``, one C-ordered n x n array.

    Each streamed block's upper triangle, from the diagonal to the block's
    extent, is written into its rows of a zero array, and its transpose
    into the columns below it, so the inverse is exactly symmetric and the
    only n x n array held.  ``residual`` is the largest block residual,
    whose ``A G0`` half covers ``G0 A - I`` below the diagonal; the stream
    raises RefinementFailure at a block above ``RESIDUAL_TARGET``.
    """
    n = G0.n
    A = np.zeros((n, n))
    residual = 0.0
    for j, rows, block_residual in inverse_rows(G0):
        m, end = rows.shape
        upper = rows[:, j:]
        A[j: j + m, j: end] = upper
        A[j + m: end, j: j + m] = upper[:, m:].T
        # the block's own lower triangle, over the band and the zeros the
        # stream leaves left of it
        block, lower = A[j: j + m, j: j + m], np.tri(m, k=-1, dtype=bool)
        block[lower] = block.T[lower]
        residual = max(residual, block_residual)
    return InverseGram(A, residual)


def inverse_rows(G0: GramMatrix):
    """The inverse's rows, ``_ROWS`` at a time from the last block up.

    Yields ``(j, rows, residual)`` for the blocks ``j = ..., 64, 32, 0``:
    ``rows[r]`` is row ``i = j + r`` of the inverse ``A`` up to the
    block's extent, one past the last column where any of its rows can be
    nonzero (at most n, at least ``j + rows.shape[0]``); every entry of the
    rows further right is zero.  A row holds the upper triangle from column
    ``i`` on, the ``p = k - 1`` entries left of the diagonal mirrored in,
    and zeros further left, and column indices are those of ``A``.
    ``rows`` is a view of a rolling buffer of ``_ROWS + 2p`` rows,
    overwritten when the next block is asked for.

    With the cached factor ``G0 = U^T U``, ``U A = U^-T`` is lower triangular,
    so a block B of rows follows from the p rows N below it alone, nothing
    being solved per column.  With ``W = U_BB^-1`` and ``T = -U_BB^-1 U_BN``,
    both from one triangular solve,

        A[B, c] = T A[N, c]                    for the columns c right of B,
        A[B, B] = W W^T + T A[N, N] T^T,

    the first one GEMM by the rows of N, and ``T A[N, N]`` the first p
    columns of its result.  The upper triangle of ``A[B, B]`` is kept; the
    band left of the diagonal is copied in from the upper triangle, exactly.
    An entry of the first below the smallest normal double in magnitude is
    set to zero: no later product reads a subnormal, and each block's
    extent is where its underflow begins.

    ``residual`` is ``max |G0 A - I|`` over every entry of the block's rows
    of ``G0 A`` from the diagonal on, and of ``A G0 = (G0 A)^T`` right of
    the diagonal: together every entry of the matrix once the stream ends.
    Each half is a GEMM (see ``_block_residual``).  ``G0 A`` reads the p
    rows above the block, so a block is yielded once those exist.  A
    residual above ``RESIDUAL_TARGET`` (or NaN) raises RefinementFailure.
    """
    n, p = G0.n, G0.order - 1
    urow = G0.factor()
    tiles = _gram_tiles(G0)
    # buffer row s is row base + s of A, column c of A is column c + p; the
    # rows and columns outside the matrix stay zero, and the columns run on
    # to the last whole tile of G0
    buf = np.zeros((_ROWS + 2 * p, _ROWS * tiles.shape[0] + 2 * p))
    # extents, in buffer columns, of the blocks whose rows the buffer holds:
    # the last one and ceil(2p / _ROWS) before it, the oldest the widest, as
    # each block is zero past the extent of the one below it.  The seed
    # n + p leaves the last block no columns right of it to form
    extents = deque([n + p], maxlen=1 + -(-2 * p // _ROWS))
    done = n  # rows done .. n - 1 are computed
    for j in range(_ROWS * ((n - 1) // _ROWS), -1, -_ROWS):
        base = j - p
        if done < n:
            # rows j + _ROWS - p .. j + _ROWS + p - 1 move to the bottom
            buf[_ROWS:] = buf[: 2 * p]
        lo = max(base, 0)
        if lo < done:
            extents.append(_row_block(buf[lo - base:], urow[lo: done], lo + p, extents[-1]))
        done = lo
        if base < 0:
            buf[: -base] = 0.0
        e, end = min(_ROWS, n - j), extents[0]
        residual = _gate(_block_residual(buf, tiles, j, e, p, end), RESIDUAL_TARGET,
                         "inverse", f" in rows {j}..{j + e - 1}")
        yield j, buf[p: p + e, p: end], residual


def _band(a, c, width, below=False):
    """Writeable view ``v[r, d] = a[r, c + r + d]``, the ``width`` entries
    from the diagonal that starts at column ``c`` of ``a`` on to the right,
    or with ``below`` ``a[r + d, c + r]``, the same count down from it."""
    s0, s1 = a.strides
    return as_strided(a[:, c:], shape=(a.shape[0] - (width - 1) * below, width),
                      strides=(s0 + s1, s0 if below else s1))


def _row_block(rows, urow, c, hi):
    """The m rows of ``urow`` (``urow[r, d] = U_i,i+d`` for their rows i) as
    the first m rows of the buffer view ``rows``, from the p rows below them,
    by the block formulas of ``inverse_rows``; returns their extent.  Row
    r's diagonal sits at column ``c + r``.  ``hi`` is the extent of the
    block below, whose first p rows are the rows below and whose rows the
    buffer rows of the new block still hold: all are zero from column
    ``hi`` on, so only the columns left of it are formed and none is
    cleared.  Right of the block, an entry of magnitude below ``_TINY``
    becomes zero, and the extent is one past the last nonzero column there,
    or ``c + m``.  Then the band left of the diagonal is copied in from the
    upper triangle, in the block and in the p rows below it."""
    m, p = urow.shape[0], urow.shape[1] - 1
    # U's rows of the block as one dense m x (m + p) array: U_BB, then U_BN
    U = np.zeros((m, m + p))
    _band(U, 0, p + 1)[:] = urow
    rhs = np.eye(m, m + p)
    rhs[:, m:] -= U[:, m:]
    # [W | T]; U_BB is triangular, so LU makes no row swaps and no
    # eliminations, and a NaN goes through to the residual
    WT = np.linalg.solve(U[:, :m], rhs)
    W, T = WT[:, :m], WT[:, m:]
    block, below = rows[:m], rows[m: m + p]
    far = block[:, c + m: hi]
    np.matmul(T, below[:, c + m: hi], out=far)
    # the underflow tail: every operation on a subnormal takes a microcode
    # assist on x86, so it becomes an exact zero (a NaN fails the test)
    np.copyto(far, 0.0, where=np.abs(far) < _TINY)
    D = W @ W.T
    D += block[:, c + m: c + m + p] @ T.T
    block[:, c: c + m] = np.triu(D)
    _band(rows[: m + p], c, p + 1, below=True)[:, 1:] = _band(rows[:m], c, p + 1)[:, 1:]
    return c + m + _nonzero_width(far)


def _gram_tiles(G0: GramMatrix) -> np.ndarray:
    """``tiles[t] = G0[32t - p : 32t + 32 + p, 32t : 32t + 32]``, for
    ``_ROWS = 32``, zero outside the matrix: the part of G0 that column tile
    t of ``A G0`` reads and, transposed, the band of G0's rows in block t.
    O(n) doubles."""
    n, p = G0.n, G0.order - 1
    count = -(-n // _ROWS)
    # diag[p + q, c] = G_c+q,c, zero outside the matrix
    diag = np.zeros((2 * p + 1, _ROWS * count))
    for q in range(p + 1):
        diag[p + q, : n - q] = diag[p - q, q: n] = G0.band[: n - q, q]
    tiles = np.zeros((count, _ROWS + 2 * p, _ROWS))
    c = np.arange(_ROWS)
    for q in range(2 * p + 1):
        tiles[:, c + q, c] = diag[q].reshape(count, _ROWS)
    return tiles


def _block_residual(buf, tiles, j, e, p, end):
    """``max |G0 A - I|`` over rows ``j .. j+e-1`` of ``G0 A`` from the
    diagonal on, and over the same rows of ``A G0`` right of the diagonal;
    ``buf`` holds rows ``j - p ..`` of ``A`` as ``inverse_rows`` lays them
    out, zero from its column ``end`` on, and ``tiles`` is
    ``_gram_tiles(G0)``.  ``G0 A`` is one GEMM of the block's band of G0 by
    the buffer's rows; ``A G0`` one batched product of the block's rows,
    cut into tiles of ``_ROWS + 2p`` columns that overlap by 2p, by the
    tiles of G0.  A NaN anywhere makes the residual NaN.  Both products
    stop at the tile that reads column ``end - 1``: every entry they leave
    out is zero."""
    t = j // _ROWS
    count = max(min(tiles.shape[0], (end - 1) // _ROWS + 1) - t, 1)
    ga = tiles[t, :, :e].T @ buf[:, j + p: _ROWS * (t + count) + p]
    ga[:, :e] = np.triu(ga[:, :e]) - np.eye(e)
    worst = np.abs(ga, out=ga).max()
    rows = buf[p: p + e, j:]
    s0, s1 = rows.strides
    windows = as_strided(rows, shape=(count, e, _ROWS + 2 * p),
                         strides=(_ROWS * s1, s0, s1))
    # A G0 has as many entries as G0 A, so it is written over it
    ag = np.matmul(windows, tiles[t: t + count], out=ga.reshape(count, e, _ROWS))
    ag[0] = np.triu(ag[0], 1)
    return float(np.maximum(worst, np.abs(ag, out=ag).max()))


def _nonzero_width(a) -> int:
    """One past the last column of ``a`` with an entry that is not zero; a
    NaN counts as not zero."""
    if a[:, -1:].any():
        return a.shape[1]
    nonzero = np.flatnonzero(a.any(axis=0))
    return int(nonzero[-1]) + 1 if nonzero.size else 0
