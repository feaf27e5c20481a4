"""Evaluation of the max-normalized B-spline basis and spline combinations.

The basis of order ``k`` on a knot sequence consists of ``n`` nonnegative
piecewise polynomials, each supported on ``k`` consecutive knot intervals
and summing to one everywhere on ``[a, b]``.  At any point exactly ``k`` of
them can be nonzero; evaluation returns that dense block plus the index of
its first member.

The triangular recurrence used here never divides by a zero knot
difference: every denominator contains the (nondegenerate) interval of the
evaluation point.  At ``x = b`` the lookup clamps to the last nondegenerate
interval, which amounts to evaluating the left limit, so the final basis
function attains 1 and the partition of unity holds on the closed interval.
"""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatch
from .knots import KnotSequence
from .quadrature import gauss_points

__all__ = ["eval_basis_many", "eval_spline_many", "node_blocks",
           "span_gauss_blocks"]


def _blocks_at_spans(t: np.ndarray, k: int, x: np.ndarray,
                     spans: np.ndarray) -> np.ndarray:
    """Basis blocks of order ``k`` on knots ``t`` at points whose containing
    span is already known.

    Returns a C-ordered ``(m, k)`` array; row ``p`` holds functions
    ``spans[p]-k+1 .. spans[p]`` at ``x[p]``.  Only knots ``spans[p]-k+2 ..
    spans[p]+k-1`` are read, so ``t`` may be several knot vectors end to
    end, each span offset by the start of its own.  The recurrence runs on
    contiguous rows of ``(k, m)`` arrays, written in place by ``out=``, and
    the result is transposed once at the end.
    """
    m = x.shape[0]
    vals = np.zeros((k, m))
    vals[0] = 1.0
    left = np.empty((k, m))
    right = np.empty((k, m))
    tmp = np.empty(m)
    saved = np.empty(m)
    for j in range(1, k):
        np.subtract(x, t[spans + 1 - j], out=left[j])
        np.subtract(t[spans + j], x, out=right[j])
        saved[:] = 0.0
        for r in range(j):
            np.add(right[r + 1], left[j - r], out=tmp)
            np.divide(vals[r], tmp, out=tmp)
            # vals[r] = saved + right[r + 1] * tmp
            np.multiply(right[r + 1], tmp, out=vals[r])
            np.add(saved, vals[r], out=vals[r])
            np.multiply(left[j - r], tmp, out=saved)
        vals[j] = saved
    return np.ascontiguousarray(vals.T)


def node_blocks(t: np.ndarray, k: int, x: np.ndarray, spans) -> np.ndarray:
    """Basis blocks of order ``k`` on knots ``t`` (see ``_blocks_at_spans``)
    at a ``(P, g)`` array of nodes, row ``p`` inside span ``spans[p]``:
    shape ``(P, g, k)``, ``[p, q]`` holding functions ``spans[p]-k+1 ..
    spans[p]`` at ``x[p, q]``."""
    blocks = _blocks_at_spans(t, k, x.ravel(), np.repeat(spans, x.shape[1]))
    return blocks.reshape(x.shape + (k,))


def span_gauss_blocks(K: KnotSequence):
    """``(x, w, blocks)``: the k-point rule of ``quadrature.gauss_points`` on
    every nondegenerate span ``K.spans`` and the basis blocks at its nodes.
    The rule integrates every product of two basis functions exactly up to
    roundoff.
    """
    spans, t = K.spans, K.t
    x, w = gauss_points(t[spans], t[spans + 1], K.k)
    return x, w, node_blocks(t, K.k, x, spans)


def eval_basis_many(K: KnotSequence, x) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized basis blocks: returns ``(first, values)`` with shapes
    ``(m,)`` and ``(m, k)``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    spans = K.span_indices(x)
    return spans - (K.k - 1), _blocks_at_spans(K.t, K.k, x, spans)


def eval_spline_many(K: KnotSequence, c, x) -> np.ndarray:
    """Evaluate ``sum_i c[i] N_i`` at an array of points."""
    c = np.asarray(c, dtype=float)
    if c.shape != (K.n,):
        raise LengthMismatch(f"expected {K.n} coefficients, got shape {c.shape}")
    first, vals = eval_basis_many(K, x)
    idx = first[:, None] + np.arange(K.k)[None, :]
    return np.einsum("mj,mj->m", vals, c[idx])
