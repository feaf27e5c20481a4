"""Gauss-Legendre rules and a work-list adaptive integrator.

Every piece of an integration job carries a pair of nested Gauss values
(order ``g`` and ``2g``), measured by ``gauss_pair`` for every caller; their
difference is the piece's error estimate.  The work list refines the worst
piece first: by bisection until a fixed depth, then by doubling the rule
order up to a cap.  Bisection grades
dyadically into endpoint singularities, which keeps the scheme generic (no
singularity-specific rules); the final error estimate is returned so callers
can verify the achieved tolerance a posteriori.
"""

from __future__ import annotations

import math
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import count

import numpy as np

from .errors import QuadratureNonConvergence

__all__ = ["gauss_rule", "gauss_pair", "integrate_adaptive", "Piece",
           "refine_pieces", "MAX_DEPTH", "MAX_ORDER"]

MAX_DEPTH = 40
MAX_ORDER = 1024
_MAX_REFINEMENTS = 20000
#: Largest batch of initial pieces handed to one ``eval_pair`` call; it bounds
#: the size of the node and basis arrays an evaluator builds at once.
_BATCH = 256


@lru_cache(maxsize=None)
def gauss_rule(g: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the g-point Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(g)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_points(lo, hi, g: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule mapped to [lo, hi]; nodes are strictly interior.

    With arrays of endpoints, row ``p`` of the ``(P, g)`` results holds the
    rule on ``[lo[p], hi[p]]``, bitwise equal to mapping it piece by piece.
    """
    x, w = gauss_rule(g)
    lo = np.asarray(lo, dtype=float)[..., None]
    half = 0.5 * (np.asarray(hi, dtype=float)[..., None] - lo)
    return lo + half * (x + 1.0), half * w


class Piece:
    """One subinterval of an integration job.

    ``floor`` is the roundoff level of the piece's quadrature sum; once the
    estimate reaches it, further refinement cannot help and the piece is
    frozen.
    """

    __slots__ = ("lo", "hi", "depth", "order", "payload", "value", "est", "floor")

    def __init__(self, lo, hi, depth=0, order=8, payload=None):
        self.lo = lo
        self.hi = hi
        self.depth = depth
        self.order = order
        self.payload = payload
        self.value = None
        self.est = np.inf
        self.floor = 0.0

    def measure(self, pair_values, magnitude=0.0):
        self.value, self.est = pair_values
        self.floor = 8e-16 * magnitude


def refine_pieces(pieces, eval_pair, tol):
    """Drive the work list until the summed error estimate is below ``tol``.

    ``eval_pair(batch)`` measures a list of pieces that share one rule
    order: it must fill each piece's ``value`` (any numpy value or vector)
    and ``est`` (a float).  The initial pieces, which must share one order,
    go in consecutive batches of at most ``_BATCH``; the two halves of a
    bisected piece go in one batch and an order-doubled piece alone.  The
    worst piece comes off a heap keyed by (-est, entry number), so ties go
    to the earliest entry.  Returns the live pieces in entry order, then
    the frozen ones, and the total estimate; raises
    QuadratureNonConvergence when the refinement budget is exhausted first,
    or as soon as a piece's estimate is inf or NaN (an integrand value that
    is not finite makes the estimate so).
    """
    if len({p.order for p in pieces}) > 1:
        raise ValueError("initial pieces must share one rule order")

    def evaluate(batch):
        eval_pair(batch)
        for p in batch:
            if not math.isfinite(p.est):
                raise QuadratureNonConvergence(
                    f"non-finite error estimate {p.est} on [{p.lo:.17g}, {p.hi:.17g}]")

    for s in range(0, len(pieces), _BATCH):
        evaluate(pieces[s: s + _BATCH])
    live = [(-p.est, i, p) for i, p in enumerate(pieces)]
    heapify(live)
    entries = count(len(live))
    frozen: list[Piece] = []
    frozen_est = 0.0
    live_est = sum(p.est for p in pieces)
    refinements = 0
    while live_est + frozen_est > tol:
        if not live or frozen_est > tol or refinements >= _MAX_REFINEMENTS:
            raise QuadratureNonConvergence(
                f"estimate {live_est + frozen_est:.3g} above tolerance "
                f"{tol:.3g} after {refinements} refinements"
            )
        p = heappop(live)[2]
        live_est -= p.est
        refinements += 1
        if p.est <= p.floor:
            frozen.append(p)
            frozen_est += p.est
        elif p.depth < MAX_DEPTH:
            mid = 0.5 * (p.lo + p.hi)
            if mid <= p.lo or mid >= p.hi:
                p.depth = MAX_DEPTH  # interval at floating-point resolution
                heappush(live, (-p.est, next(entries), p))
                live_est += p.est
                continue
            kids = [
                Piece(p.lo, mid, p.depth + 1, p.order, p.payload),
                Piece(mid, p.hi, p.depth + 1, p.order, p.payload),
            ]
            evaluate(kids)
            for q in kids:
                live_est += q.est
                heappush(live, (-q.est, next(entries), q))
        elif 2 * p.order <= MAX_ORDER:
            p.order *= 2
            evaluate([p])
            live_est += p.est
            heappush(live, (-p.est, next(entries), p))
        else:
            frozen.append(p)
            frozen_est += p.est
    live.sort(key=lambda e: e[1])
    return [p for _, _, p in live] + frozen, live_est + frozen_est


def _weighted_sums(w, f, blocks):
    """``w @ f`` per piece as a one-column row without ``blocks``, else
    ``(w * f) @ blocks``: stacked products, bitwise the per-piece ones, which
    einsum is not.  The two forms differ in the last bit; each keeps its own."""
    left, right = (w, f[:, :, None]) if blocks is None else (w * f, blocks)
    return np.matmul(left[:, None, :], right)[:, 0]


def gauss_pair(fn, basis=None):
    """The one pair evaluator: ``eval_pair(batch)`` measures each piece with
    the Gauss rules of orders g and 2g.  A piece's value is ``int fn``, or,
    with ``basis(x, payloads)`` mapping ``(P, g)`` nodes to ``(P, g, m)``
    blocks, the m-vector ``int fn * blocks``, whose estimate and roundoff
    magnitude are the largest over its entries.
    """
    def eval_pair(batch):
        lo = np.array([p.lo for p in batch])
        hi = np.array([p.hi for p in batch])
        payloads = None if basis is None else np.array([p.payload for p in batch])
        sums = []
        # a value of fn that is not finite makes the estimate so, which
        # refine_pieces raises as a numerical failure: no warning on the way
        with np.errstate(invalid="ignore"):
            for g in (batch[0].order, 2 * batch[0].order):
                x, w = gauss_points(lo, hi, g)
                fx = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
                blocks = None if basis is None else basis(x, payloads)
                sums.append(_weighted_sums(w, fx, blocks))
            # the order-2g sum of |fn| sets each piece's roundoff floor
            mag = _weighted_sums(w, np.abs(fx), blocks).max(axis=1)
            est = np.abs(sums[1] - sums[0]).max(axis=1)
        values = sums[1][:, 0].tolist() if basis is None else sums[1]
        for p, v, e, m in zip(batch, values, est.tolist(), mag.tolist()):
            p.measure((v, e), magnitude=m)

    return eval_pair


def integrate_adaptive(fn, lo: float, hi: float, markers=(), tol=1e-12):
    """Adaptive integral of a vectorized scalar function over [lo, hi].

    ``markers`` are points (jumps, kinks, integrable singularities) at which
    the initial pieces are cut.  Returns ``(value, error_estimate)``.
    """
    if hi <= lo:
        return 0.0, 0.0
    cuts = np.union1d([lo, hi], [m for m in markers if lo < m < hi]).tolist()
    done, est = refine_pieces([Piece(a, b) for a, b in zip(cuts, cuts[1:])],
                              gauss_pair(fn), tol)
    return float(sum(p.value for p in done)), float(est)
