"""Gauss-Legendre rules and a work-list adaptive integrator.

An integration job is a set of pieces held as arrays (``Pieces``).  Every
piece carries a pair of nested Gauss values (order ``g`` and ``2g``),
measured by ``gauss_pair`` for every caller; their difference is the
piece's error estimate.  The work list refines the worst piece first: by
bisection until a fixed depth, then by doubling the rule order up to a cap.
Only the pieces it refines become Python objects (``Piece``); when the
first measurement already meets the tolerance, none do.  Each job's work
list is a generator of the batches it needs measured, so ``refine_many``
can run many jobs in lockstep, one evaluator call per rule order a round
(``refine_pieces`` runs one, for ``integrate_adaptive``); ``_measure``
raises as soon as a measured slice holds an estimate that is not finite.
Bisection grades dyadically into endpoint singularities, which keeps the
scheme generic (no singularity-specific rules); the final error estimate is
returned so callers can verify the achieved tolerance a posteriori.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heappop, heappush
from itertools import count

import numpy as np

from .errors import QuadratureNonConvergence

__all__ = ["gauss_rule", "gauss_pair", "integrate_adaptive", "Piece", "Pieces",
           "refine_pieces", "refine_many", "MAX_DEPTH", "MAX_ORDER"]

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


@lru_cache(maxsize=None)
def _pair_rule(g: int) -> tuple[np.ndarray, np.ndarray]:
    """The g-point and 2g-point rules side by side: 3g nodes and weights."""
    x, w = (np.concatenate(r) for r in zip(gauss_rule(g), gauss_rule(2 * g)))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _map_rule(lo, hi, x, w) -> tuple[np.ndarray, np.ndarray]:
    lo = np.asarray(lo, dtype=float)[..., None]
    half = 0.5 * (np.asarray(hi, dtype=float)[..., None] - lo)
    return lo + half * (x + 1.0), half * w


def gauss_points(lo, hi, g: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule mapped to [lo, hi]; nodes are strictly interior.

    With arrays of endpoints, row ``p`` of the ``(P, g)`` results holds the
    rule on ``[lo[p], hi[p]]``, bitwise equal to mapping it piece by piece.
    """
    return _map_rule(lo, hi, *gauss_rule(g))


class Piece:
    """One subinterval of an integration job, as the work list refines it.

    ``floor`` is the roundoff level of the piece's quadrature sum; once the
    estimate reaches it, further refinement cannot help and the piece is
    frozen.
    """

    __slots__ = ("lo", "hi", "depth", "order", "payload", "value", "est", "floor")

    def __init__(self, lo, hi, depth=0, order=8, payload=None, value=None,
                 est=None, floor=None):
        self.lo = lo
        self.hi = hi
        self.depth = depth
        self.order = order
        self.payload = payload
        self.value = value
        self.est = est
        self.floor = floor


class Pieces:
    """Pieces of an integration job as arrays, one entry per piece.

    ``payload`` is None or what the evaluator reads per piece (the span of a
    moment piece).  ``depth`` and ``order`` are one int for every piece, as
    in the initial pieces and in each batch a work list asks measured, or
    one per piece, as in the pieces ``refine_pieces`` returns with
    ``value``, ``est`` and ``floor`` filled in.  A batch that
    ``refine_many`` stacks from several jobs has one order and one depth per
    piece.  Iterating gives each entry as a ``Piece``.
    """

    __slots__ = Piece.__slots__

    def __init__(self, lo, hi, depth=0, order=8, payload=None, value=None,
                 est=None, floor=None):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.depth = depth
        self.order = order
        self.payload = None if payload is None else np.asarray(payload)
        self.value = value
        self.est = est
        self.floor = floor

    def __len__(self):
        return len(self.lo)

    def columns(self):
        """Each field as one entry per piece, or None."""
        n = len(self)
        for name in self.__slots__:
            a = getattr(self, name)
            yield None if a is None else np.broadcast_to(a, (n,) + np.shape(a)[1:])

    def __getitem__(self, index):
        """The pieces at a slice; a shared depth and order stay shared."""
        return Pieces(*(a if a is None or np.ndim(a) == 0 else a[index]
                        for a in (getattr(self, name) for name in self.__slots__)))

    def __iter__(self):
        columns = ([None] * len(self) if a is None else a.tolist() for a in self.columns())
        for fields in zip(*columns):
            yield Piece(*fields)


def _work_list(pieces: Pieces, tol):
    """The work list of one job, as a generator: it yields each ``Pieces``
    batch it needs measured, is sent back ``(values, est, floor)`` arrays
    for it, and returns ``(done, est)``.

    Its first batch is all the initial pieces; after that the two halves of
    a bisected piece go in one batch and an order-doubled piece alone.  The
    worst piece is taken by (-est, entry number), so ties go to the earliest
    entry: the initial pieces are entries ``0 .. n-1`` and are ranked once,
    in an index the loop walks down, beside a heap of the refined pieces.
    ``done`` holds the unpopped initial pieces, the live refined pieces by
    entry, then the frozen pieces; QuadratureNonConvergence is raised when
    the refinement budget is exhausted first.
    """
    n = len(pieces)
    init = Pieces(pieces.lo, pieces.hi, pieces.depth, pieces.order, pieces.payload,
                  *(yield pieces))
    live_est = sum(init.est.tolist())
    if not live_est > tol:  # nothing to refine: no piece becomes an object
        return init, live_est

    ranked = np.argsort(-init.est, kind="stable")  # by (-est, index)
    taken = 0
    refined: list[tuple[float, int, Piece]] = []
    entries = count(n)
    frozen: list[Piece] = []
    frozen_est = 0.0

    def push(p):
        heappush(refined, (-p.est, next(entries), p))

    refinements = 0
    while live_est + frozen_est > tol:
        if (taken == n and not refined) or frozen_est > tol \
                or refinements >= _MAX_REFINEMENTS:
            raise QuadratureNonConvergence(
                f"estimate {live_est + frozen_est:.3g} above tolerance "
                f"{tol:.3g} after {refinements} refinements"
            )
        if taken < n and (not refined or init.est[ranked[taken]] >= -refined[0][0]):
            i = ranked[taken]
            taken += 1
            p = Piece(init.lo[i].item(), init.hi[i].item(), init.depth, init.order,
                      None if init.payload is None else init.payload[i],
                      init.value[i], init.est[i].item(), init.floor[i].item())
        else:
            p = heappop(refined)[2]
        live_est -= p.est
        refinements += 1
        if p.est <= p.floor:
            frozen.append(p)
            frozen_est += p.est
        elif p.depth < MAX_DEPTH:
            mid = 0.5 * (p.lo + p.hi)
            if mid <= p.lo or mid >= p.hi:
                p.depth = MAX_DEPTH  # interval at floating-point resolution
                push(p)
                live_est += p.est
                continue
            payload = None if p.payload is None else [p.payload] * 2
            value, est, floor = yield Pieces([p.lo, mid], [mid, p.hi], p.depth + 1,
                                             p.order, payload)
            for lo, hi, v, e, fl in zip((p.lo, mid), (mid, p.hi), value,
                                         est.tolist(), floor.tolist()):
                live_est += e
                push(Piece(lo, hi, p.depth + 1, p.order, p.payload, v, e, fl))
        elif 2 * p.order <= MAX_ORDER:
            p.order *= 2
            payload = None if p.payload is None else [p.payload]
            value, est, floor = yield Pieces([p.lo], [p.hi], p.depth, p.order, payload)
            p.value, p.est, p.floor = value[0], est[0].item(), floor[0].item()
            live_est += p.est
            push(p)
        else:
            frozen.append(p)
            frozen_est += p.est

    keep = np.ones(n, dtype=bool)
    keep[ranked[:taken]] = False
    refined.sort(key=lambda e: e[1])
    rest = [p for _, _, p in refined] + frozen
    done = Pieces(*(
        None if a is None else np.concatenate([a[keep], [getattr(p, name) for p in rest]])
        for name, a in zip(Pieces.__slots__, init.columns())))
    return done, live_est + frozen_est


def _stack(batches):
    """The pieces of ``batches``, which share one rule order and each one
    depth, as one batch in which every piece keeps its own depth and payload."""
    return Pieces(np.concatenate([b.lo for b in batches]),
                  np.concatenate([b.hi for b in batches]),
                  np.repeat([b.depth for b in batches], [len(b) for b in batches]),
                  batches[0].order,
                  None if batches[0].payload is None
                  else np.concatenate([b.payload for b in batches]))


def _measure(batch, eval_pair):
    """``eval_pair`` over ``batch`` in consecutive slices of at most ``_BATCH``;
    QuadratureNonConvergence, naming the piece, at the first estimate that is
    inf or NaN (as a value of the integrand that is not finite makes it)."""
    measured = []
    for s in range(0, len(batch), _BATCH):
        part = batch if len(batch) <= _BATCH else batch[s: s + _BATCH]
        value, est, mag = eval_pair(part)
        bad = np.flatnonzero(~np.isfinite(est))
        if bad.size:
            i = bad[0]
            raise QuadratureNonConvergence(
                f"non-finite error estimate {est[i]} on [{part.lo[i]:.17g}, {part.hi[i]:.17g}]")
        measured.append((value, est, mag))
    return measured[0] if len(measured) == 1 else tuple(map(np.concatenate, zip(*measured)))


def refine_many(jobs, eval_pair):
    """Run the work lists of ``jobs``, a list of ``(pieces, tol)``, in
    lockstep until each job's summed error estimate is below its ``tol``.

    ``eval_pair(batch)`` measures a ``Pieces`` batch that shares one rule
    order, and returns ``(values, est, magnitude)`` arrays: each piece's
    value (a number or a vector), error estimate, and the size of its
    quadrature sum, which sets the roundoff floor.  Each round takes every
    live job's pending batch (see ``_work_list``), stacks the batches of one
    rule order into one, each piece keeping its own depth and payload, and
    measures it in slices of at most ``_BATCH``; a batch alone in its order
    is measured as it is.  A piece's measurement does not depend on the batch
    it is in, so every job takes the pieces it would take alone.  Returns
    one ``(done, est)`` per job, in job order.  Raises
    QuadratureNonConvergence when a job's refinement budget is exhausted,
    or from ``_measure`` on the first slice with an estimate that is inf or
    NaN: a stacked batch holds its jobs in job order, and the rule orders
    are measured in the order of their first job.
    """
    out = [None] * len(jobs)
    lists = [_work_list(pieces, tol) for pieces, tol in jobs]
    live = [(j, w, next(w)) for j, w in enumerate(lists)]
    while live:
        groups: dict[int, list] = {}
        for entry in live:
            groups.setdefault(entry[2].order, []).append(entry)
        measured = {}
        for members in groups.values():
            batches = [batch for _, _, batch in members]
            value, est, mag = _measure(
                batches[0] if len(batches) == 1 else _stack(batches), eval_pair)
            end = 0
            for j, _, batch in members:
                start, end = end, end + len(batch)
                measured[j] = value[start:end], est[start:end], 8e-16 * mag[start:end]
        nxt = []
        for j, w, _ in live:
            try:
                nxt.append((j, w, w.send(measured[j])))
            except StopIteration as stop:
                out[j] = stop.value
        live = nxt
    return out


def refine_pieces(pieces: Pieces, eval_pair, tol):
    """``integrate_adaptive``'s driver: one job's work list, run until its
    summed error estimate is below ``tol``, as
    ``refine_many([(pieces, tol)], eval_pair)[0]``, so its initial
    pieces go to ``eval_pair`` in consecutive batches of at most ``_BATCH``.
    Returns ``(done, est)``, ``done`` with ``value``, ``est`` and ``floor``
    filled in.
    """
    return refine_many([(pieces, tol)], eval_pair)[0]


def _weighted_sums(w, f, blocks):
    """``w @ f`` per piece as a one-column row without ``blocks``, else
    ``(w * f) @ blocks``: stacked products, bitwise the per-piece ones, which
    einsum is not.  The two forms differ in the last bit; each keeps its own."""
    left, right = (w, f[:, :, None]) if blocks is None else (w * f, blocks)
    return np.matmul(left[:, None, :], right)[:, 0]


def gauss_pair(fn, basis=None):
    """The one pair evaluator: ``eval_pair(batch)`` measures each piece with
    the Gauss rules of orders g and 2g, from one call of ``fn`` and of
    ``basis`` at the nodes of both.  A piece's value is ``int fn``, or,
    with ``basis(x, payloads)`` mapping ``(P, q)`` nodes to ``(P, q, m)``
    blocks, the m-vector ``int fn * blocks``, whose estimate and roundoff
    magnitude are the largest over its entries.
    """
    def eval_pair(batch):
        g = batch.order
        x, w = _map_rule(batch.lo, batch.hi, *_pair_rule(g))
        # a value of fn that is not finite makes the estimate so, which
        # _measure raises as a numerical failure: no warning on the way
        with np.errstate(invalid="ignore"):
            fx = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
            blocks = None if basis is None else basis(x, batch.payload)
            (w1, f1, b1), (w2, f2, b2) = (
                (w[r], fx[r], None if blocks is None else blocks[r])
                for r in (np.s_[:, :g], np.s_[:, g:]))
            low, high = _weighted_sums(w1, f1, b1), _weighted_sums(w2, f2, b2)
            # the order-2g sum of |fn| sets each piece's roundoff floor
            mag = _weighted_sums(w2, np.abs(f2), b2).max(axis=1)
            est = np.abs(high - low).max(axis=1)
        return (high[:, 0] if basis is None else high), est, mag

    return eval_pair


def integrate_adaptive(fn, lo: float, hi: float, markers=(), tol=1e-12):
    """Adaptive integral of a vectorized scalar function over [lo, hi].

    ``markers`` are points (jumps, kinks, integrable singularities) at which
    the initial pieces are cut.  Returns ``(value, error_estimate)``.
    """
    if hi <= lo:
        return 0.0, 0.0
    cuts = np.union1d([lo, hi], [m for m in markers if lo < m < hi])
    done, est = refine_pieces(Pieces(cuts[:-1], cuts[1:]), gauss_pair(fn), tol)
    return float(sum(done.value.tolist())), float(est)
