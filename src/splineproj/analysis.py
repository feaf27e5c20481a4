"""Empirical certification of the quantitative projection machinery.

Each operation here measures one inequality on concrete instances and
packages fitted constants, profiles and residuals into a report.  Nothing
in this module proves anything: a report says "on these inputs the bound
held with these constants", and the stability of those constants under
mesh refinement or dimension doubling is the evidence the experiments are
after.

Conventions shared by the fits:

* decay profiles are fitted on offsets ``d >= k`` only (small offsets
  dominate the leading constant but bias the slope);
* entries whose scaled magnitude falls below 1e-300 are treated as exact
  zeros, so underflow noise never enters a ratio;
* every "hat" constant is chosen so the corresponding bound holds
  entrywise on the instance by construction, making the fitted rate and
  its cross-size stability the only assertable content.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .bspline import eval_basis_many, span_gauss_blocks
from .errors import (DegenerateKernel, LengthMismatch, OutOfDomain,
                     QuadratureNonConvergence)
from .functions import TestFunction
from .gram import GramMatrix, _nonzero_width, inverse_rows
from .knots import KnotSequence
from .projection import kernel_from_basis, l1_norm, project_ladder
from .quadrature import gauss_points, integrate_adaptive

__all__ = [
    "DecayReport", "KernelBoundReport", "InverseBoundConstants",
    "DominationReport", "WeakTypeReport", "ConvergenceReport",
    "StabilityReport", "decay_report", "kernel_bound_report",
    "lemma_constants", "domination_report",
    "weak_type_report", "convergence_report", "modulus_of_smoothness",
    "stability_constant",
]

ZERO_FLOOR = 1e-300
#: Cell rows of the kernel sample table that ``kernel_bound_report`` holds
#: at once; it bounds the table's memory at 64 s^2 S doubles.
_KERNEL_ROWS = 64
#: Cells whose 16 Gauss nodes ``_prefix_abs_integral`` evaluates at once; a
#: multiple of 4 keeps a one-thread BLAS product bitwise that over all cells.
_PREFIX_CELLS = 4096
#: Spans whose spline values ``stability_constant`` holds at once.
_STABILITY_SPANS = 256
#: Steps whose difference table ``modulus_of_smoothness`` holds at once: at
#: 64 x (k + 1) x (grid + 1) doubles (1.45 MB at k = 10, grid = 256) the
#: table stays in a 2 MB L2 cache; in slices of 256 steps an 11-level
#: ladder's modulus took 1.4 to 2.2 times as long (k = 2, 4 and 10).
_MODULUS_ROWS = 64


# ---------------------------------------------------------------------------
# interval geometry helpers
# ---------------------------------------------------------------------------

def midpoints(a: float, b: float, m: int) -> np.ndarray:
    """Midpoints of the m equal cells of [a, b]."""
    return a + (b - a) * (np.arange(m) + 0.5) / m


def row_gaps(K: KnotSequence, j: int, e: int, width: int) -> np.ndarray:
    """Largest-gap values for the rows ``i = j .. j+e-1``: entry
    ``[i - j, c - j]`` is ``h_ic``, the largest interval length in the
    window ``h[i : c + k]``, for the columns ``c = j .. j+width-1`` (``e <=
    width <= n - j``); zero left of the diagonal."""
    h, k = K.h, K.k
    gaps = np.empty((e, width))
    # the first e columns: a running maximum along each row from
    # max h[i : i + k] on its diagonal
    block = np.where(np.tri(e, e, -1, dtype=bool), 0.0, h[j + k - 1: j + e + k - 1])
    block[np.diag_indices(e)] = sliding_window_view(h[j: j + e + k - 1], k).max(axis=1)
    np.maximum.accumulate(block, axis=1, out=gaps[:, :e])
    # further right, the maximum of h[i : j + e + k - 1], which ends each
    # row of the block, and of h[j + e + k - 1 : c + k], shared by the rows
    np.maximum(gaps[:, e - 1: e], np.maximum.accumulate(h[j + e + k - 1: j + width + k - 1]),
               out=gaps[:, e:])
    return gaps


# ---------------------------------------------------------------------------
# inverse decay
# ---------------------------------------------------------------------------

@dataclass
class DecayReport:
    """Fitted exponential off-diagonal decay of the inverse Gram matrix.

    ``profile_scaled[d]`` is ``max_{|i-j|=d} |a_ij| * h_ij`` and
    ``profile_b[d]`` the same for the inverse of the row-rescaled Gram
    matrix.  ``gamma`` is the least-squares rate of the first profile;
    the entrywise certificate ``big_k * gamma_cert**d`` uses a rate
    cushioned 5% of the way toward 1, because the envelope constant taken
    exactly at the asymptotic rate is a running maximum over ~n comparable
    terms and cannot be stable across sizes on irregular meshes.  ``k0``
    bounds the second profile with the same certificate rate.
    ``inverse_residual`` is the largest block residual of the row stream
    the profiles were read from, ``max |G0 A - I|`` over every entry.
    ``diagonal`` flags an
    inverse with no nonzero entry beyond offset ``k - 1``: diagonal for
    order 1, block-diagonal when every interior knot has multiplicity k.
    """

    order: int
    n: int
    offsets: np.ndarray
    profile_scaled: np.ndarray
    profile_b: np.ndarray
    gamma: float | None
    gamma_cert: float | None
    big_k: float | None
    gamma_b: float | None
    k0: float | None
    diagonal: bool
    fitted: bool
    residual_factor: float | None
    fit_offsets: tuple[int, int] | None
    inverse_residual: float


def _fit_rate(offsets, profile, k):
    """Least-squares slope of log profile over offsets >= k; None if there
    are fewer than three usable points."""
    mask = (offsets >= k) & (profile > ZERO_FLOOR)
    if mask.sum() < 3:
        return None, None
    d = offsets[mask]
    slope = np.polyfit(d, np.log(profile[mask]), 1)[0]
    return float(np.exp(slope)), (int(d.min()), int(d.max()))


def _envelope_constant(offsets, profile, gamma):
    mask = profile > ZERO_FLOOR
    if not mask.any():
        return 0.0
    logs = np.log(profile[mask]) - offsets[mask] * np.log(gamma)
    return float(np.exp(logs.max()))


def _offset_maxima(table, m, prof):
    """``prof[d] = fmax(prof[d], table[r, r + d])`` over the rows ``r`` of
    ``table``, for the offsets ``d < m``: read through a skewed view, with
    the columns past ``m - 1`` of each row zero.  ``fmax`` skips a NaN."""
    s0, s1 = table.strides
    skewed = as_strided(table, shape=(table.shape[0], m), strides=(s0 + s1, s1),
                        writeable=False)
    np.fmax(prof[:m], np.fmax.reduce(skewed, axis=0), out=prof[:m])


def decay_report(G0: GramMatrix, K: KnotSequence) -> DecayReport:
    """Per-offset decay profiles of the inverse Gram matrix and their fit.

    The inverse of ``G0`` is read as the row stream of ``inverse_rows`` and
    never held whole.  Each entry ``(i, c)`` of the upper triangle enters
    the profiles at offset ``c - i``, up to each block's last nonzero
    column: the entries right of it are zero and raise no maximum.  With
    fewer than ``3k`` basis functions no rate is fitted and the report
    carries the profiles only.
    When every entry beyond offset ``k - 1`` is exactly zero (order 1, or
    every interior knot of multiplicity k) there is no offset to fit on and
    the report is flagged diagonal.
    """
    n, k = K.n, K.k
    if G0.n != n:
        raise LengthMismatch(f"matrix dimension {G0.n} != spline dimension {n}")
    kap = K.kappa
    offsets = np.arange(n)
    # per-offset maxima of |a_ic| h_ic and of |a_ic| max(kappa_i, kappa_c):
    # b_ic = a_ic kappa_c / k and b_ci = a_ic kappa_i / k of the row-rescaled
    # matrix, which is not symmetric.  The zero floor and the division by k
    # come after the maxima: both are monotone, so this is bitwise the same
    prof_a = np.zeros(n)
    prof_b = np.zeros(n)
    inverse_residual = 0.0
    for j, rows, block_residual in inverse_rows(G0):
        inverse_residual = max(inverse_residual, block_residual)
        # row_gaps builds at least the block's own e columns
        e = rows.shape[0]
        m = max(_nonzero_width(rows[:, j:]), e)
        absa = np.abs(rows[:, j: j + m])
        # [r, c - j] holds the scaled entry (j + r, c); the last e columns
        # stay zero for the skewed view
        scaled = np.zeros((e, m + e))
        part = scaled[:, :m]
        np.multiply(row_gaps(K, j, e, m), absa, out=part)
        _offset_maxima(scaled, m, prof_a)
        np.maximum(kap[j: j + e, None], kap[j: j + m], out=part)
        part *= absa
        _offset_maxima(scaled, m, prof_b)
    prof_b /= k
    for prof in (prof_a, prof_b):
        prof[~(prof > ZERO_FLOOR)] = 0.0  # a NaN counts as zero too

    diagonal = bool(np.all(prof_a[k:] <= ZERO_FLOOR))
    gamma = gamma_cert = big_k = gamma_b = k0 = residual = None
    fit_range = None
    fitted = False
    if not diagonal and n >= 3 * k:
        gamma, fit_range = _fit_rate(offsets, prof_a, k)
        gamma_b, _ = _fit_rate(offsets, prof_b, k)
        if gamma is not None and gamma < 1.0:
            gamma_cert = gamma + 0.05 * (1.0 - gamma)
            big_k = _envelope_constant(offsets, prof_a, gamma_cert)
            k0 = _envelope_constant(offsets, prof_b, gamma_cert)
            mask = prof_a > 0
            residual = float(np.exp(np.max(
                np.log(prof_a[mask]) - np.log(big_k)
                - offsets[mask] * np.log(gamma_cert))))
            fitted = True
    return DecayReport(k, n, offsets, prof_a, prof_b, gamma, gamma_cert,
                       big_k, gamma_b, k0, diagonal, fitted, residual,
                       fit_range, float(inverse_residual))


# ---------------------------------------------------------------------------
# kernel bound
# ---------------------------------------------------------------------------

@dataclass
class KernelBoundReport:
    """Sampled bound ``|Kd(x, y)| <= C * theta**|i-j| / |I_ij|``.

    ``c_of_theta[t]`` is the smallest constant making the bound hold on the
    sample for ``theta_grid[t]``; since that curve is monotone decreasing,
    the reported ``theta_hat`` minimizes the effective domination constant
    ``C(theta) * (1 + theta) / (1 - theta)`` instead.
    """

    order: int
    n: int
    gamma: float
    theta_grid: np.ndarray
    c_of_theta: np.ndarray
    theta_hat: float
    c_hat: float
    samples_per_cell: int


def _cell_maxima(table, s):
    """Largest ``|table|`` over each s x s block of samples (a pair of cells),
    with the absolute values taken in place.  A reduction along a short last
    axis is slow, so the y samples of a cell are merged slice by slice."""
    pair = np.abs(table, out=table).reshape(table.shape[0] // s, s, -1).max(axis=1)
    pair = pair.reshape(pair.shape[0], -1, s)
    return np.maximum.reduce([pair[:, :, q] for q in range(s)])


def kernel_bound_report(G0: GramMatrix, K: KnotSequence,
                        samples_per_cell: int = 3) -> KernelBoundReport:
    """Stratified sampling of the kernel over all pairs of knot intervals."""
    if samples_per_cell < 2:
        raise ValueError("samples_per_cell must be >= 2")
    dec = decay_report(G0, K)
    gamma = dec.gamma if dec.fitted else 0.0
    grid = np.arange(0.05, 1.0, 0.05)
    grid = grid[grid > gamma]
    if grid.size == 0:
        grid = np.linspace(gamma + 0.5 * (1 - gamma), 0.99, 4)

    spans = K.spans
    t = K.t
    S = spans.size
    offs = (np.arange(samples_per_cell) + 0.5) / samples_per_cell
    pts = (t[spans][:, None] + np.outer(K.h[spans], offs)).ravel()
    # log C(theta) is the largest log(max |Kd| * hull) - |i - j| log(theta)
    # over pairs of cells (i, j); the sample table, its per-cell maxima and
    # the pairs' hulls and distances exist _KERNEL_ROWS cell rows at a time.
    # The basis at the samples is evaluated once; a slice of its rows is
    # bitwise the basis at that slice of the samples
    first, basis = eval_basis_many(K, pts)
    log_c = np.full(grid.size, -np.inf)
    for r in range(0, S, _KERNEL_ROWS):
        rows = slice(r * samples_per_cell, (r + _KERNEL_ROWS) * samples_per_cell)
        cell_max = _cell_maxima(kernel_from_basis(
            G0, (first[rows], basis[rows]), (first, basis)), samples_per_cell)
        mask = cell_max > ZERO_FLOOR
        if not mask.any():
            continue
        row = spans[r: r + _KERNEL_ROWS, None]
        hull = t[np.maximum(row, spans) + 1] - t[np.minimum(row, spans)]
        logs = np.log(cell_max[mask] * hull[mask])
        d = np.abs(row - spans)[mask]
        log_c = np.maximum(log_c, [(logs - d * np.log(th)).max() for th in grid])
    if np.isneginf(log_c).all():
        raise DegenerateKernel(f"no sampled kernel value above {ZERO_FLOOR}")
    c_of_theta = np.exp(log_c)
    effective = c_of_theta * (1 + grid) / (1 - grid)
    best = int(np.argmin(effective))
    return KernelBoundReport(K.k, K.n, float(gamma), grid, c_of_theta,
                             float(grid[best]), float(c_of_theta[best]),
                             samples_per_cell)


# ---------------------------------------------------------------------------
# structural constants of the inverse
# ---------------------------------------------------------------------------

@dataclass
class InverseBoundConstants:
    """The three structural constants of the inverse Gram matrix.

    ``k1`` scales entries by the larger support length against the decay
    rate; ``k2`` bounds a far entry by the window of 2k-2 entries around an
    intermediate index; ``k3`` bounds each entry by the k-1 entries
    preceding it in its row.  ``skipped`` lists (row, col) pairs whose k3
    denominator window was exactly zero.
    """

    order: int
    n: int
    gamma: float
    k1: float
    k2: float | None
    k3: float | None
    skipped: tuple = ()


def _lemma_rows(R, i, c0, kap, logg, k):
    """``(log k1, log k2, k3, skipped)`` over a block of consecutive rows of
    the inverse: ``i`` holds the row indices as a column, ``R`` the rows'
    absolute entries from column ``c0`` to column ``end - 1``, with those
    below ``ZERO_FLOOR`` set to zero; every entry left of ``c0`` or from
    ``end`` on is zero.  Each constant is reduced
    along axis 1 with the elementwise operations of a scan row by row over
    whole rows, in the same order, so it is bitwise that scan's.
    A constant with no entry is -inf (k1, k2) or 0 (k3)."""
    width = R.shape[1]
    end = c0 + width
    cols = np.arange(c0, end)
    with np.errstate(divide="ignore"):
        # k1: max |a_is| * max(kappa_i, kappa_s) / gamma^|i-s|
        k1 = (np.log(R * np.maximum(kap[i], kap[c0:end])) - np.abs(i - cols) * logg).max()
        # suffix[:, m - c0] = max_{m'>=m} log |a_im'| - m' log gamma
        suffix = np.maximum.accumulate(
            (np.log(R) - cols * logg)[:, ::-1], axis=1)[:, ::-1]

    # k2: max over i + k <= ell < j of |a_ij| / (gamma^(j-ell) * window
    # sum over mu in [ell-k+1, ell+k-2]); empty windows (k = 1) sum to 0.
    # Each window is summed term by term from the left: a difference of
    # prefix sums cancels once the window is below eps times the row's sum
    ell = np.arange(i[0, 0] + k, end - 1)  # from the first row's i + k
    s = np.zeros((i.size, ell.size))
    for t in range(i[0, 0] + 1 - c0, i[0, 0] + 2 * k - 1 - c0):
        # one term of every window: column c0 + t for ell[0], one column
        # further right for each later ell; windows past column end - 1 are short
        part = R[:, t: t + ell.size]
        s[:, : part.shape[1]] += part
    ok = (s > 0) & (ell >= i + k)
    k2 = ((suffix[:, ell + 1 - c0] + ell * logg)[ok] - np.log(s[ok])).max(initial=-np.inf)
    if k < 2:
        return k1, k2, 0.0, []

    # k3: max over mu > i of |a_i,mu| / max of the k-1 preceding row entries;
    # denom[:, mu - c0] = max R[:, mu-k+1 : mu], zero-padded on the left
    padded = np.zeros((i.size, width + k - 2))
    padded[:, k - 1:] = R[:, :-1]
    denom = padded[:, :width].copy()
    for q in range(1, k - 1):
        np.maximum(denom, padded[:, q: q + width], out=denom)
    later = cols > i
    zero = denom <= 0.0
    rows, mus = np.nonzero(later & zero & (R > 0.0))
    keep = later & ~zero
    k3 = (R[keep] / denom[keep]).max(initial=0.0)
    return k1, k2, k3, list(zip(i[rows, 0].tolist(), (mus + c0).tolist()))


def lemma_constants(G0: GramMatrix, K: KnotSequence, gamma: float) -> InverseBoundConstants:
    """The three constants from the row stream of ``inverse_rows``, reduced
    a block at a time by ``_lemma_rows`` from ``k - 1`` columns left of the
    block's first row to its last nonzero column: the stream holds zeros
    further left, where no constant reads past the mirrored band, and a zero
    further right raises no constant and skips no pair."""
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    n, k = K.n, K.k
    if n < 3 * k:
        raise ValueError(f"need n >= 3k = {3 * k}, got {n}")
    k1_best = k2_best = -np.inf
    k3_best = 0.0
    skipped = []
    for j, rows, _ in inverse_rows(G0):
        c0 = max(j - (k - 1), 0)
        R = np.abs(rows[:, c0: j + _nonzero_width(rows[:, j:])])
        R[~(R > ZERO_FLOOR)] = 0.0  # NaN counts as zero too
        k1, k2, k3, pairs = _lemma_rows(R, np.arange(j, j + R.shape[0])[:, None], c0,
                                        K.kappa, np.log(gamma), k)
        k1_best, k2_best, k3_best = max(k1_best, k1), max(k2_best, k2), max(k3_best, k3)
        skipped += pairs
    k1 = float(np.exp(k1_best))
    k2 = float(np.exp(k2_best)) if np.isfinite(k2_best) else None
    k3 = float(k3_best) if k >= 2 else None
    # the blocks come bottom-up; the pairs of a row scan come row-major
    return InverseBoundConstants(k, n, gamma, k1, k2, k3, tuple(sorted(skipped)))


# ---------------------------------------------------------------------------
# maximal function
# ---------------------------------------------------------------------------

def _prefix_abs_integral(f: TestFunction, grid: np.ndarray):
    """Cumulative integral of |f| at the grid points.

    Plain cells get a fixed 16-point Gauss rule, ``_PREFIX_CELLS`` cells at
    a time; a cell containing a marker is redone once, adaptively, cut at
    every marker of f.  A cell holding an integrable singularity gets a
    relaxed tolerance (1e-9 absolute, which the dyadically graded pieces can
    actually reach), any other 1e-12; the maximal-function values built on
    top are O(1) or larger, so this is far below their grid resolution
    error.  A cell integral that is not finite raises
    QuadratureNonConvergence.
    """
    lo, hi = grid[:-1], grid[1:]
    x, w = gauss_points(0.0, 1.0, 16)
    cell = np.empty(lo.size)
    for s in range(0, lo.size, _PREFIX_CELLS):
        part = slice(s, s + _PREFIX_CELLS)
        pts = lo[part, None] + (hi - lo)[part, None] * x[None, :]
        cell[part] = np.abs(f(pts.ravel())).reshape(pts.shape) @ w
    cell *= hi - lo
    markers = np.array(f.markers, dtype=float)
    touched = ((lo[:, None] <= markers) & (markers <= hi[:, None])).any(axis=1)
    for c in np.flatnonzero(touched):
        tol = 1e-9 if any(lo[c] <= p <= hi[c] for p, _ in f.singularities) else 1e-12
        cell[c], _ = integrate_adaptive(lambda u: np.abs(f(u)), lo[c], hi[c],
                                        markers=f.markers, tol=tol)
    bad = np.flatnonzero(~np.isfinite(cell))
    if bad.size:
        c = bad[0]
        raise QuadratureNonConvergence(
            f"non-finite integral {cell[c]} of |f| on [{lo[c]:.17g}, {hi[c]:.17g}]")
    return np.concatenate([[0.0], np.cumsum(cell)])


def _left_averages(x: list, y: list) -> list:
    """Largest ``(y[p] - y[q]) / (x[p] - x[q])`` over ``q < p``, for each p
    (0 at p = 0), with x increasing and y nondecreasing.

    One sweep of Andrew's monotone chain, the lower hull of the points
    before p: a vertex whose predecessor gives p at least as large a
    quotient lies on or above the line from that predecessor to p, so it
    leaves the chain for good, and after those pops the top vertex gives
    the largest quotient.  The pop test compares the quotients themselves,
    so near-collinear runs cost a few ulps at most; a cross-product
    orientation test can lose hundreds on an interval far from the origin.
    """
    out = [0.0]
    # the chain is hx[:top + 1], hy[:top + 1]; a push overwrites the entry
    # above it, so a pop is only ``top -= 1``
    hx, hy = [x[0]] * len(x), [y[0]] * len(y)
    top = 0
    points = zip(x, y)
    next(points)
    for xp, yp in points:
        best = (yp - hy[top]) / (xp - hx[top])
        while top:
            below = (yp - hy[top - 1]) / (xp - hx[top - 1])
            if below < best:
                break
            top -= 1
            best = below
        out.append(best)
        top += 1
        hx[top] = xp
        hy[top] = yp
    return out


def _maximal_on_points(f: TestFunction, xs: np.ndarray, interval, grid_size: int):
    """Hardy-Littlewood maximal function of ``f`` at the points ``xs``, from below.

    Candidate intervals have endpoints on a uniform grid of ``grid_size``
    cells with the points ``xs`` inserted as extra grid points.  At a grid
    point this is the largest average over grid intervals with that
    endpoint: an interval straddling the point splits there into two whose
    better average dominates it.  ``_left_averages`` over the prefix graph
    gives the left averages, and over the graph reflected through the
    origin, read backwards, the right ones (negation is exact, so each
    quotient is the direct one).  The cost after the prefix integral is
    linear in the grid size.
    """
    if grid_size < 16:
        raise ValueError(f"grid_size must be >= 16, got {grid_size}")
    a, b = float(interval[0]), float(interval[1])
    xs = np.asarray(xs, dtype=float)
    outside = ~((a <= xs) & (xs <= b))
    if outside.any():
        raise OutOfDomain(f"x = {float(xs[outside][0])!r} outside [{a!r}, {b!r}]")
    grid = np.union1d(np.linspace(a, b, grid_size + 1), xs)
    prefix = _prefix_abs_integral(f, grid)
    left = _left_averages(grid.tolist(), prefix.tolist())
    right = _left_averages((-grid[::-1]).tolist(), (-prefix[::-1]).tolist())
    return np.maximum(left, right[::-1])[np.searchsorted(grid, xs)]


# ---------------------------------------------------------------------------
# domination, weak type
# ---------------------------------------------------------------------------

@dataclass
class DominationReport:
    """Largest observed ratio |P f| / M(f, .) per partition and overall."""

    function: str
    order: int
    levels: list
    c_hat: float
    eval_grid: int


def domination_report(partitions, f: TestFunction, eval_grid: int = 512,
                      maximal_grid: int = 4096) -> DominationReport:
    """Ratio of the projection to the maximal function on a midpoint grid.

    Points where the maximal function vanishes are excluded; that only
    happens when f is zero almost everywhere around them.
    """
    pfs = project_ladder(partitions, f)
    first = partitions[0]
    a, b = first.a, first.b
    xs = midpoints(a, b, eval_grid)
    mvals = _maximal_on_points(f, xs, (a, b), maximal_grid)
    ok = mvals > 0
    if not ok.any():
        raise ValueError(f"f = {f.name} is zero on [{a}, {b}]: "
                         "M f = 0 at every evaluation point")
    levels = []
    c_hat = 0.0
    for K, pf in zip(partitions, pfs):
        ratios = np.abs(pf(xs[ok])) / mvals[ok]
        level_c = float(ratios.max())
        c_hat = max(c_hat, level_c)
        levels.append({"n": K.n, "mesh": K.mesh, "c_hat": level_c})
    return DominationReport(f.name, first.k, levels, c_hat, eval_grid)


@dataclass
class WeakTypeReport:
    """Empirical weak (1,1) constants for P* and the maximal function.

    ``p_star_constant`` is ``sup_t t * measure{P* > t} / ||f||_1`` with P*
    the pointwise maximum of |P f| over the supplied partition family; the
    true supremum over all partitions is not computable, so the constant is
    labeled empirical over that family.
    """

    function: str
    order: int
    n_partitions: int
    thresholds: np.ndarray
    p_star_ratios: np.ndarray
    maximal_ratios: np.ndarray
    p_star_constant: float
    maximal_constant: float
    f_l1: float
    eval_grid: int


def weak_type_report(partitions, f: TestFunction, thresholds=None,
                     eval_grid: int = 4096,
                     maximal_grid: int = 4096) -> WeakTypeReport:
    """Level-set measures by midpoint cell counting on the evaluation grid."""
    pfs = project_ladder(partitions, f)
    first = partitions[0]
    a, b = first.a, first.b
    f_l1 = l1_norm(f, a, b)
    if f_l1 == 0:
        raise ValueError(f"f = {f.name} is zero on [{a}, {b}]: ||f||_1 = 0")
    width = (b - a) / eval_grid
    xs = midpoints(a, b, eval_grid)
    pstar = np.zeros(eval_grid)
    for pf in pfs:
        pstar = np.maximum(pstar, np.abs(pf(xs)))
    mvals = _maximal_on_points(f, xs, (a, b), maximal_grid)
    if thresholds is None:
        base = max(np.median(pstar), 1e-8)
        thresholds = base * np.logspace(-2, 3, 64)
    thresholds = np.asarray(thresholds, dtype=float)
    if np.any(thresholds <= 0):
        raise ValueError("thresholds must be positive")
    p_ratios = np.array([
        t * np.count_nonzero(pstar > t) * width / f_l1 for t in thresholds
    ])
    m_ratios = np.array([
        t * np.count_nonzero(mvals > t) * width / f_l1 for t in thresholds
    ])
    return WeakTypeReport(f.name, first.k, len(partitions), thresholds,
                          p_ratios, m_ratios, float(p_ratios.max()),
                          float(m_ratios.max()), f_l1, eval_grid)


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceReport:
    """Per-level projection errors on a mesh-refinement ladder.

    ``observed_order`` is the log-log slope of the sup-grid error against
    the mesh diameter over the last three levels; probe errors track
    pointwise convergence at declared Lebesgue points.
    """

    function: str
    order: int
    probes: list
    levels: list
    observed_order: float | None
    sup_grid: int


def convergence_report(ladder, f: TestFunction, probes,
                       sup_grid: int = 1024) -> ConvergenceReport:
    meshes = [K.mesh for K in ladder]
    if any(m2 >= m1 for m1, m2 in zip(meshes, meshes[1:])):
        raise ValueError("ladder must have strictly decreasing mesh diameter")
    pfs = project_ladder(ladder, f)
    first = ladder[0]
    a, b = first.a, first.b
    xs = midpoints(a, b, sup_grid)
    probes = [float(p) for p in probes]
    # the grid, then the probes: one evaluation per level
    pts = np.concatenate([xs, probes])
    fx = f(pts)
    omegas = modulus_of_smoothness(f, first.k, meshes, (a, b))
    levels = []
    for K, pf, omega in zip(ladder, pfs, omegas):
        err = np.abs(fx - pf(pts))
        sup_err = float(err[:sup_grid].max())
        probe_err = err[sup_grid:]
        levels.append({
            "n": K.n,
            "mesh": K.mesh,
            "sup_error": sup_err,
            "probe_errors": [float(e) for e in probe_err],
            "omega_k": omega,
        })
    order = None
    if len(levels) >= 3:
        tail = levels[-3:]
        lx = np.log([lv["mesh"] for lv in tail])
        ly = np.log([max(lv["sup_error"], 1e-300) for lv in tail])
        order = float(np.polyfit(lx, ly, 1)[0])
    return ConvergenceReport(f.name, first.k, probes, levels, order, sup_grid)


def modulus_of_smoothness(f: TestFunction, k: int, deltas,
                          interval=(0.0, 1.0), grid: int = 256) -> list[float]:
    """Sup of k-th forward differences with step up to each mesh diameter.

    For each ``delta`` in ``deltas`` the steps are ``delta * j / grid``,
    ``j = 1..grid``, each on ``grid + 1`` points; a step that does not fit
    ``k`` times into ``interval`` is skipped, and a diameter with no step
    left gives 0.0.  A step shared by several diameters (on a dyadic
    ladder, every other step of a level is a step of the level before) is
    evaluated once: one row of ``|Delta_h^k f|`` per distinct step, in
    slices of at most ``min(grid, 64)`` rows, so ``f`` sees at most
    ``grid * (k + 1) * (grid + 1)`` points per call.  Each result is the
    bitwise maximum that the steps of its own diameter give.
    """
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1 or deltas.size == 0:
        raise ValueError("deltas must be a non-empty sequence of mesh diameters")
    bad = ~(np.isfinite(deltas) & (deltas > 0))
    if bad.any():
        raise ValueError(f"deltas must be finite and positive, got {deltas[bad][0]}")
    a, b = float(interval[0]), float(interval[1])
    signs = np.array([(-1.0) ** r * comb(k, r) for r in range(k + 1)])
    steps = deltas[:, None] * (np.arange(1, grid + 1) / grid)
    fits = a + k * steps <= b
    hs, row = np.unique(steps[fits], return_inverse=True)
    best = np.empty(hs.size)
    rows = min(grid, _MODULUS_ROWS)
    for s in range(0, hs.size, rows):
        best[s:s + rows] = _largest_differences(f, signs, hs[s:s + rows], a, b, grid)
    # a skipped step counts as 0, like a row of NaNs
    per_step = np.zeros(steps.shape)
    per_step[fits] = best[row]
    return per_step.max(axis=1).tolist()


def _largest_differences(f, signs, hs, a, b, grid):
    """Largest ``|Delta_h^k f|`` on ``grid + 1`` points per step in ``hs``;
    NaNs count as 0.  Its tables are freed before the next slice's."""
    k = signs.size - 1
    # table[h, r, x] = f(x + r h)
    xs = np.linspace(a, b - k * hs, grid + 1, axis=-1)
    table = f(xs[:, None, :] + hs[:, None, None] * np.arange(k + 1)[:, None])
    diffs = np.abs(signs @ table)
    diffs[np.isnan(diffs)] = 0.0  # an unbounded f honestly gives inf
    return diffs.max(axis=-1)


# ---------------------------------------------------------------------------
# basis stability constant
# ---------------------------------------------------------------------------

@dataclass
class StabilityReport:
    """Largest ratio of a coefficient to the local scaled L2 norm.

    The ratio ``|c_m| * |E_m|^{1/2} / ||s||_{L2(E_m)}`` over random
    coefficient vectors; mesh-independent boundedness of this quantity is
    the basis condition-number statement.
    """

    order: int
    n: int
    trials: int
    seed: int
    d_hat: float


def _window_sums(mass: np.ndarray, k: int) -> np.ndarray:
    """Sums of every ``k`` consecutive columns of ``mass``, by slice adds left
    to right: bitwise ``sliding_window_view(mass, k, axis=1).sum(axis=2)``
    for k <= 7; from k = 8 on, numpy's unrolled sum differs at roundoff."""
    n = mass.shape[1] - k + 1
    local = mass[:, :n].copy()
    for d in range(1, k):
        local += mass[:, d: d + n]
    return local


def stability_constant(K: KnotSequence, trials: int = 64,
                       seed: int = 0) -> StabilityReport:
    """Largest ratio over ``trials`` random coefficient vectors.  The spline
    values and span norms are evaluated ``_STABILITY_SPANS`` spans at a
    time, bitwise as one evaluation over all spans gives them."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n, k = K.n, K.k
    spans = K.spans
    _, w, blocks = span_gauss_blocks(K)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((trials, n))
    idx = (spans - (k - 1))[:, None] + np.arange(k)[None, :]
    # ||s||^2 on E_m sums the spans with index in [m, m+k-1]
    mass = np.zeros((trials, n + k - 1))
    for s in range(0, spans.size, _STABILITY_SPANS):
        part = slice(s, s + _STABILITY_SPANS)
        svals = np.einsum("tsj,sgj->tsg", coeffs[:, idx[part]], blocks[part])
        svals *= svals
        mass[:, spans[part]] = np.einsum("tsg,sg->ts", svals, w[part])
    local = _window_sums(mass, k)
    # ratios = |c| sqrt(kappa / max(local, 1e-300)), in place
    np.maximum(local, 1e-300, out=local)
    np.divide(K.kappa, local, out=local)
    np.sqrt(local, out=local)
    local *= np.abs(coeffs, out=coeffs)
    return StabilityReport(k, n, trials, seed, float(local.max()))
