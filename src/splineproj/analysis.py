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
from numpy.lib.stride_tricks import sliding_window_view

from .bspline import span_gauss_blocks
from .errors import OutOfDomain
from .functions import TestFunction
from .gram import InverseGram
from .knots import KnotSequence
from .projection import default_moment_tol, project
from .quadrature import gauss_points, integrate_adaptive

__all__ = [
    "DecayReport", "KernelBoundReport", "InverseBoundConstants",
    "DominationReport", "WeakTypeReport", "ConvergenceReport",
    "StabilityReport", "decay_report", "kernel_bound_report",
    "lemma_constants", "maximal_function", "domination_report",
    "weak_type_report", "convergence_report", "modulus_of_smoothness",
    "stability_constant",
]

ZERO_FLOOR = 1e-300


# ---------------------------------------------------------------------------
# interval geometry helpers
# ---------------------------------------------------------------------------

def joint_gap_profile(K: KnotSequence):
    """For each offset d, the vector of largest-gap values ``h_ij``
    over pairs with ``|i - j| = d`` (window ``[i, i+d+k-1]`` of interval
    lengths).  Offset d + 1 widens every window of offset d by one interval
    on the right."""
    h, k = K.h, K.k
    gaps = sliding_window_view(h, k).max(axis=1)
    out = [gaps]
    for d in range(1, K.n):
        gaps = np.maximum(gaps[:-1], h[d + k - 1:])
        out.append(gaps)
    return out


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


def decay_report(A: InverseGram, K: KnotSequence) -> DecayReport:
    """Per-offset decay profiles of the inverse Gram matrix and their fit.

    With fewer than ``3k`` basis functions no rate is fitted and the report
    carries the profiles only.  For order 1 every off-diagonal entry is
    exactly zero and the report is flagged diagonal.
    """
    n, k = K.n, K.k
    absA = np.abs(A.entries)
    gaps = joint_gap_profile(K)
    kap = K.kappa
    offsets = np.arange(n)
    prof_a = np.empty(n)
    prof_b = np.empty(n)
    for d in range(n):
        diag = np.diagonal(absA, offset=d)
        scaled = diag * gaps[d]
        scaled = np.where(scaled > ZERO_FLOOR, scaled, 0.0)
        prof_a[d] = scaled.max() if scaled.size else 0.0
        # b_ij = a_ij * kappa_j / k and b_ji; the matrix is not symmetric
        bu = diag * kap[d:] / k
        bl = diag * kap[: n - d] / k
        both = np.concatenate([bu, bl])
        both = np.where(both > ZERO_FLOOR, both, 0.0)
        prof_b[d] = both.max() if both.size else 0.0

    diagonal = bool(np.all(prof_a[1:] <= ZERO_FLOOR)) if n > 1 else True
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
                       fit_range)


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


def kernel_bound_report(A: InverseGram, K: KnotSequence,
                        samples_per_cell: int = 3) -> KernelBoundReport:
    """Stratified sampling of the kernel over all pairs of knot intervals."""
    from .projection import kernel_values

    if samples_per_cell < 2:
        raise ValueError("samples_per_cell must be >= 2")
    spans = K.spans
    t = K.t
    S = spans.size
    offs = (np.arange(samples_per_cell) + 0.5) / samples_per_cell
    pts = t[spans][:, None] + np.outer(K.h[spans], offs)
    flat = pts.ravel()
    m = flat.size
    # max |Kd| per (cell, cell) block of the pairwise sample table
    cell_max = np.empty((S, S))
    for p in range(S):
        xs = np.repeat(pts[p], m)
        ys = np.tile(flat, samples_per_cell)
        vals = np.abs(kernel_values(A, K, xs, ys)).reshape(samples_per_cell, S,
                                                           samples_per_cell)
        cell_max[p] = vals.max(axis=(0, 2))

    dist = np.abs(spans[:, None] - spans[None, :])
    lo = np.minimum(spans[:, None], spans[None, :])
    hi = np.maximum(spans[:, None], spans[None, :])
    hull = t[hi + 1] - t[lo]

    dec = decay_report(A, K)
    gamma = dec.gamma if dec.fitted else 0.0
    grid = np.arange(0.05, 1.0, 0.05)
    grid = grid[grid > gamma]
    if grid.size == 0:
        grid = np.linspace(gamma + 0.5 * (1 - gamma), 0.99, 4)

    mask = cell_max > ZERO_FLOOR
    logs = np.log(cell_max[mask] * hull[mask])
    d = dist[mask]
    c_of_theta = np.array([
        float(np.exp((logs - d * np.log(th)).max())) for th in grid
    ])
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


def chained_decay_check(A: InverseGram, K: KnotSequence, gamma: float) -> float:
    """Entrywise check of the decay bound assembled from the three
    structural constants, cross-validating ``decay_report``.

    For each pair, if a largest interval of the joint support lies inside
    either support, the support-scaled constant alone bounds the entry;
    otherwise the entry is bounded through the intermediate window:
    ``|a_ij| <= 2(k-1) k2 max(k3, 1)^(k-2) k1 gamma^(1-k) gamma^|i-j| / h_ij``.
    Returns the largest ratio of an entry to its bound; at most 1 (up to
    roundoff) when the constants were measured on the same instance.
    """
    con = lemma_constants(A, K, gamma)
    n, k = K.n, K.k
    absA = np.abs(A.entries)
    chain = (2 * (k - 1) * (con.k2 or 0.0) * max(con.k3 or 1.0, 1.0) ** (k - 2)
             * con.k1 * gamma ** (1 - k))
    powers = np.array([gamma ** d for d in range(n)])
    worst = 0.0
    for i in range(n):
        d = np.arange(n - i)
        acc = np.maximum.accumulate(K.h[i:])
        hij = acc[d + k - 1]
        # the first largest interval of h[i : j+k] lies in the support of i
        # (it is among the first k) or of j (none of the first d reach it)
        in_support = (d < k) | (acc[k - 1] == hij) | (acc[d - 1] < hij)
        bound = np.where(in_support, con.k1, chain) * powers[d] / hij
        ok = (bound > 0) & np.isfinite(bound)
        worst = max(worst, (absA[i, i:][ok] / bound[ok]).max(initial=0.0))
    return float(worst)


def lemma_constants(A: InverseGram, K: KnotSequence, gamma: float) -> InverseBoundConstants:
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    n, k = K.n, K.k
    if n < 3 * k:
        raise ValueError(f"need n >= 3k = {3 * k}, got {n}")
    absA = np.abs(A.entries)
    absA = np.where(absA > ZERO_FLOOR, absA, 0.0)
    kap = K.kappa
    logg = np.log(gamma)
    cols = np.arange(n)
    k1_best = k2_best = -np.inf
    k3_best = 0.0
    skipped = []
    for i in range(n):
        row = absA[i]
        with np.errstate(divide="ignore"):
            lg = np.log(row * np.maximum(kap[i], kap)) - np.abs(i - cols) * logg
            lr = np.log(row) - cols * logg
        # k1: max |a_is| * max(kappa_i, kappa_s) / gamma^|i-s|
        k1_best = max(k1_best, lg.max())

        # k2: max over i + k <= ell < j of |a_ij| / (gamma^(j-ell) * window
        # sum over mu in [ell-k+1, ell+k-2]); empty windows (k = 1) sum to 0
        suffix = np.maximum.accumulate(lr[::-1])[::-1]  # suffix[j] = max_{m>=j} lr[m]
        csum = np.concatenate([[0.0], np.cumsum(row)])
        ell = np.arange(i + k, n - 1)
        s = csum[np.minimum(n, ell + k - 1)] - csum[ell - (k - 1)]
        ell, s = ell[s > 0], s[s > 0]
        val = suffix[ell + 1] + ell * logg - np.log(s)
        k2_best = max(k2_best, val.max(initial=-np.inf))

        # k3: max over mu > i of |a_i,mu| / max of the k-1 preceding row entries
        if k >= 2:
            padded = np.concatenate([np.zeros(k - 1), row[:-1]])
            denom = sliding_window_view(padded, k - 1).max(axis=1)[i + 1:]
            num = row[i + 1:]
            zero = denom <= 0.0
            mus = i + 1 + np.flatnonzero(zero & (num > 0.0))
            skipped += zip([i] * mus.size, mus.tolist())
            k3_best = max(k3_best, (num[~zero] / denom[~zero]).max(initial=0.0))
    k1 = float(np.exp(k1_best))
    k2 = float(np.exp(k2_best)) if np.isfinite(k2_best) else None
    k3 = float(k3_best) if k >= 2 else None
    return InverseBoundConstants(k, n, gamma, k1, k2, k3, tuple(skipped))


# ---------------------------------------------------------------------------
# maximal function
# ---------------------------------------------------------------------------

def _prefix_abs_integral(f: TestFunction, grid: np.ndarray):
    """Cumulative integral of |f| at the grid points.

    Plain cells get a fixed 16-point Gauss rule evaluated in one sweep;
    cells containing a marker are redone adaptively.  Cells holding an
    integrable singularity get a relaxed tolerance (1e-9 absolute, which
    the dyadically graded pieces can actually reach); the maximal-function
    values built on top are O(1) or larger, so this is far below their
    grid resolution error.
    """
    lo, hi = grid[:-1], grid[1:]
    x, w = gauss_points(0.0, 1.0, 16)
    pts = lo[:, None] + (hi - lo)[:, None] * x[None, :]
    vals = np.abs(f(pts.ravel())).reshape(pts.shape)
    cell = (hi - lo) * (vals @ w)
    singular_points = {p for p, _ in f.singularities}
    for mkr in f.markers:
        tol = 1e-9 if mkr in singular_points else 1e-12
        touched = np.nonzero((lo <= mkr) & (mkr <= hi))[0]
        for c in touched:
            v, _ = integrate_adaptive(lambda u: np.abs(f(u)), lo[c], hi[c],
                                      markers=(mkr,), tol=tol)
            cell[c] = v
    return np.concatenate([[0.0], np.cumsum(cell)])


def _anchored_max(prefix: np.ndarray, grid: np.ndarray, idx: int) -> float:
    """Largest average of |f| over grid intervals with endpoint grid[idx].

    For a point on the grid this equals the grid-restricted maximal
    function: any straddling interval splits at the point into two anchored
    intervals whose better average dominates it.
    """
    best = 0.0
    if idx > 0:
        left = (prefix[idx] - prefix[:idx]) / (grid[idx] - grid[:idx])
        best = max(best, float(left.max()))
    if idx < grid.size - 1:
        right = (prefix[idx + 1:] - prefix[idx]) / (grid[idx + 1:] - grid[idx])
        best = max(best, float(right.max()))
    return best


def maximal_function(f: TestFunction, x: float, grid_size: int = 1024,
                     interval=(0.0, 1.0)) -> float:
    """Hardy-Littlewood maximal function of ``f`` at ``x``, from below.

    Candidate intervals have endpoints on a uniform grid of ``grid_size``
    cells with ``x`` inserted as an extra grid point, so the value is
    monotone nondecreasing under dyadic grid refinement.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a <= x <= b:
        raise OutOfDomain(f"x = {x!r} outside [{a!r}, {b!r}]")
    if grid_size < 16:
        raise ValueError(f"grid_size must be >= 16, got {grid_size}")
    return _maximal_on_points(f, np.array([x]), (a, b), grid_size)[0]


def _maximal_on_points(f: TestFunction, xs: np.ndarray, interval, grid_size: int):
    a, b = float(interval[0]), float(interval[1])
    grid = np.union1d(np.linspace(a, b, grid_size + 1), xs)
    prefix = _prefix_abs_integral(f, grid)
    idxs = np.searchsorted(grid, xs)
    return np.array([_anchored_max(prefix, grid, int(i)) for i in idxs])


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
    first = partitions[0]
    a, b = first.a, first.b
    xs = a + (b - a) * (np.arange(eval_grid) + 0.5) / eval_grid
    mvals = _maximal_on_points(f, xs, (a, b), maximal_grid)
    ok = mvals > 0
    levels = []
    c_hat = 0.0
    for K in partitions:
        pf = project(K, f)
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
    first = partitions[0]
    a, b = first.a, first.b
    width = (b - a) / eval_grid
    xs = a + (b - a) * (np.arange(eval_grid) + 0.5) / eval_grid
    pstar = np.zeros(eval_grid)
    for K in partitions:
        pstar = np.maximum(pstar, np.abs(project(K, f)(xs)))
    mvals = _maximal_on_points(f, xs, (a, b), maximal_grid)
    f_l1, _ = integrate_adaptive(lambda u: np.abs(f(u)), a, b,
                                 markers=f.markers,
                                 tol=default_moment_tol(f))
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
                       sup_grid: int = 1024,
                       omega_grid: int = 256) -> ConvergenceReport:
    meshes = [K.mesh for K in ladder]
    if any(m2 >= m1 for m1, m2 in zip(meshes, meshes[1:])):
        raise ValueError("ladder must have strictly decreasing mesh diameter")
    first = ladder[0]
    a, b = first.a, first.b
    xs = a + (b - a) * (np.arange(sup_grid) + 0.5) / sup_grid
    fx = f(xs)
    probes = [float(p) for p in probes]
    fprobes = f(np.asarray(probes))
    levels = []
    for K in ladder:
        pf = project(K, f)
        sup_err = float(np.abs(fx - pf(xs)).max())
        probe_err = np.abs(fprobes - pf(np.asarray(probes)))
        levels.append({
            "n": K.n,
            "mesh": K.mesh,
            "sup_error": sup_err,
            "probe_errors": [float(e) for e in probe_err],
            "omega_k": modulus_of_smoothness(f, K.k, K.mesh, (a, b), omega_grid),
        })
    order = None
    if len(levels) >= 3:
        tail = levels[-3:]
        lx = np.log([lv["mesh"] for lv in tail])
        ly = np.log([max(lv["sup_error"], 1e-300) for lv in tail])
        order = float(np.polyfit(lx, ly, 1)[0])
    return ConvergenceReport(f.name, first.k, probes, levels, order, sup_grid)


def modulus_of_smoothness(f: TestFunction, k: int, delta: float,
                          interval=(0.0, 1.0), grid: int = 256) -> float:
    """Sup of k-th forward differences with step up to ``delta`` on a grid."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    a, b = float(interval[0]), float(interval[1])
    signs = np.array([(-1.0) ** r * comb(k, r) for r in range(k + 1)])
    best = 0.0
    for h in delta * (np.arange(1, grid + 1) / grid):
        if a + k * h > b:
            continue
        xs = np.linspace(a, b - k * h, grid + 1)
        table = f(xs[None, :] + h * np.arange(k + 1)[:, None])
        diffs = np.abs(signs @ table)
        diffs = diffs[~np.isnan(diffs)]  # an unbounded f honestly gives inf
        if diffs.size:
            best = max(best, float(diffs.max()))
    return best


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


def stability_constant(K: KnotSequence, trials: int = 64,
                       seed: int = 0) -> StabilityReport:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n, k = K.n, K.k
    spans = K.spans
    _, w, blocks = span_gauss_blocks(K)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((trials, n))
    firsts = spans - (k - 1)
    idx = firsts[:, None] + np.arange(k)[None, :]
    svals = np.einsum("tsj,sgj->tsg", coeffs[:, idx], blocks)
    span_l2 = np.einsum("tsg,sg->ts", svals ** 2, w)
    # ||s||^2 on E_m sums the spans with index in [m, m+k-1]
    mass = np.zeros((trials, n + k - 1))
    mass[:, spans] = span_l2
    local = sliding_window_view(mass, k, axis=1).sum(axis=2)
    ratios = np.abs(coeffs) * np.sqrt(K.kappa / np.maximum(local, 1e-300))
    return StabilityReport(k, n, trials, seed, float(ratios.max()))
