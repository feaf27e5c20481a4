"""Property tests on generated knot sequences for the shared vectorized paths."""

import contextlib
import dataclasses
import os
import pickle
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import contextmanager
from math import comb
from unittest.mock import patch

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from splineproj import (
    GramMatrix,
    NotPositiveDefinite,
    PartitionSpec,
    QuadratureNonConvergence,
    RefinementFailure,
    TestFunction,
    assemble_gram,
    dyadic_ladder,
    generate_partition,
    invert_gram,
    kernel_bound_report,
    kernel_constant_integral,
    kernel_values,
    lemma_constants,
    make_knot_sequence,
    modulus_of_smoothness,
    moments,
    parse_function,
    project,
    solve_banded,
    stability_constant,
)
from splineproj import analysis, cli, csvtext, gram, projection, quadrature
from splineproj.analysis import ZERO_FLOOR, decay_report, row_gaps
from splineproj.bspline import _blocks_at_spans, eval_basis_many, span_gauss_blocks
from splineproj.cli import ExperimentConfig, write_csv
from splineproj.quadrature import Piece, Pieces, gauss_rule, integrate_adaptive
from test_analysis import largest_gap
from test_gram import (dense_inverse, inexact_gram, reference_gram, serve_inverse,
                       streamed_inverse)

PROPS = settings(max_examples=30, deadline=None, derandomize=True)


@st.composite
def knot_sequences(draw, max_intervals=10, min_intervals=1):
    """Random breaks on [0, 1] with mesh ratio at most 10 and random
    interior multiplicities in 1..k, for k = 1..6."""
    k = draw(st.integers(1, 6))
    m = draw(st.integers(min_intervals, max_intervals))
    widths = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=m, max_size=m)))
    breaks = np.concatenate([[0.0], np.cumsum(widths) / widths.sum()])
    breaks[-1] = 1.0
    mults = draw(st.lists(st.integers(1, k), min_size=m - 1, max_size=m - 1))
    return make_knot_sequence(breaks, mults, k)


@PROPS
@given(knot_sequences(), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_block_matvec_matches_columns(K, m, seed):
    G = assemble_gram(K)
    X = np.random.default_rng(seed).standard_normal((K.n, m))
    block = G.matvec(X)
    columns = np.column_stack([G.matvec(X[:, j]) for j in range(m)])
    assert block.tobytes() == columns.tobytes()
    assert np.allclose(block, G.to_dense() @ X, rtol=1e-13, atol=1e-15)


@PROPS
@given(knot_sequences())
def test_gram_matches_composite_oracle(K):
    G = assemble_gram(K)
    assert np.abs(G.to_dense() - reference_gram(K, subdivisions=4)).max() <= 1e-12
    G.factor()  # banded Cholesky succeeds: the matrix is positive definite


@PROPS
@given(knot_sequences(), st.floats(0.0, 1.0))
def test_kernel_has_unit_mass(K, x):
    G = assemble_gram(K)
    assert abs(kernel_constant_integral(G, K, [x])[0] - 1.0) <= 1e-12


SPECIAL = st.sampled_from([0, 1, -7, 123456789, 0.0, -0.0, np.inf, -np.inf,
                           np.nan, 1e-300, -1e-300, 5e-324])
CELLS = st.one_of(SPECIAL, st.integers(-2**53, 2**53),
                  st.floats(allow_nan=True, allow_infinity=True))
#: Cells of a column that takes the integer templates when all its cells do.
INTEGERS = st.one_of(st.sampled_from([0.0, -0.0, 10**15, -(10**16 - 1)]),
                     st.integers(-9999, 9999), st.integers(-(10**16 - 1), 10**16 - 1))


@PROPS
@given(st.lists(st.sampled_from([CELLS, INTEGERS]), min_size=1, max_size=4).flatmap(
    lambda columns: st.lists(st.tuples(*columns), max_size=6)
    .map(lambda rows: (len(columns), rows))))
def test_write_csv_formats_every_cell(shape_rows):
    ncols, rows = shape_rows
    header = [f"c{j}" for j in range(ncols)]
    expect = "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.csv")
        write_csv(path, header, np.array(rows, dtype=float).reshape(-1, ncols))
        with open(path) as fh:
            assert fh.read() == ",".join(header) + "\n" + expect


# -- certification scans against entry-by-entry loop references ------------

def reference_lemma_constants(rows, K, gamma):
    """(k1, k2, k3, skipped) of the matrix ``rows`` by the entrywise loops the
    row scans replace."""
    n, k = K.n, K.k
    absA = np.abs(rows)
    absA = np.where(absA > ZERO_FLOOR, absA, 0.0)
    kap = K.kappa
    logg = np.log(gamma)
    i_idx, s_idx = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    with np.errstate(divide="ignore"):
        lg = np.log(absA * np.maximum(kap[i_idx], kap[s_idx]))
    k1 = float(np.exp(np.max(lg - np.abs(i_idx - s_idx) * logg)))
    k2_best = -np.inf
    for i in range(n):
        row = absA[i]
        with np.errstate(divide="ignore"):
            lr = np.log(row) - np.arange(n) * logg
        suffix = np.maximum.accumulate(lr[::-1])[::-1]
        if k >= 2:
            for ell in range(i + k, n - 1):
                s = 0.0
                for mu in range(ell - (k - 1), min(n, ell + k - 1)):
                    s += row[mu]
                if s > 0:
                    k2_best = max(k2_best, suffix[ell + 1] + ell * logg - np.log(s))
    k2 = float(np.exp(k2_best)) if np.isfinite(k2_best) else None
    k3, skipped = None, []
    if k >= 2:
        k3 = 0.0
        for i in range(n):
            row = absA[i]
            for mu in range(i + 1, n):
                denom = row[max(0, mu - (k - 1)):mu].max()
                if denom <= 0.0:
                    if row[mu] > 0.0:
                        skipped.append((i, mu))
                    continue
                k3 = max(k3, row[mu] / denom)
        k3 = float(k3)
    return k1, k2, k3, tuple(skipped)


def reference_chained_decay(rows, K, gamma):
    k1, k2, k3, _ = reference_lemma_constants(rows, K, gamma)
    n, k = K.n, K.k
    h = np.asarray(K.h)
    absA = np.abs(rows)
    chain = (2 * (k - 1) * (k2 or 0.0) * max(k3 or 1.0, 1.0) ** (k - 2)
             * k1 * gamma ** (1 - k))
    worst = 0.0
    for i in range(n):
        for j in range(i, n):
            window = h[i: j + k]
            ell = i + int(np.argmax(window))
            in_support = (i <= ell <= i + k - 1) or (j <= ell <= j + k - 1)
            bound = (k1 if in_support else chain) * gamma ** (j - i) / window[ell - i]
            if bound > 0 and np.isfinite(bound):
                worst = max(worst, absA[i, j] / bound)
    return worst


def chained_decay_check(G0, K, gamma):
    """Entrywise check of the decay bound assembled from the three
    structural constants, cross-validating ``decay_report``.

    For each pair, if a largest interval of the joint support lies inside
    either support, the support-scaled constant alone bounds the entry;
    otherwise the entry is bounded through the intermediate window:
    ``|a_ij| <= 2(k-1) k2 max(k3, 1)^(k-2) k1 gamma^(1-k) gamma^|i-j| / h_ij``.
    Returns the largest ratio of an entry to its bound; at most 1 (up to
    roundoff) when the constants were measured on the same instance.  The
    rows come in 32-row blocks from ``analysis.inverse_rows``, as in
    ``lemma_constants``, and the block reductions equal
    ``reference_chained_decay``'s loop.
    """
    con = lemma_constants(G0, K, gamma)
    n, k, h = K.n, K.k, K.h
    chain = (2 * (k - 1) * (con.k2 or 0.0) * max(con.k3 or 1.0, 1.0) ** (k - 2)
             * con.k1 * gamma ** (1 - k))
    powers = np.array([gamma ** d for d in range(n)])
    worst = 0.0
    for j, R, _ in analysis.inverse_rows(G0):
        # entries (i, c) with c >= j; d = c - i is negative below the diagonal
        i = np.arange(j, j + R.shape[0])[:, None]
        d = np.arange(j, n) - i
        upper = d >= 0
        # acc[r, p] = max h[i : j + p], with acc[r, 0] = 0: h >= 0, so the
        # zeros before column i leave each maximum as it is
        acc = np.zeros((i.size, h.size - j + 1))
        acc[:, 1:] = np.where(np.arange(j, h.size) >= i, h[j:], 0.0)
        np.maximum.accumulate(acc, axis=1, out=acc)
        hij = acc[:, k: n - j + k]  # max h[i : c + k]
        # the first largest interval of h[i : c+k] lies in the support of i
        # (it is among the first k) or of c (none of the first d reach it)
        first_k = np.take_along_axis(acc, i - j + k, axis=1)
        in_support = (d < k) | (first_k == hij) | (acc[:, : n - j] < hij)
        bound = np.where(in_support, con.k1, chain) * powers[np.maximum(d, 0)]
        np.divide(bound, hij, out=bound, where=upper)
        ok = upper & (bound > 0) & np.isfinite(bound)
        worst = max(worst, (np.abs(R[:, j:][ok]) / bound[ok]).max(initial=0.0))
    return float(worst)


def reference_stability(K, trials, seed):
    n, k = K.n, K.k
    spans = K.spans
    _, w, blocks = span_gauss_blocks(K)
    coeffs = np.random.default_rng(seed).standard_normal((trials, n))
    idx = (spans - (k - 1))[:, None] + np.arange(k)[None, :]
    svals = np.einsum("tsj,sgj->tsg", coeffs[:, idx], blocks)
    span_l2 = np.einsum("tsg,sg->ts", svals ** 2, w)
    d_best = 0.0
    span_pos = {int(s): p for p, s in enumerate(spans)}
    for m in range(n):
        cols = [span_pos[s] for s in range(m, m + k) if s in span_pos]
        local = span_l2[:, cols].sum(axis=1)
        ratios = np.abs(coeffs[:, m]) * np.sqrt(K.kappa[m] / np.maximum(local, 1e-300))
        d_best = max(d_best, float(ratios.max()))
    return d_best


def assert_scans_match_references(G, rows, K, gamma):
    """The scans of ``G``'s inverse against the loops over ``rows``, the
    matrix whose rows they read from the row stream."""
    con = lemma_constants(G, K, gamma)
    assert (con.k1, con.k2, con.k3, con.skipped) == \
        reference_lemma_constants(rows, K, gamma)
    assert chained_decay_check(G, K, gamma) == reference_chained_decay(rows, K, gamma)
    return con


@PROPS
@given(knot_sequences(max_intervals=24), st.floats(0.3, 0.95))
def test_certification_scans_equal_loop_references(K, gamma):
    gaps = row_gaps(K, 0, K.n, K.n)
    for d in range(K.n):
        assert np.diagonal(gaps, d)[: K.n - d].tolist() == \
            [largest_gap(K, i, i + d) for i in range(K.n - d)]
    assert stability_constant(K, trials=8, seed=K.n).d_hat == \
        reference_stability(K, 8, K.n)
    assume(K.n >= 3 * K.k)
    G = assemble_gram(K)
    assert_scans_match_references(G, streamed_inverse(G), K, gamma)


@PROPS
@given(knot_sequences(max_intervals=24), st.floats(0.3, 0.95),
       st.integers(0, 2**32 - 1))
def test_scans_equal_references_on_sparse_rows(K, gamma, seed):
    # rows with zero runs: k3 windows that are exactly zero, k2 windows with
    # zero sums, and entries under the zero floor; symmetric, as the
    # stream's inverse is, which serves the rows zero left of the band
    assume(K.n >= 3 * K.k)
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal((K.n, K.n)) * (rng.random((K.n, K.n)) < 0.3)
    entries[rng.random((K.n, K.n)) < 0.05] = 1e-301
    np.fill_diagonal(entries, 1.0)
    entries = np.triu(entries) + np.triu(entries, 1).T
    with serve_inverse(entries):
        assert_scans_match_references(assemble_gram(K), np.triu(entries, 1 - K.k),
                                      K, gamma)


@pytest.mark.parametrize("scan", [lemma_constants, chained_decay_check])
def test_row_scans_solve_each_block_once(scan):
    # the scans read each block of 32 rows once from the row stream,
    # bottom-up, the first one short, and never solve a column; the chained
    # check runs the lemma's scan and then its own
    K = generate_partition(PartitionSpec("random", 100, seed=3), 3)
    G = assemble_gram(K)
    blocks = []

    def stream(G0):
        for j, rows, residual in gram.inverse_rows(G0):
            blocks.append((j, rows.shape[0]))
            yield j, rows, residual
    with patch.object(analysis, "inverse_rows", stream), \
            patch.object(projection, "solve_banded", side_effect=AssertionError):
        scan(G, K, 0.6)
    assert K.n % 32
    once = [(j, min(32, K.n - j)) for j in range(0, K.n, 32)][::-1]
    assert blocks == once * (2 if scan is chained_decay_check else 1)


def test_k3_skips_zero_windows():
    # k = 3: entry (i, i+3) follows the zero window (i, i+1), (i, i+2)
    K = make_knot_sequence(np.linspace(0.0, 1.0, 8), [1] * 6, 3)
    entries = np.eye(K.n)
    for i in (0, 4):
        entries[i, i + 3] = 0.5
    with serve_inverse(entries):
        con = assert_scans_match_references(assemble_gram(K), entries, K, 0.5)
    assert con.skipped == ((0, 3), (4, 7))


# -- the kernel table --------------------------------------------------------

def reference_kernel_pairs(A, K, x, y):
    """Kd at paired points by the per-pair (m, k, k) gather it replaced, with
    ``A`` as the inverse."""
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    fx, bx = eval_basis_many(K, x.ravel())
    fy, by = eval_basis_many(K, y.ravel())
    off = np.arange(K.k)
    rows = fx[:, None] + off[None, :]
    cols = fy[:, None] + off[None, :]
    blocks = A[rows[:, :, None], cols[:, None, :]]
    vals = np.einsum("mp,mpq,mq->m", bx, blocks, by)
    return vals.reshape(x.shape)


def kernel_tolerance(k, A):
    """Largest gap between two roundings of one kernel value: the table's
    two stages of k terms each, 2k unit roundoffs, and the reference's k^2
    products of three factors, k^2 + 2 more, with ``u = eps / 2``; the basis
    weights are nonnegative and sum to 1 on each side, so ``max |A|`` bounds
    the sum of the terms' magnitudes."""
    return (2 * k + (k * k + 2) / 2) * np.finfo(float).eps * np.abs(A).max()


POINTS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12)


@PROPS
@given(knot_sequences(), POINTS, POINTS)
def test_kernel_table_equals_paired_reference(K, x, y):
    G = assemble_gram(K)
    # the knots themselves, where a basis function switches spans
    x = np.concatenate([x, K.t[K.k - 1: K.n + 1]])
    table = kernel_values(G, K, x, y)
    X, Y = np.meshgrid(x, y, indexing="ij")
    assert table.shape == (len(x), len(y))
    # the table reads the inverse's columns fx + l as its rows
    A = dense_inverse(G).T
    ref = reference_kernel_pairs(A, K, X, Y)
    assert np.abs(table - ref).max() <= kernel_tolerance(K.k, A)
    swapped = kernel_values(G, K, y, x)
    assert np.abs(swapped - table.T).max() <= 1e-13 * np.abs(table).max()


def test_kernel_runs_equal_paired_reference():
    # y samples cell by cell, whole or cut at either end so the runs per
    # cell have unequal length: the table is the paired reference up to
    # rounding
    K = generate_partition(PartitionSpec("random", 20, seed=2), 3)
    G = assemble_gram(K)
    A = dense_inverse(G).T
    x = np.linspace(0.0, 1.0, 17)
    offs = (np.arange(3) + 0.5) / 3
    cells = (K.t[K.spans][:, None] + np.outer(K.h[K.spans], offs)).ravel()
    for y in (cells, cells[1:], cells[:-1]):
        X, Y = np.meshgrid(x, y, indexing="ij")
        ref = reference_kernel_pairs(A, K, X, Y)
        assert np.abs(kernel_values(G, K, x, y) - ref).max() <= kernel_tolerance(K.k, A)


@st.composite
def graded_linear_knots(draw):
    """Order 2, simple knots, interval lengths spread over six decades."""
    m = draw(st.integers(1, 40))
    widths = 10.0 ** np.array(draw(st.lists(st.floats(-6.0, 0.0),
                                            min_size=m, max_size=m)))
    breaks = np.concatenate([[0.0], np.cumsum(widths) / widths.sum()])
    breaks[-1] = 1.0
    assume(np.diff(breaks).min() > 0)
    return make_knot_sequence(breaks, [1] * (m - 1), 2)


@PROPS
@given(graded_linear_knots())
def test_linear_projector_norm_at_most_three(K):
    # Ciesielski: for k = 2 and any simple knots, sup_x int |Kd(x, y)| dy <= 3.
    # Kd(x, .) is a linear spline, so each span integrates exactly from its
    # break values; the integral is convex in x on each span, so the sup is
    # attained at a break.
    breaks = K.t[1: K.n + 1]
    table = kernel_values(assemble_gram(K), K, breaks, breaks)
    u, v, h = table[:, :-1], table[:, 1:], np.diff(breaks)
    au, av = np.abs(u), np.abs(v)
    same_sign = u * v >= 0
    span = np.where(same_sign, 0.5 * (au + av),
                    0.5 * (u * u + v * v) / np.where(same_sign, 1.0, au + av))
    norm = (span * h).sum(axis=1).max()
    assert norm <= 3.0, norm


# -- batched quadrature evaluators against per-piece references -------------

def reference_gauss_points(lo, hi, g):
    x, w = gauss_rule(g)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def reference_moment_pair(K, f):
    """The per-piece ``moments`` evaluator that the batched one replaced:
    ``(value, est, magnitude)`` of one piece."""
    def measure(p):
        span = p.payload
        vals = []
        mag = 0.0
        for g in (p.order, 2 * p.order):
            x, w = reference_gauss_points(p.lo, p.hi, g)
            fx = f(x)
            blocks = _blocks_at_spans(K.t, K.k, x, np.full(x.shape, span))
            vals.append((w * fx) @ blocks)
            mag = float(((w * np.abs(fx)) @ blocks).max())
        return vals[1], float(np.abs(vals[1] - vals[0]).max()), mag
    return measure


def reference_integral_pair(fn):
    """The per-piece ``integrate_adaptive`` evaluator that the batched one
    replaced: ``(value, est, magnitude)`` of one piece."""
    def measure(p):
        x1, w1 = reference_gauss_points(p.lo, p.hi, p.order)
        x2, w2 = reference_gauss_points(p.lo, p.hi, 2 * p.order)
        f2 = np.asarray(fn(x2), dtype=float)
        v1 = float(w1 @ np.asarray(fn(x1), dtype=float))
        v2 = float(w2 @ f2)
        return v2, abs(v2 - v1), float(w2 @ np.abs(f2))
    return measure


def one_at_a_time(measure):
    """An ``eval_pair`` that measures each piece of a batch alone."""
    def eval_pair(batch):
        return tuple(np.array(c) for c in zip(*(measure(p) for p in batch)))
    return eval_pair


@contextmanager
def engine(module, per_piece=None):
    """Record the evaluator and the final pieces of the one job that
    ``module.refine_many`` runs; with ``per_piece``, measure every piece
    alone with it instead."""
    real = quadrature.refine_many
    seen = {}

    def spy(jobs, eval_pair):
        seen["eval_pair"] = eval_pair
        if per_piece is not None:
            eval_pair = one_at_a_time(per_piece)
        [(seen["done"], est)] = real(jobs, eval_pair)
        return [(seen["done"], est)]

    with patch.object(module, "refine_many", spy):
        yield seen


def function_specs(K):
    """sin, a jump and a kink inside a span, a singularity on a break."""
    spans = K.spans
    s = spans[len(spans) // 2]
    inside = float(K.t[s] + 0.37 * (K.t[s + 1] - K.t[s]))
    on_break = float(K.t[s])
    return ["sin", f"step:{inside!r}", f"absdist:{inside!r}",
            f"abspow:{on_break!r}:-0.5"]


def assert_same_measures(batched, reference, pieces, size):
    got = zip(*(batched(pieces[i: i + size]) for i in range(0, len(pieces), size)))
    expect = one_at_a_time(reference)(pieces)
    for a, b in zip(map(np.concatenate, got), expect):  # values, est, magnitude
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@PROPS
@given(knot_sequences(), st.integers(0, 3), st.sampled_from([2, 4, 8, 16, 32]),
       st.sampled_from([1, 2, 300]), st.integers(0, 2**32 - 1))
def test_batched_evaluators_equal_per_piece_references(K, which, order, size, seed):
    f = parse_function(function_specs(K)[which])
    rng = np.random.default_rng(seed)
    spans = rng.choice(K.spans, 300)
    ends = np.sort(rng.random((300, 2)), axis=1)
    lo = K.t[spans] + ends[:, 0] * (K.t[spans + 1] - K.t[spans])
    hi = K.t[spans] + ends[:, 1] * (K.t[spans + 1] - K.t[spans])
    pieces = Pieces(lo, hi, order=order, payload=spans)
    with np.errstate(all="ignore"):
        with engine(projection) as seen:  # tol = inf: only the first pass runs
            moments(K, f, tol=np.inf)
        assert_same_measures(seen["eval_pair"], reference_moment_pair(K, f),
                             pieces, size)
        with engine(quadrature) as seen:
            integrate_adaptive(f, 0.0, 1.0, markers=f.markers, tol=np.inf)
        assert_same_measures(seen["eval_pair"], reference_integral_pair(f),
                             Pieces(lo, hi, order=order), size)


def outcome(run):
    try:
        b, est = run()
    except QuadratureNonConvergence as exc:
        return str(exc)
    return np.asarray(b).tobytes(), est


def assert_moments_match_reference(K, f, tol=None):
    """Compare with a run that measures one piece at a time; return that
    run's outcome and final pieces (None if it raised)."""
    with np.errstate(all="ignore"):
        with engine(projection, reference_moment_pair(K, f)) as ref:
            expect = outcome(lambda: moments(K, f, tol=tol))
        assert outcome(lambda: moments(K, f, tol=tol)) == expect
    return expect, ref.get("done")


@settings(parent=PROPS, max_examples=15)
@given(knot_sequences(min_intervals=257, max_intervals=300))
def test_moments_equal_per_piece_reference(K):
    # more pieces than one initial batch of 256
    for spec in function_specs(K):
        assert_moments_match_reference(K, parse_function(spec))


@pytest.mark.parametrize("k", range(1, 7))
def test_deep_refinement_equals_per_piece_reference(k):
    # a wide first span at the singularity: bisection to full depth, then
    # order doubling; a small tolerance bisects a smooth function too, and
    # one under the roundoff floor freezes pieces until the engine gives up
    K = make_knot_sequence(np.concatenate([[0.0], np.linspace(0.5, 1.0, 300)]),
                           [1] * 299, k)
    base = max(k, 4) + 4
    deepest = quadrature.MAX_DEPTH
    for spec, tol, depth, order in (("abspow:0:-0.5", None, deepest, 8 * base),
                                    ("abspow:0:-0.5", 1e-9, deepest, 32 * base),
                                    ("runge", 1e-15, 1, base)):
        _, done = assert_moments_match_reference(K, parse_function(spec), tol)
        assert max(p.depth for p in done) >= depth
        assert max(p.order for p in done) >= order
    expect, _ = assert_moments_match_reference(K, parse_function("sin"), 1e-18)
    assert "above tolerance" in expect


@pytest.mark.parametrize("k", [1, 3, 6])
def test_non_finite_node_mid_batch_names_first_piece(k):
    # Gauss nodes of initial pieces 100 and 150 (of 300) hit poles that f
    # does not declare; both runs must name piece 100
    K = make_knot_sequence(np.linspace(0.0, 1.0, 301), [1] * 299, k)
    order = max(k, 4) + 4
    poles = [float(reference_gauss_points(K.t[s], K.t[s + 1], 2 * order)[0][3])
             for s in (K.spans[100], K.spans[150])]
    f = TestFunction(lambda x: np.abs(x - poles[0]) ** -0.5
                     + np.abs(x - poles[1]) ** -0.5, name="poles")
    assert_moments_match_reference(K, f)
    with np.errstate(all="ignore"), \
            pytest.raises(QuadratureNonConvergence, match="non-finite") as exc:
        moments(K, f)
    s = K.spans[100]
    assert f"[{K.t[s]:.17g}, {K.t[s + 1]:.17g}]" in str(exc.value)


@pytest.mark.parametrize("spec", ["sin", "step:0.3", "abspow:0.5:-0.3"])
def test_moments_hold_no_object_per_span(spec):
    # 32,768 spans: about 146 B per basis function with the pieces as arrays
    # (228 B where abspow refines), about 510 B with one Piece per span
    K = dyadic_ladder(4, [15])[0]
    f = parse_function(spec)
    with traced_peak() as peak:
        moments(K, f)
    assert peak[0] <= 320 * K.n


@st.composite
def full_multiplicity_knots(draw):
    """``knot_sequences()`` with a drawn subset of the interior breaks raised
    to multiplicity k, where the basis is discontinuous."""
    K = draw(knot_sequences())
    breaks, mults = np.unique(K.t, return_counts=True)
    full = draw(st.lists(st.booleans(), min_size=mults.size - 2, max_size=mults.size - 2))
    return make_knot_sequence(breaks, np.where(full, K.k, mults[1:-1]).tolist(), K.k)


def points_and_knots(K, seed):
    """Random points of [a, b], every distinct knot, a and b among them."""
    return np.concatenate([np.random.default_rng(seed).uniform(K.a, K.b, 200),
                           np.unique(K.t)])


@PROPS
@given(full_multiplicity_knots(), st.integers(0, 2**32 - 1))
def test_basis_sums_to_one(K, seed):
    # each of the k - 1 levels of the recurrence rounds the sum once at most
    _, vals = eval_basis_many(K, points_and_knots(K, seed))
    assert np.abs(vals.sum(axis=1) - 1.0).max() <= K.k * np.finfo(float).eps


@PROPS
@given(full_multiplicity_knots(), st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
       st.integers(0, 2**32 - 1))
def test_projection_reproduces_polynomials_below_order(K, coeffs, seed):
    # f is in the space, so Pf - f = sum (c - c*)_i N_i with c - c* =
    # A (G0 c - b*): at most ||A||_inf times the moment tolerance plus the
    # solve's residual, and the roundoff of evaluating both sides
    a = np.array(coeffs[: K.k])
    f = TestFunction(lambda x: np.polynomial.polynomial.polyval(x, a), name="poly")
    G = assemble_gram(K)
    b, _ = moments(K, f)
    pf = project(K, f)
    residual = np.abs(G.matvec(pf.coeffs) - b).max()
    a_norm = np.abs(dense_inverse(G)).sum(axis=1).max()
    eps = np.finfo(float).eps
    bound = (a_norm * (projection.DEFAULT_MOMENT_TOL + residual)
             + 4 * K.k * eps * (np.abs(pf.coeffs).max() + np.abs(a).sum()))
    x = points_and_knots(K, seed)
    assert np.abs(pf(x) - f(x)).max() <= bound


# -- one-pass cut, heap work list and one-call omega_k against loop references

def reference_split_at_markers(lo, hi, markers):
    """The per-span cut that the one-pass cut replaced."""
    cuts = sorted({float(m) for m in markers if lo < m < hi})
    edges = [lo] + cuts + [hi]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]


@st.composite
def knots_and_markers(draw):
    """Markers on breaks, inside spans, at a or b, outside [a, b] and NaN,
    with duplicates."""
    K = draw(knot_sequences())
    t = np.unique(K.t)
    spot = st.one_of(
        st.sampled_from(t.tolist()),
        st.builds(lambda s, u: float(K.t[s] + u * K.h[s]),
                  st.sampled_from(K.spans.tolist()), st.floats(0.0, 1.0)),
        st.sampled_from([-0.5, 1.5, -np.inf, np.inf, np.nan]))
    markers = draw(st.lists(spot, max_size=8))
    return K, markers + draw(st.lists(st.sampled_from(markers or [0.5]), max_size=3))


class Stop(Exception):
    pass


def first_pieces(module, run):
    """The (lo, hi, payload) of the pieces of the one job ``run`` hands to
    ``module.refine_many``."""
    seen = []

    def spy(jobs, eval_pair):
        [(pieces, _)] = jobs
        seen.extend((p.lo, p.hi, p.payload) for p in pieces)
        raise Stop

    with patch.object(module, "refine_many", spy), pytest.raises(Stop):
        run()
    return seen


@settings(parent=PROPS, max_examples=100)
@given(knots_and_markers())
def test_cut_equals_per_span_reference(case):
    K, markers = case
    f = TestFunction(np.sin, discontinuities=tuple(markers))
    t = K.t.tolist()
    expect = [(lo, hi, span) for span in K.spans.tolist()
              for lo, hi in reference_split_at_markers(t[span], t[span + 1], markers)
              if hi > lo]
    got = first_pieces(projection, lambda: moments(K, f))
    assert got == expect
    assert [type(v) for piece in got for v in piece] == [float, float, int] * len(got)
    for lo, hi in ((K.a, K.b), (float(K.t[K.spans[0]] + 0.5 * K.h[K.spans[0]]), K.b)):
        expect = [(a, b, None) for a, b in reference_split_at_markers(lo, hi, markers)]
        got = first_pieces(quadrature, lambda: integrate_adaptive(np.sin, lo, hi, markers))
        assert got == expect


def reference_refine_pieces(pieces, eval_pair, tol, max_depth, max_order):
    """The linear-scan work list over one ``Piece`` per span that the heap
    and the arrays replaced."""
    def evaluate(batch):
        # a list of pieces that share one depth and order, as one batch
        p = batch[0]
        value, est, mag = eval_pair(Pieces(
            [q.lo for q in batch], [q.hi for q in batch], p.depth, p.order,
            None if p.payload is None else [q.payload for q in batch]))
        for q, v, e, m in zip(batch, value, est.tolist(), mag.tolist()):
            q.value, q.est, q.floor = v, e, 8e-16 * m
        for p in batch:
            if not np.isfinite(p.est):
                raise QuadratureNonConvergence(
                    f"non-finite error estimate {p.est} on [{p.lo:.17g}, {p.hi:.17g}]")

    pieces = list(pieces)
    for s in range(0, len(pieces), quadrature._BATCH):
        evaluate(pieces[s: s + quadrature._BATCH])
    live = list(pieces)
    frozen = []
    frozen_est = 0.0
    live_est = sum(p.est for p in live)
    refinements = 0
    while live_est + frozen_est > tol:
        if not live or frozen_est > tol or refinements >= quadrature._MAX_REFINEMENTS:
            raise QuadratureNonConvergence(
                f"estimate {live_est + frozen_est:.3g} above tolerance "
                f"{tol:.3g} after {refinements} refinements")
        worst = max(range(len(live)), key=lambda i: live[i].est)
        p = live.pop(worst)
        live_est -= p.est
        refinements += 1
        if p.est <= p.floor:
            frozen.append(p)
            frozen_est += p.est
        elif p.depth < max_depth:
            mid = 0.5 * (p.lo + p.hi)
            if mid <= p.lo or mid >= p.hi:
                p.depth = max_depth
                live.append(p)
                live_est += p.est
                continue
            kids = [Piece(p.lo, mid, p.depth + 1, p.order, p.payload),
                    Piece(mid, p.hi, p.depth + 1, p.order, p.payload)]
            evaluate(kids)
            for q in kids:
                live_est += q.est
            live.extend(kids)
        elif 2 * p.order <= max_order:
            p.order *= 2
            evaluate([p])
            live_est += p.est
            live.append(p)
        else:
            frozen.append(p)
            frozen_est += p.est
    return live + frozen, live_est + frozen_est


def tied_evaluator(levels, freeze, log):
    """Estimates from a few levels times the piece width, so that equal
    widths tie; ``freeze`` of the level codes get a roundoff floor above
    their estimate.  Every measured piece is logged."""
    def measure(p):
        code = (int(p.lo * 64) + 3 * p.depth + p.order) % len(levels)
        est = levels[code] * max(p.hi - p.lo, 1 / 64) * (8 / p.order) ** 2
        log.append((p.lo, p.hi, p.depth, p.order, est))
        return p.lo + p.hi, est, 2e15 * est if code in freeze else 0.0
    return one_at_a_time(measure)


def tied_pieces(widths, job=None):
    """The initial pieces of a tied-evaluator job, ``job`` the payload of each."""
    breaks = np.concatenate([[0.0], np.cumsum(widths)]).tolist()
    # a piece at floating-point resolution cannot be bisected
    lo = breaks[:-1] + [0.5]
    return Pieces(lo, breaks[1:] + [float(np.nextafter(0.5, 1.0))],
                  payload=None if job is None else [job] * len(lo))


def tied_outcome(done, est):
    return [(p.lo, p.hi, p.depth, p.order, p.value, p.est, p.floor) for p in done], est


def work_list_outcome(refine, widths, levels, freeze, tol):
    log = []
    try:
        done, est = refine(tied_pieces(widths), tied_evaluator(levels, freeze, log), tol)
    except QuadratureNonConvergence as exc:
        return str(exc), log
    return (*tied_outcome(done, est), log)


TIED_WIDTHS = st.lists(st.sampled_from([1 / 16, 1 / 8, 1 / 4]), min_size=1, max_size=40)
TIED_LEVELS = st.lists(st.sampled_from([0.0, 1e-3, 1.0, 2.0]), min_size=1, max_size=5)
TIED_FREEZE = st.sets(st.integers(0, 4), max_size=2)
TIED_TOL = st.sampled_from([0.0, 1e-3, 0.1, 1.0])


@settings(parent=PROPS, max_examples=200)
# the initial piece at floating-point resolution is never popped and ties in
# est with two refined pieces, and an initial piece that ties with the heap's
# top is popped first: the lower entry number wins both times
@example([1 / 4, 1 / 8], [1.0], set(), 0.1, 1, 64)
@given(TIED_WIDTHS, TIED_LEVELS, TIED_FREEZE, TIED_TOL,
       st.integers(0, 4), st.sampled_from([8, 16, 64]))
def test_heap_work_list_equals_linear_scan(widths, levels, freeze, tol, depth, order):
    with patch.object(quadrature, "MAX_DEPTH", depth), \
            patch.object(quadrature, "MAX_ORDER", order):
        got = work_list_outcome(quadrature.refine_pieces, widths, levels, freeze, tol)
    expect = work_list_outcome(
        lambda *args: reference_refine_pieces(*args, depth, order),
        widths, levels, freeze, tol)
    assert got == expect


def test_heap_work_list_covers_every_branch():
    # ties, bisection, the resolution cap, order doubling and both ways of
    # freezing, in one run that converges
    case = ([1 / 8, 1 / 4, 1 / 8, 1 / 8, 1 / 8, 1 / 8], [1.0, 1e-3, 2.0, 0.0, 1.0], {1},
            1e-3)
    with patch.object(quadrature, "MAX_DEPTH", 2), \
            patch.object(quadrature, "MAX_ORDER", 64):
        done, est, log = work_list_outcome(quadrature.refine_pieces, *case)
    assert (done, est, log) == work_list_outcome(
        lambda *args: reference_refine_pieces(*args, 2, 64), *case)
    ests = [e for *_, e in log]
    assert len(ests) > len(set(ests))  # tied estimates
    assert {p[2] for p in done} == {0, 1, 2}
    assert {p[3] for p in done} >= {8, 16, 64}
    assert (0.5, float(np.nextafter(0.5, 1.0)), 2, 64) in [p[:4] for p in done]
    assert any(0 < p[5] <= p[6] for p in done)  # frozen at the roundoff floor
    assert any(p[2:4] == (2, 64) and p[5] > p[6] for p in done)  # frozen at the caps


def recorded(eval_pair, calls):
    """``eval_pair``, recording each batch as ``(order, lo, hi, depth)`` lists."""
    def measure(batch):
        calls.append((batch.order, batch.lo.tolist(), batch.hi.tolist(),
                      np.broadcast_to(batch.depth, len(batch)).tolist()))
        return eval_pair(batch)
    return measure


def by_payload(evaluators):
    """One ``eval_pair`` for several jobs: each piece is measured alone by
    the evaluator of the job its payload names."""
    def eval_pair(batch):
        return tuple(np.concatenate(c) for c in zip(*(
            evaluators[j](batch[i: i + 1]) for i, j in enumerate(batch.payload.tolist()))))
    return eval_pair


@settings(parent=PROPS, max_examples=100)
# two jobs that converge after batches at four rule orders, stacking pieces
# of different depths in three rounds; and two that converge with pieces
# frozen at the roundoff floor in both
@example([([1 / 4], [2.0, 1e-3, 1.0], set(), 1e-3),
          ([1 / 4, 1 / 16, 1 / 16, 1 / 8], [1e-3, 0.0, 2.0], set(), 1e-3)], 3, 64)
@example([([1 / 16, 1 / 16, 1 / 16, 1 / 8], [1.0, 1e-3], {1, 4}, 0.1),
          ([1 / 16, 1 / 8, 1 / 4], [1e-3, 2.0, 1.0], {0, 3}, 0.1)], 3, 64)
@given(st.lists(st.tuples(TIED_WIDTHS, TIED_LEVELS, TIED_FREEZE, TIED_TOL),
                min_size=1, max_size=4),
       st.integers(0, 4), st.sampled_from([8, 16, 64]))
def test_lockstep_jobs_equal_each_job_alone(jobs, depth, order):
    # refine_many gives every job the outcome and the log of measured pieces
    # that refine_pieces gives it alone, and round r measures the r-th batch
    # of every job still running, one call per rule order
    with patch.object(quadrature, "MAX_DEPTH", depth), \
            patch.object(quadrature, "MAX_ORDER", order):
        alone, rounds = [], []
        for widths, levels, freeze, tol in jobs:
            log, calls = [], []
            try:
                result = tied_outcome(*quadrature.refine_pieces(
                    tied_pieces(widths),
                    recorded(tied_evaluator(levels, freeze, log), calls), tol))
            except QuadratureNonConvergence as exc:
                result = str(exc)
            alone.append((result, log))
            rounds.append(calls)
        logs = [[] for _ in jobs]
        calls = []
        evaluators = [tied_evaluator(levels, freeze, log)
                      for (_, levels, freeze, _), log in zip(jobs, logs)]
        try:
            got = quadrature.refine_many(
                [(tied_pieces(widths, j), tol) for j, (widths, _, _, tol) in enumerate(jobs)],
                recorded(by_payload(evaluators), calls))
        except QuadratureNonConvergence as exc:
            # raised by the job that fails after the fewest rounds, the
            # first such job on a tie
            failed = [(len(r), j) for j, ((result, _), r) in enumerate(zip(alone, rounds))
                      if isinstance(result, str)]
            assert failed and str(exc) == alone[min(failed)[1]][0]
            return
    assert [tied_outcome(*r) for r in got] == [result for result, _ in alone]
    assert logs == [log for _, log in alone]
    expect = []
    for r in range(max(map(len, rounds))):
        stacked = {}
        for job_calls in rounds:
            if r < len(job_calls):
                g, lo, hi, d = job_calls[r]
                batch = stacked.setdefault(g, (g, [], [], []))
                for into, part in zip(batch[1:], (lo, hi, d)):
                    into += part
        expect += stacked.values()
    assert calls == expect


def reference_modulus(f, k, delta, interval=(0.0, 1.0), grid=256):
    """The per-step loop that the one-call table replaced."""
    a, b = float(interval[0]), float(interval[1])
    signs = np.array([(-1.0) ** r * comb(k, r) for r in range(k + 1)])
    best = 0.0
    for h in delta * (np.arange(1, grid + 1) / grid):
        if a + k * h > b:
            continue
        xs = np.linspace(a, b - k * h, grid + 1)
        table = f(xs[None, :] + h * np.arange(k + 1)[:, None])
        diffs = np.abs(signs @ table)
        diffs = diffs[~np.isnan(diffs)]
        if diffs.size:
            best = max(best, float(diffs.max()))
    return best


MODULUS_FUNCTIONS = [
    parse_function(spec) for spec in
    ("x^3", "sin", "runge", "step:0.3", "absdist:0.5", "abspow:0.5:-0.5",
     "abspow:0:-0.9", "abspow:0.25:0.5")] + [
    TestFunction(lambda x: np.where(x > 0.6, np.nan, x * x), name="nan"),
    TestFunction(lambda x: np.where(x < 0.2, np.inf, x), name="inf"),
    TestFunction(lambda x: np.full_like(x, np.nan), name="all-nan")]


@settings(parent=PROPS, max_examples=200)
@given(st.integers(1, 10), st.sampled_from(MODULUS_FUNCTIONS),
       st.sampled_from([1e-3, 0.05, 0.2, 0.5, 3.0]),
       st.sampled_from([(0.0, 1.0), (-1.0, 2.5)]), st.sampled_from([1, 2, 7, 64, 256]))
def test_modulus_equals_per_step_reference(k, f, delta, interval, grid):
    with np.errstate(all="ignore"):
        got = modulus_of_smoothness(f, k, [delta], interval, grid)
        expect = reference_modulus(f, k, delta, interval, grid)
    assert type(got) is list and len(got) == 1 and type(got[0]) is float
    assert np.float64(got[0]).tobytes() == np.float64(expect).tobytes()


def test_modulus_when_every_step_is_skipped():
    # the smallest step h = delta / grid already has a + k h > b
    for k, delta, grid in ((3, 100.0, 256), (10, 1.0, 4), (1, 1.5, 1)):
        f = parse_function("sin")
        assert modulus_of_smoothness(f, k, [delta], grid=grid) == [0.0]
        assert reference_modulus(f, k, delta, grid=grid) == 0.0


@st.composite
def mesh_diameters(draw, k, interval):
    """Diameters of a dyadic ladder, of non-nested uniform meshes, a list
    with repeats, or a list with a diameter whose every step is skipped."""
    kind = draw(st.sampled_from(["dyadic", "uniform", "repeated", "skipped"]))
    if kind == "dyadic":
        lo = draw(st.integers(0, 6))
        ladder = dyadic_ladder(k, range(lo, lo + draw(st.integers(1, 6))), interval)
        return [K.mesh for K in ladder]
    if kind == "uniform":
        ns = sorted(draw(st.sets(st.integers(1, 40), min_size=1, max_size=5)))
        return [generate_partition(PartitionSpec("uniform", n_intervals=n), k, interval).mesh
                for n in ns]
    base = draw(st.lists(st.sampled_from([1e-3, 0.05, 0.2, 0.5, 3.0]), min_size=1, max_size=4))
    if kind == "repeated":
        return base + base[::-1]
    # delta / grid > (b - a) / k for every grid <= 256 and width <= 3.5
    return base + [1e4] + base


@settings(parent=PROPS, max_examples=100)
@given(st.data(), st.integers(1, 10), st.sampled_from(MODULUS_FUNCTIONS),
       st.sampled_from([(0.0, 1.0), (-1.0, 2.5)]), st.sampled_from([1, 2, 7, 64, 256]))
def test_modulus_list_equals_per_step_reference(data, k, f, interval, grid):
    deltas = data.draw(mesh_diameters(k, interval))
    with np.errstate(all="ignore"):
        got = modulus_of_smoothness(f, k, deltas, interval, grid)
        expect = [reference_modulus(f, k, d, interval, grid) for d in deltas]
    assert all(type(v) is float for v in got)
    assert np.array(got).tobytes() == np.array(expect).tobytes()


def test_convergence_modulus_evaluates_each_step_once():
    # dyadic levels 1..11 at k = 4 have 2,688 fitting steps, 1,408 distinct
    k, grid = 4, 256
    sizes = []
    real = analysis.modulus_of_smoothness

    def counting(f, *args, **kwargs):
        seen = TestFunction(lambda x: sizes.append(x.size) or f(x), name=f.name)
        return real(seen, *args, **kwargs)

    with patch.object(analysis, "modulus_of_smoothness", counting):
        rep = analysis.convergence_report(dyadic_ladder(k, range(1, 12)),
                                          parse_function("sin"), probes=[0.3])
    assert sum(sizes) == 1408 * (k + 1) * (grid + 1)
    assert max(sizes) <= grid * (k + 1) * (grid + 1)
    assert len(rep.levels) == 11


def reference_kernel_bound(G, K, samples_per_cell):
    """``kernel_bound_report`` on the one (s S)^2 sample table it held before
    the table was built in slices of cell rows."""
    spans, t, S = K.spans, K.t, K.spans.size
    offs = (np.arange(samples_per_cell) + 0.5) / samples_per_cell
    pts = (t[spans][:, None] + np.outer(K.h[spans], offs)).ravel()
    cell_max = np.abs(kernel_values(G, K, pts, pts)).reshape(
        S, samples_per_cell, S, samples_per_cell).max(axis=(1, 3))
    dist = np.abs(spans[:, None] - spans[None, :])
    lo = np.minimum(spans[:, None], spans[None, :])
    hi = np.maximum(spans[:, None], spans[None, :])
    hull = t[hi + 1] - t[lo]
    dec = decay_report(G, K)
    gamma = dec.gamma if dec.fitted else 0.0
    grid = np.arange(0.05, 1.0, 0.05)
    grid = grid[grid > gamma]
    if grid.size == 0:
        grid = np.linspace(gamma + 0.5 * (1 - gamma), 0.99, 4)
    mask = cell_max > ZERO_FLOOR
    logs = np.log(cell_max[mask] * hull[mask])
    d = dist[mask]
    c_of_theta = np.array([float(np.exp((logs - d * np.log(th)).max())) for th in grid])
    effective = c_of_theta * (1 + grid) / (1 - grid)
    best = int(np.argmin(effective))
    return (float(gamma), grid.tobytes(), c_of_theta.tobytes(), float(grid[best]),
            float(c_of_theta[best]))


@pytest.mark.parametrize("intervals, k, samples, seed",
                         [(65, 1, 2, 0), (150, 3, 3, 1), (200, 4, 2, 2)])
def test_kernel_bound_slices_equal_one_table(intervals, k, samples, seed):
    # more cell rows than one slice, and a last slice that is not full
    rng = np.random.default_rng(seed)
    breaks = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, intervals))])
    K = make_knot_sequence(breaks / breaks[-1], rng.integers(1, k + 1, intervals - 1), k)
    S = K.spans.size
    assert analysis._KERNEL_ROWS < S and S % analysis._KERNEL_ROWS
    G = assemble_gram(K)
    # the true inverse, and one whose largest values sit in the last slice
    corner = dense_inverse(G)
    corner[-k - 8:, -k - 8:] *= 100.0
    for served in (contextlib.nullcontext(), serve_inverse(corner)):
        with served:
            rep = kernel_bound_report(G, K, samples)
            assert (rep.gamma, rep.theta_grid.tobytes(), rep.c_of_theta.tobytes(),
                    rep.theta_hat, rep.c_hat) == reference_kernel_bound(G, K, samples)


# -- blocked dense inverse and sliced CSV writer ----------------------------

def knots_of_dimension(n, k, seed):
    """Random breaks with mesh ratio at most 10 and interior multiplicities
    in 1..k that make the spline dimension exactly n."""
    rng = np.random.default_rng(seed)
    mults = []
    while sum(mults) < n - k:
        mults.append(min(int(rng.integers(1, k + 1)), n - k - sum(mults)))
    widths = rng.uniform(0.1, 1.0, len(mults) + 1)
    breaks = np.concatenate([[0.0], np.cumsum(widths) / widths.sum()])
    breaks[-1] = 1.0
    return make_knot_sequence(breaks, mults, k)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([31, 32, 33, 255, 256, 257]),
       st.sampled_from([1, 2, 3, 4, 5, 6, 10]),
       st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 1e-7, 1e-4, 3e-2]))
def test_blocked_inverse_equals_inverse_columns(n, k, seed, eps):
    # n on both sides of the 32-row block; a cached factor with its diagonal
    # scaled by 1 + eps makes the row stream fail, and the whole
    # inverse with it
    K = knots_of_dimension(n, k, seed)
    G = assemble_gram(K)
    fac = G.factor().copy()
    fac[:, 0] *= 1 + eps
    inexact = GramMatrix(G.band, fac)
    if eps > 0:
        with pytest.raises(RefinementFailure, match="inverse residual"):
            invert_gram(inexact)
        return
    A = invert_gram(inexact)
    E = A.entries
    blocks = [(j, rows.copy(), residual) for j, rows, residual in gram.inverse_rows(G)]
    for j, rows, _ in blocks:
        for r, row in enumerate(rows):
            assert E[j + r, j + r:].tobytes() == row[j + r:].tobytes()
    assert np.array_equal(E, E.T)
    assert A.residual == max(residual for _, _, residual in blocks)
    assert E.flags["C_CONTIGUOUS"]
    X = solve_banded(G, np.eye(n))
    assert np.abs(E - X).max() <= 1e-13 * np.abs(X).max()


def cycled_knots(n, k):
    """Random breaks of dimension exactly n whose interior multiplicities
    cycle through k, 1, 2, ..., k - 1: full multiplicity, where the basis
    is discontinuous, at every k-th break."""
    mults, cycle = [], [k] + list(range(1, k))
    while sum(mults) < n - k:
        mults.append(min(cycle[len(mults) % k], n - k - sum(mults)))
    widths = np.random.default_rng(n * k).uniform(0.1, 1.0, len(mults) + 1)
    breaks = np.concatenate([[0.0], np.cumsum(widths) / widths.sum()])
    breaks[-1] = 1.0
    return make_knot_sequence(breaks, mults, k)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 10])
@pytest.mark.parametrize("n", [31, 32, 33, 65, 257])
def test_invert_gram_matches_inverse_columns(n, k):
    # the mirrored row stream against every column solved on its own, an
    # independent producer of the same inverse
    G = assemble_gram(cycled_knots(n, k))
    A = invert_gram(G)
    X = solve_banded(G, np.eye(n))
    assert A.n == n
    assert np.abs(A.entries - X).max() <= 1e-13 * np.abs(A.entries).max()


@contextmanager
def traced_peak():
    """Peak bytes traced by tracemalloc inside the block, as ``peak[0]``."""
    peak = [0]
    tracemalloc.start()
    try:
        yield peak
        peak[0] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_inverse_holds_one_dense_array():
    # the inverse (8 n^2 bytes) plus the row stream's O(n) buffers and tiles
    # (about 1.04 x 8 n^2 in all), not a second n x n array nor a tenth of one
    K = knots_of_dimension(2002, 3, 5)
    G = assemble_gram(K)
    G.factor()
    with traced_peak() as peak:
        A = invert_gram(G)
    assert A.residual <= 1e-9
    assert peak[0] <= 1.1 * 8 * K.n ** 2


@pytest.mark.parametrize("k", [1, 3, 4, 6, 10])
@pytest.mark.parametrize("width", [1, 32, 64, 256])
def test_inverse_blocks_equal_one_solve(k, width):
    # column sets out of order, strided and scattered: each column is solved
    # on its own, so it is bitwise that column of one solve
    K = knots_of_dimension(300, k, k)
    G = assemble_gram(K)
    whole = dense_inverse(G)
    rng = np.random.default_rng(width)
    for cols in (rng.permutation(K.n)[:width], np.arange(K.n - 1, -1, -3)[:width],
                 np.sort(rng.choice(K.n, width, replace=False))):
        I = np.eye(K.n)[:, cols]
        X = solve_banded(G, I)
        assert np.abs(G.matvec(X) - I).max() <= 1e-10
        assert X.shape == (K.n, cols.size)
        assert X.tobytes() == whole[:, cols].tobytes()


# -- the numpy banded Cholesky and its solves ------------------------------

def dense_factor(fac):
    """The n x n upper triangle ``U`` the band factor ``fac`` holds."""
    n, k = fac.shape
    U = np.zeros((n, n))
    for d in range(k):
        U[np.arange(n - d), np.arange(d, n)] = fac[: n - d, d]
    return U


def lapack_band(band):
    """``band`` in LAPACK's upper band layout, ``[k-1-d, j] = (j-d, j)``,
    the layout scipy's banded Cholesky and solves read."""
    n, k = band.shape
    out = np.zeros((k, n))
    for d in range(k):
        out[k - 1 - d, d:] = band[: n - d, d]
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 10), st.integers(0, 101), st.integers(0, 2**32 - 1))
@example(10, 97, 0)   # last block 1 row, p = 9
@example(10, 101, 1)  # last block 5 rows
@example(8, 33, 2)    # last block 1 row, p = 7
@example(4, 66, 3)    # last block 2 rows, p = 3
@example(10, 10, 4)   # no interior knot
@example(1, 65, 5)    # a diagonal matrix over three blocks
def test_banded_cholesky_and_solves_match_scipy(k, n, seed):
    # the numpy factor and solves against LAPACK's banded ones in scipy, on
    # knots with random multiplicities up to k (full ones among them) and
    # n = k .. 3 * 32 + 5, so up to four 32-row blocks: both factors
    # reproduce G0 to 1e-14 of sqrt(g_ii g_jj); they differ by at most
    # 1e-14 cond(G0) of the factor, as any two backward stable ones may, and
    # so do the solutions; each column of a block solve is bitwise that
    # column solved alone
    from scipy.linalg import cho_solve_banded, cholesky_banded

    n = max(n, k)
    K = knots_of_dimension(n, k, seed)
    G = assemble_gram(K)
    fac = G.factor()
    ref = cholesky_banded(lapack_band(G.band), lower=False)
    assert fac.shape == G.band.shape == ref.shape[::-1]
    assert not fac[np.add.outer(np.arange(n), np.arange(k)) >= n].any()  # unused
    dense = G.to_dense()
    scale = np.sqrt(np.outer(np.diag(dense), np.diag(dense)))
    U = dense_factor(fac)
    assert (np.abs(U.T @ U - dense) / scale).max() <= 1e-14
    cond = np.linalg.cond(dense)
    assert np.abs(lapack_band(fac) - ref).max() <= 1e-14 * cond * np.abs(ref).max()
    B = np.random.default_rng(seed).standard_normal((n, 4))
    X = gram._cho_solve(fac, B.copy())
    expected = cho_solve_banded((ref, False), B)
    assert np.abs(X - expected).max() <= 1e-14 * cond * np.abs(expected).max()
    assert np.abs(dense @ X - B).max() <= 1e-14 * np.abs(dense).max() * np.abs(X).max()
    for j in range(B.shape[1]):
        x = gram._cho_solve(fac, B[:, j].copy())
        assert x.tobytes() == X[:, j].tobytes()


def test_factor_breakdown_names_its_window():
    # a negative diagonal entry in row 70 of an otherwise assembled Gram
    # matrix: four windows of 25 rows (and 2 more below each), of which the
    # third, rows 50..76, is not positive definite
    G = assemble_gram(knots_of_dimension(100, 3, 0))
    G.band[70, 0] = -1.0
    with pytest.raises(NotPositiveDefinite, match=r"rows 50\.\.76: "):
        G.factor()


def test_nan_gram_entry_reaches_the_residual_gate():
    # a NaN in the band is not a breakdown: the factor takes it through, and
    # the solve's residual gate reports a NaN residual
    G = assemble_gram(knots_of_dimension(100, 4, 1))
    G.band[39, 1] = np.nan
    assert np.isnan(G.factor()).any()
    with pytest.raises(RefinementFailure, match="solve residual nan above "):
        solve_banded(G, np.ones(G.n))


# -- the row stream of the inverse -------------------------------------------

def reference_row_residuals(G, A):
    """The residual of each block of ``gram.inverse_rows``, bottom-up, by a
    loop over the entries of ``A``, the stream's rows as one matrix: each
    ``(G0 A)[i, c]`` for ``c >= i`` and ``(A G0)[i, c]`` for ``c > i``
    summed term by term for ``q = -p .. p``, out-of-range terms zero."""
    n, p = G.n, G.order - 1
    Gd = np.zeros((n + 2 * p, n + 2 * p))
    Gd[p: n + p, p: n + p] = G.to_dense()
    Ap = np.zeros_like(Gd)
    Ap[p: n + p, p: n + p] = A
    out = []
    for j in range(32 * ((n - 1) // 32), -1, -32):
        worst = 0.0
        for i in range(j, min(j + 32, n)):
            for c in range(i, n):
                I, C = i + p, c + p
                v = Gd[I, I - p] * Ap[I - p, C]
                h = Ap[I, C - p] * Gd[C - p, C]
                for q in range(1 - p, p + 1):
                    v += Gd[I, I + q] * Ap[I + q, C]
                    h += Ap[I, C + q] * Gd[C + q, C]
                worst = max(worst, abs(v - (i == c)), abs(h) if c > i else 0.0)
        out.append(worst)
    return out


def assert_residuals_match(G, A, residuals):
    """The stream's block residuals, bottom-up, against
    ``reference_row_residuals``: each entry is a sum of 2p + 1 terms, which
    two summation orders round apart by at most ``(2p + 1) eps`` times the
    sum of the terms' magnitudes, ``(|G0| |A|)[i, c]`` or ``(|A| |G0|)[i, c]``
    over the block's rows."""
    n, p = G.n, G.order - 1
    absG, absA = np.abs(G.to_dense()), np.abs(A)
    scale = np.maximum(absG @ absA, absA @ absG)
    bounds = [(2 * p + 1) * np.finfo(float).eps * scale[j: j + 32].max()
              for j in range(32 * ((n - 1) // 32), -1, -32)]
    reference = reference_row_residuals(G, A)
    assert len(residuals) == len(reference)
    for got, want, bound in zip(residuals, reference, bounds):
        assert abs(got - want) <= bound


STREAM_CASES = [(n, k) for k in range(1, 9) for n in (k, 20, 31, 32, 33, 64 + max(k - 2, 1))]


@pytest.mark.parametrize("n, k", STREAM_CASES)
def test_inverse_rows_equal_inverse_columns(n, k):
    # k = 1..8 on n below one block, at one block, a one-row last block and
    # a last block narrower than k - 1 (n = 64 + k - 2)
    K = knots_of_dimension(n, k, 10 * n + k)
    G = assemble_gram(K)
    X = solve_banded(G, np.eye(n))
    blocks = []
    for j, rows, residual in gram.inverse_rows(G):
        assert rows.shape == (min(32, n - j), n)
        blocks.append((j, rows.copy(), residual))
    assert [j for j, _, _ in blocks] == list(range(0, n, 32))[::-1]
    A = np.zeros((n, n))
    for j, rows, _ in blocks:
        A[j: j + rows.shape[0]] = rows
    # the upper triangle and k - 1 entries left of the diagonal, mirrored
    # exactly; zero further left
    band = np.triu(np.ones((n, n), bool), 1 - k)
    mirrored = band & ~np.triu(band)
    assert not A[~band].any()
    assert np.array_equal(A[mirrored], A.T[mirrored])
    scale = np.abs(X).max()
    assert np.abs(A - np.where(band, X, 0.0)).max() <= 1e-12 * scale
    assert_residuals_match(G, A, [r for _, _, r in blocks])
    assert max(r for _, _, r in blocks) <= gram.RESIDUAL_TARGET


@pytest.mark.parametrize("k", range(1, 9))
def test_inverse_rows_block_diagonal(k):
    # every interior knot of multiplicity k: the inverse is k x k blocks on
    # the diagonal, and the stream holds exact zeros between them
    rng = np.random.default_rng(k)
    breaks = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, 12))])
    K = make_knot_sequence(breaks / breaks[-1], [k] * 11, k)
    G = assemble_gram(K)
    A = streamed_inverse(G)
    blocks = np.kron(np.eye(12, dtype=bool), np.ones((k, k), bool))
    assert not A[~blocks].any()
    X = solve_banded(G, np.eye(K.n))
    assert np.abs(A - X * blocks).max() <= 1e-12 * np.abs(X).max()
    assert_residuals_match(G, A, [r for _, _, r in gram.inverse_rows(G)])


@pytest.mark.parametrize("k, intervals, multiplicity, nan_at", [
    (2, 3000, 1, None), (3, 2000, 1, None), (4, 600, 4, None), (4, 600, 1, 300)])
def test_stream_products_stop_at_last_nonzero_column(monkeypatch, k, intervals,
                                                     multiplicity, nan_at):
    # far from the diagonal the inverse underflows to exact zeros (2/3 and
    # 1/3 of the upper triangle at k = 2 and 3), or is zero between the
    # blocks that interior knots of multiplicity k decouple; each block's
    # products stop at the last nonzero column, and the rows and residuals
    # are bitwise those of products over every column, a NaN included
    K = generate_partition(PartitionSpec("random", intervals, seed=1,
                                         interior_multiplicity=multiplicity), k)
    G = assemble_gram(K)
    if nan_at is not None:
        G.band[nan_at - 1, 1] = np.nan

    def stream():
        out = []
        try:
            for j, rows, residual in gram.inverse_rows(G):
                out.append((j, rows.tobytes(), residual))
        except RefinementFailure as exc:
            out.append(str(exc))
        return out
    stopped = stream()
    with monkeypatch.context() as m:
        m.setattr(gram, "_nonzero_width", lambda a: a.shape[1])
        assert stream() == stopped
    if nan_at is not None:
        assert "residual nan above" in stopped[-1]
        return
    A = streamed_inverse(G)
    assert (A[np.triu_indices(K.n)] == 0.0).mean() > 0.3
    if multiplicity == k:
        return
    # and a wrong entry at the last nonzero column of the rows below a
    # block, which the block's G0 A reads, fails the stream
    real = gram._block_residual

    def corrupted(buf, tiles, j, e, p):
        if j == gram._ROWS * (K.n // (2 * gram._ROWS)):
            width = gram._nonzero_width(buf[gram._ROWS:])
            below = np.flatnonzero(buf[gram._ROWS:, width - 1])
            buf[gram._ROWS + below[-1], width - 1] += 1.0
        return real(buf, tiles, j, e, p)
    with monkeypatch.context() as m:
        m.setattr(gram, "_block_residual", corrupted)
        assert "inverse residual" in str(stream()[-1])


def underflowing_knots(k, multiplicities):
    """A mesh whose inverse underflows: 600, 900 or 1200 random intervals
    for k = 2, 3 or 4 (with seed 1 the subnormals show by 560, 850 and 1,200
    intervals, and not yet at 1,100 for k = 4), or, with ``multiplicities``, 800 or 700 intervals with interior
    multiplicities drawn from 1 .. k - 1 and two of multiplicity k, which
    cut the inverse into three decoupled blocks, two of them long."""
    if not multiplicities:
        return generate_partition(PartitionSpec("random", 300 * k, seed=1), k)
    m = 800 if k == 2 else 700
    rng = np.random.default_rng(k)
    mults = rng.integers(1, k, m - 1)
    mults[[m // 10, m - 6]] = k
    breaks = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, m))])
    return make_knot_sequence(breaks / breaks[-1], mults, k)


@pytest.mark.parametrize("multiplicities", [False, True])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_stream_holds_no_subnormal(monkeypatch, k, multiplicities):
    # the decay of the inverse ends in exact zeros, without the band of
    # subnormals before them: each block is within the residual target, and
    # differs from the stream without the flush by less than the smallest
    # normal double.  The decay report and the lemma constants, which stop
    # at each block's last nonzero column, equal the loop references over
    # every column, and the reductions over every column
    tiny = np.finfo(float).tiny
    K = underflowing_knots(k, multiplicities)
    G = assemble_gram(K)
    A = np.zeros((K.n, K.n))
    for j, rows, residual in gram.inverse_rows(G):
        assert residual <= gram.RESIDUAL_TARGET
        assert ((rows == 0.0) | (np.abs(rows) >= tiny)).all()
        A[j: j + rows.shape[0]] = rows
    with monkeypatch.context() as m:
        m.setattr(gram, "_TINY", 0.0)
        unflushed = streamed_inverse(G)
    subnormal = (unflushed != 0.0) & (np.abs(unflushed) < tiny)
    assert subnormal.sum() > 1000
    assert np.abs(A - unflushed).max() < tiny
    rep = assert_decay_equals_reference(G, A, K)
    assert rep.fitted
    gamma = rep.gamma_cert
    con = lemma_constants(G, K, gamma)
    if K.n < 1000:
        assert (con.k1, con.k2, con.k3, con.skipped) == \
            reference_lemma_constants(A, K, gamma)
    with monkeypatch.context() as m:
        m.setattr(analysis, "_nonzero_width", lambda a: a.shape[1])
        assert dataclasses.asdict(lemma_constants(G, K, gamma)) == dataclasses.asdict(con)
        full = decay_report(G, K)
    assert pickle.dumps(full) == pickle.dumps(rep)


def test_reductions_stop_at_last_nonzero_column(monkeypatch):
    # row_gaps, both offset-maxima passes and _lemma_rows read each block
    # up to its last nonzero column and no further, on an inverse whose
    # decay underflows 560 or so columns right of the diagonal
    K = generate_partition(PartitionSpec("random", 1500, seed=1), 2)
    G = assemble_gram(K)
    width, seen = {}, []
    real_rows, real_gaps = analysis.inverse_rows, analysis.row_gaps
    real_maxima, real_lemma = analysis._offset_maxima, analysis._lemma_rows

    def rows(G0):
        for j, block, residual in real_rows(G0):
            width["end"] = j + gram._nonzero_width(block[:, j:])
            width["j"] = j
            yield j, block, residual

    def gaps(K, j, e, m=None):
        seen.append(("row_gaps", j + m, width["end"]))
        return real_gaps(K, j, e, m)

    def maxima(table, m, prof):
        seen.append(("maxima", width["j"] + m, width["end"]))
        assert table.shape[1] == m + table.shape[0]
        return real_maxima(table, m, prof)

    def lemma(R, i, c0, kap, logg, k):
        seen.append(("lemma", c0 + R.shape[1], width["end"]))
        return real_lemma(R, i, c0, kap, logg, k)
    monkeypatch.setattr(analysis, "inverse_rows", rows)
    monkeypatch.setattr(analysis, "row_gaps", gaps)
    monkeypatch.setattr(analysis, "_offset_maxima", maxima)
    monkeypatch.setattr(analysis, "_lemma_rows", lemma)
    rep = decay_report(G, K)
    lemma_constants(G, K, rep.gamma_cert)
    blocks = -(-K.n // gram._ROWS)
    assert [name for name, _, _ in seen] == \
        ["row_gaps", "maxima", "maxima"] * blocks + ["lemma"] * blocks
    assert all(end == last for _, end, last in seen)
    # the blocks of the upper half end well before column n
    assert sum(end < K.n for _, end, _ in seen) > len(seen) // 2


def test_invert_gram_holds_no_subnormal():
    # an inverse whose decay underflows: exact zeros past it, no subnormal,
    # and the identity columns of solve_banded within roundoff
    K = generate_partition(PartitionSpec("random", 1000, seed=1), 2)
    G = assemble_gram(K)
    A = invert_gram(G).entries
    assert ((A == 0.0) | (np.abs(A) >= np.finfo(float).tiny)).all()
    assert (A == 0.0).sum() > K.n ** 2 // 8
    X = solve_banded(G, np.eye(K.n))
    assert np.abs(A - X).max() <= 1e-12 * np.abs(X).max()


@pytest.mark.parametrize("i, c", [(40, 90), (65, 62), (3, 60), (96, 96)],
                         ids=["far-upper", "mirrored-band", "top-block", "one-row-bottom-block"])
def test_stream_residual_catches_one_wrong_entry(monkeypatch, i, c):
    # n = 97, k = 4: blocks of rows 96, 64.., 32.., 0..; entry (i, c) of the
    # stream is changed by 1 just before the residual of its row's block.
    # (65, 62) sits at offset k - 1 left of the diagonal, stored in row 65
    # alone: only the residual of row 62, one block later, reads it
    K = knots_of_dimension(97, 4, 3)
    G = assemble_gram(K)
    assert max(r for _, _, r in gram.inverse_rows(G)) <= gram.RESIDUAL_TARGET
    real = gram._block_residual

    def corrupted(buf, tiles, j, e, p):
        if j <= i < j + e:
            buf[i - j + p, c + p] += 1.0
        return real(buf, tiles, j, e, p)
    monkeypatch.setattr(gram, "_block_residual", corrupted)
    with pytest.raises(RefinementFailure, match="inverse residual"):
        for _ in gram.inverse_rows(G):
            pass


def extreme_knots(rng, k):
    """40 to 199 intervals of widths log-uniform over twelve decades, with
    random interior multiplicities up to k."""
    m = int(rng.integers(40, 200))
    widths = 10.0 ** rng.uniform(-12.0, 0.0, m)
    breaks = np.concatenate([[0.0], np.cumsum(widths) / widths.sum()])
    breaks[-1] = 1.0
    return make_knot_sequence(breaks, rng.integers(1, k + 1, m - 1), k)


@pytest.mark.parametrize("k", range(1, 11))
def test_inverse_rows_on_extreme_meshes(k):
    # nine meshes per order with interval widths log-uniform over twelve
    # decades and random interior multiplicities up to k: every block is
    # within the residual target, and the rows keep their exact shape.  On
    # the same meshes one pass of solve_banded, for a normal right-hand side
    # and a moment-like kappa * |normal| one, and against identity columns,
    # every column or the first, middle and last 32, is within its target
    for seed in range(9):
        rng = np.random.default_rng(1000 * k + seed)
        K = extreme_knots(rng, k)
        G = assemble_gram(K)
        A = np.zeros((K.n, K.n))
        for j, rows, residual in gram.inverse_rows(G):
            assert residual <= gram.RESIDUAL_TARGET
            A[j: j + rows.shape[0]] = rows
        band = np.triu(np.ones((K.n, K.n), bool), 1 - k)
        mirrored = band & ~np.triu(band)
        assert not A[~band].any()
        assert np.array_equal(A[mirrored], A.T[mirrored])
        normal = rng.standard_normal(K.n)
        for rhs in (normal, K.kappa * np.abs(normal)):
            c = solve_banded(G, rhs)
            assert np.abs(G.matvec(c) - rhs).max() <= 1e-10 * np.abs(rhs).max()
        if K.n <= 96:
            cols = np.arange(K.n)
        else:
            mid = K.n // 2 - 16
            cols = np.r_[0:32, mid: mid + 32, K.n - 32: K.n]
        I = np.eye(K.n)[:, cols]
        assert np.abs(G.matvec(solve_banded(G, I)) - I).max() <= 1e-10


# -- the decay profiles, from the row stream or a served inverse -----------

def reference_decay_profiles(A, K):
    """``(profile_scaled, profile_b)`` by the per-offset ``np.diagonal`` loop
    over the upper triangle of the dense inverse ``A`` that the block scans
    replaced."""
    n, k, h = K.n, K.k, np.asarray(K.h)
    kap = K.kappa
    prof_a = np.empty(n)
    prof_b = np.empty(n)
    gaps = sliding_window_view(h, k).max(axis=1)
    for d in range(n):
        if d:
            gaps = np.maximum(gaps[:-1], h[d + k - 1:])
        diag = np.abs(np.diagonal(A, offset=d))
        scaled = diag * gaps
        scaled = np.where(scaled > ZERO_FLOOR, scaled, 0.0)
        prof_a[d] = scaled.max() if scaled.size else 0.0
        bu = diag * kap[d:] / k
        bl = diag * kap[: n - d] / k
        both = np.concatenate([bu, bl])
        both = np.where(both > ZERO_FLOOR, both, 0.0)
        prof_b[d] = both.max() if both.size else 0.0
    return prof_a, prof_b


def assert_decay_equals_reference(G, A, K):
    """``decay_report(G, K)`` against the loop over ``A``, the inverse whose
    rows it reads."""
    rep = decay_report(G, K)
    prof_a, prof_b = reference_decay_profiles(A, K)
    assert rep.profile_scaled.tobytes() == prof_a.tobytes()
    assert rep.profile_b.tobytes() == prof_b.tobytes()
    return rep


@PROPS
@given(knot_sequences(max_intervals=40))
def test_dense_decay_equals_reference(K):
    G = assemble_gram(K)
    rep = assert_decay_equals_reference(G, streamed_inverse(G), K)
    assert rep.inverse_residual <= gram.RESIDUAL_TARGET


@pytest.mark.parametrize("n, k", [(31, 2), (32, 3), (33, 1), (65, 4), (100, 6)])
def test_dense_decay_blocks_equal_reference(n, k):
    # n on both sides of the 32-row block; also an unsymmetric inverse with
    # zero runs, values under the zero floor and NaNs
    assert gram._ROWS == 32
    K = knots_of_dimension(n, k, n)
    G = assemble_gram(K)
    assert_decay_equals_reference(G, streamed_inverse(G), K)
    rng = np.random.default_rng(n)
    entries = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
    entries[rng.random((n, n)) < 0.05] = 1e-301
    entries[rng.random((n, n)) < 0.02] = np.nan
    with serve_inverse(entries):
        assert_decay_equals_reference(G, entries, K)


def assert_fields_close(got, want, skip=()):
    """Every field of two reports equal, or within 1e-12 relative if it is a
    float or an array."""
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name in skip:
            continue
        if b is None or isinstance(b, (bool, int, tuple)):
            assert a == b, f.name
        else:
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0, err_msg=f.name)


def assert_streamed_decay_matches_dense(K):
    G = assemble_gram(K)
    streamed = decay_report(G, K)
    with serve_inverse(invert_gram(G).entries):
        dense = decay_report(G, K)
    assert streamed.inverse_residual <= 1e-9
    assert_fields_close(streamed, dense, skip=("inverse_residual",))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(knot_sequences(max_intervals=100, min_intervals=30))
def test_streamed_decay_matches_dense(K):
    # 30 to 100 intervals of multiplicity up to k = 6: n <= 600
    assert_streamed_decay_matches_dense(K)


@pytest.mark.parametrize("k", range(1, 7))
def test_streamed_decay_matches_dense_at_600(k):
    assert_streamed_decay_matches_dense(knots_of_dimension(600, k, k))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(knot_sequences(max_intervals=100, min_intervals=30), POINTS)
def test_gram_consumers_agree_with_dense_inverse(K, x):
    # each consumer reads the inverse from the Gram matrix, as rows or as
    # columns; fed the dense inverse of solved columns instead, every field
    # agrees
    G = assemble_gram(K)
    dec = decay_report(G, K)
    gamma = max(dec.gamma_cert if dec.fitted else 0.5, 0.5)
    y = np.linspace(0.0, 1.0, 41)

    def reports():
        return (lemma_constants(G, K, gamma), chained_decay_check(G, K, gamma),
                kernel_bound_report(G, K, 2), kernel_values(G, K, x, y))
    streamed = reports()
    with serve_inverse(invert_gram(G).entries):
        dense = reports()
    assert_fields_close(streamed[0], dense[0])
    assert streamed[1] == pytest.approx(dense[1], rel=1e-12, abs=0)
    assert_fields_close(streamed[2], dense[2])
    assert np.abs(streamed[3] - dense[3]).max() <= 1e-12 * np.abs(dense[3]).max()


def test_streamed_decay_holds_no_inverse():
    # a rolling buffer of 32 + 2(k - 1) rows, one block's tables and its
    # residual slices, not the 8 n^2 bytes of the inverse
    K = knots_of_dimension(2002, 3, 5)
    G = assemble_gram(K)
    G.factor()
    with traced_peak() as peak:
        rep = decay_report(G, K)
    assert rep.fitted and rep.inverse_residual <= 1e-9
    assert peak[0] <= 0.1 * 8 * K.n ** 2


@pytest.mark.parametrize("eps", [1e-7, 1e-4, 3e-2])
def test_inexact_factor_fails_streamed_decay(eps):
    # a cached factor with its diagonal scaled by 1 + eps: the row stream
    # ends one pass with a residual above 1e-9, and the solved identity
    # columns above 1e-10, a numerical failure at every eps, not a decay
    # report or lemma constants read from a wrong inverse
    K = knots_of_dimension(300, 4, 1)
    inexact = inexact_gram(K, eps)
    for produce, match in ((lambda: decay_report(inexact, K), "inverse residual .* above 1e-09"),
                           (lambda: lemma_constants(inexact, K, 0.6),
                            "inverse residual .* above 1e-09"),
                           (lambda: solve_banded(inexact, np.eye(K.n)),
                            "solve residual .* above 1e-10")):
        with pytest.raises(RefinementFailure, match=match):
            produce()


@pytest.mark.parametrize("k, trials", [(1, 7), (4, 1), (4, 65), (6, 33)])
def test_stability_span_slices_equal_one_shot(k, trials):
    # more spans than one slice, and a last slice that is not full
    K = knots_of_dimension(1500, k, trials)
    assert analysis._STABILITY_SPANS < K.spans.size
    assert K.spans.size % analysis._STABILITY_SPANS
    rep = stability_constant(K, trials=trials, seed=trials)
    assert rep.d_hat == reference_stability(K, trials, trials)


def test_stability_holds_no_span_tensor():
    # the coefficients, the span masses and their window sums (trials x n
    # each) and one slice of spans, not (trials, spans, k) tensors
    K = generate_partition(PartitionSpec("random", 5000, seed=1), 4)
    with traced_peak() as peak:
        stability_constant(K, trials=64)
    assert peak[0] <= 4 * 8 * 64 * K.n


def reference_invert_payload(A, K):
    """The ``invert`` table and norms from whole n^2 index and scaled arrays."""
    i, j = np.divmod(np.arange(K.n * K.n), K.n)
    rows = np.column_stack([i, j, A.entries.ravel()])
    b = np.abs(A.entries * (K.kappa / K.k)[None, :])
    return rows, float(b.sum(axis=1).max()), float(b.sum(axis=0).max())


@pytest.mark.parametrize("n", [39, 502])
def test_invert_table_and_norms_equal_reference(n):
    # the table bitwise; the norms, each one solve by the sign pattern of
    # the inverse, within roundoff of the sums over the dense inverse
    K = knots_of_dimension(n, 3, n)
    cfg = ExperimentConfig("invert", k=3, partition="uniform:4")
    with traced_peak() as peak:
        payload, _, tables = cli.run_invert(cfg, K)
    (_, rows), = tables.values()
    ref_rows, norm_inf, norm_1 = reference_invert_payload(invert_gram(assemble_gram(K)), K)
    assert rows.tobytes() == ref_rows.tobytes()
    assert payload["scaled_inverse_norm_inf"] == pytest.approx(norm_inf, rel=1e-13, abs=0)
    assert payload["scaled_inverse_norm_1"] == pytest.approx(norm_1, rel=1e-13, abs=0)
    # the inverse and the (n^2, 3) table: 32 n^2 bytes, and O(n) solves
    assert peak[0] <= 4.5 * 8 * n * n + 2**20


@pytest.mark.parametrize("k", range(1, 11))
def test_inverse_alternates_in_sign_on_extreme_meshes(k):
    # G0 is totally positive, so its inverse has the checkerboard sign
    # pattern (-1)^(i+j) a_ij >= 0, which invert's two norms rest on: each
    # is one solve, within roundoff of the sums over the dense inverse
    for seed in range(9):
        K = extreme_knots(np.random.default_rng(1000 * k + seed), k)
        A = invert_gram(assemble_gram(K))
        s = (-1.0) ** np.arange(K.n)
        assert (s[:, None] * A.entries * s).min() >= -1e-14 * np.abs(A.entries).max()
        payload, _, _ = cli.run_invert(ExperimentConfig("invert", k=k), K)
        _, norm_inf, norm_1 = reference_invert_payload(A, K)
        assert payload["scaled_inverse_norm_inf"] == pytest.approx(norm_inf, rel=1e-13, abs=0)
        assert payload["scaled_inverse_norm_1"] == pytest.approx(norm_1, rel=1e-13, abs=0)


def test_kernel_bound_holds_no_pair_table():
    # per-cell maxima, hulls and distances of 64 cell rows at a time: about
    # 2 x 8 S^2 bytes at S = 1000 (the decay scan), not eight S x S arrays
    K = generate_partition(PartitionSpec("random", 1000, seed=3), 3)
    G = assemble_gram(K)
    G.factor()
    with traced_peak() as peak:
        kernel_bound_report(G, K, 3)
    assert peak[0] <= 4 * 8 * K.spans.size ** 2


def test_kernel_bound_evaluates_the_basis_once():
    # one basis evaluation at the S s samples per report, shared by the
    # three slices of cell rows at S = 150, not two per slice
    K = generate_partition(PartitionSpec("random", 150, seed=1), 3)
    G = assemble_gram(K)
    with patch.object(analysis, "eval_basis_many", wraps=eval_basis_many) as here, \
            patch.object(projection, "eval_basis_many", wraps=eval_basis_many) as there:
        kernel_bound_report(G, K, 3)
    assert (here.call_count, there.call_count) == (1, 0)
    assert here.call_args.args[1].size == 3 * K.spans.size


def test_write_csv_holds_one_slice(tmp_path):
    # the i, j, value table of a 502 x 502 inverse: 252,004 rows formatted
    # 8192 at a time into one pair of template buffers sized for three float
    # templates a row (2.25 MiB; i and j fill 8 bytes each of it, the value
    # 48), each slice's text one bytes object, not one tuple of 756k Python
    # floats; the peak is 3.26 MiB once csvtext's cached tables exist.  The
    # first call builds those tables, which stay: 0.26 MiB
    n = 502
    i, j = np.divmod(np.arange(n * n), n)
    rows = np.column_stack([i, j, np.random.default_rng(0).standard_normal(n * n)])
    path = os.path.join(tmp_path, "t.csv")
    for table in (csvtext._scales, csvtext._layout, csvtext._special_rows,
                  csvtext._integer_words, csvtext._integer_keep):
        table.cache_clear()
    tracemalloc.start()
    try:
        write_csv(path, ("i", "j", "value"), rows)
        cached = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert cached <= 0.5 * 2**20
    with traced_peak() as peak:
        write_csv(path, ("i", "j", "value"), rows)
    assert peak[0] <= 3.5 * 2**20
    with open(path) as fh:
        assert sum(1 for _ in fh) == n * n + 1


@pytest.mark.parametrize("nrows", [0, 1, 8191, 8192, 8193])
def test_write_csv_slices_equal_one_shot(tmp_path, nrows):
    assert cli._CSV_ROWS == 8192
    rows = np.random.default_rng(nrows).standard_normal((nrows, 3)) * 1e5
    rows[::7, 1] = np.arange(rows[::7].shape[0])
    line = "%.17g,%.17g,%.17g\n"
    expect = "a,b,c\n" + (line * nrows) % tuple(rows.ravel().tolist())
    path = os.path.join(tmp_path, "t.csv")
    write_csv(path, ("a", "b", "c"), rows)
    with open(path, "rb") as fh:
        assert fh.read() == expect.encode()


@pytest.mark.parametrize("nrows", [8191, 8192, 8193, 3 * 8192 + 5])
def test_write_csv_key_columns_equal_per_value_format(tmp_path, nrows):
    # key columns of a few values, repeated across the slice boundaries:
    # -0.0 beside 0.0, two nans, +-inf and 1e-300, beside distinct values
    keys = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-300,
                     -1e-300, 5e-324, 0.1, 3.0])
    rng = np.random.default_rng(nrows)
    rows = np.column_stack([keys[np.arange(nrows) % keys.size],
                            keys[rng.integers(0, keys.size, nrows)],
                            np.repeat(keys, -(-nrows // keys.size))[:nrows],
                            rng.standard_normal(nrows)])
    expect = "a,b,c,d\n" + "".join(",".join("%.17g" % v for v in row) + "\n"
                                   for row in rows.tolist())
    path = os.path.join(tmp_path, "t.csv")
    write_csv(path, ("a", "b", "c", "d"), rows)
    with open(path, "rb") as fh:
        assert fh.read() == expect.encode()


# -- maximal function from hull sweeps --------------------------------------

def test_prefix_slices_equal_one_table():
    # 3 slices of 4096 cells and a last one of 37 against one (cells, 16)
    # table.  OpenBLAS may split one product between threads differently from
    # the slices, so both run in a process held to one BLAS thread.  The
    # cells are compared too: the running sum can round a last-bit
    # difference in one cell away
    assert analysis._PREFIX_CELLS == 4096
    code = """if True:
        import numpy as np
        from splineproj import analysis, parse_function
        from splineproj.quadrature import gauss_points
        f = parse_function("runge")
        grid = np.sort(np.random.default_rng(0).uniform(0.0, 1.0, 3 * 4096 + 38))
        lo, hi = grid[:-1], grid[1:]
        x, w = gauss_points(0.0, 1.0, 16)
        pts = lo[:, None] + (hi - lo)[:, None] * x[None, :]
        cell = (hi - lo) * (np.abs(f(pts.ravel())).reshape(pts.shape) @ w)
        prefix = analysis._prefix_abs_integral(f, grid)
        np.cumsum = np.asarray
        cells = analysis._prefix_abs_integral(f, grid)[1:]
        print(prefix.tobytes() == np.concatenate([[0.0], np.add.accumulate(cell)]).tobytes(),
              cells.tobytes() == cell.tobytes())
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(analysis.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.stdout.split() == ["True", "True"], out.stderr


def test_prefix_holds_one_slice():
    # the 16 Gauss nodes of 4096 cells at a time, not of all 262,144
    f = parse_function("abspow:0:-0.5")
    grid = np.linspace(0.0, 1.0, 262145)
    with traced_peak() as peak:
        analysis._prefix_abs_integral(f, grid)
    assert peak[0] <= 16 * 8 * grid.size

def reference_maximal(f, xs, interval, grid_size):
    """``_maximal_on_points`` as one O(grid) scan per point: the largest
    quotient over every grid interval anchored at the point, left and right."""
    a, b = interval
    grid = np.union1d(np.linspace(a, b, grid_size + 1), xs)
    prefix = analysis._prefix_abs_integral(f, grid)
    out = []
    for idx in np.searchsorted(grid, xs):
        best = 0.0
        if idx > 0:
            left = (prefix[idx] - prefix[:idx]) / (grid[idx] - grid[:idx])
            best = max(best, float(left.max()))
        if idx < grid.size - 1:
            right = (prefix[idx + 1:] - prefix[idx]) / (grid[idx + 1:] - grid[idx])
            best = max(best, float(right.max()))
        out.append(best)
    return np.array(out)


def cell_masses(kind, widths, rng):
    """Values of |f| on the grid cells for one family of cell masses."""
    cells = widths.size
    if kind == "constant":  # prefix collinear on any grid
        return np.full(cells, rng.uniform(0.1, 10.0))
    if kind == "equal":  # the same mass in every cell
        return rng.uniform(0.1, 10.0) * widths[0] / widths
    if kind == "zero":  # flat runs between equal-mass runs
        runs = np.repeat(rng.random(cells // 4 + 1) < 0.5, 4)[:cells]
        return np.where(runs, 0.0, 1.0)
    if kind == "integer":  # many exact ties
        return rng.integers(0, 4, cells).astype(float)
    if kind == "spike":
        vals = np.where(rng.random(cells) < 0.5, 0.0, 1.0)
        vals[rng.integers(cells)] = 10.0 ** rng.integers(2, 9)
        return vals
    return rng.pareto(0.7, cells)  # heavy-tailed


@st.composite
def maximal_cases(draw):
    """A piecewise constant f on the grid ``_maximal_on_points`` builds, with
    the evaluation points on a uniform grid or making the grid random; the
    ends a and b are always evaluated."""
    a = draw(st.sampled_from([0.0, -1.0, 0.3, 1e3]))
    b = a + draw(st.sampled_from([1.0, 0.1, 7.0, 1.0 / 3.0]))
    grid_size = draw(st.integers(16, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    uniform = np.linspace(a, b, grid_size + 1)
    if draw(st.booleans()):
        inner = uniform[rng.choice(grid_size + 1, rng.integers(1, grid_size + 2))]
    else:
        inner = rng.uniform(a, b, rng.integers(1, 3 * grid_size))
    xs = np.concatenate([[a, b], inner])
    grid = np.union1d(uniform, xs)
    vals = cell_masses(draw(st.sampled_from(
        ["constant", "equal", "zero", "integer", "spike", "heavy"])), np.diff(grid), rng)
    # Gauss nodes lie inside the cells, so each cell sees one value
    f = TestFunction(lambda x: vals[np.clip(np.searchsorted(grid, x) - 1, 0, vals.size - 1)],
                     name="cells")
    return f, xs, (a, b), grid_size


@settings(parent=PROPS, max_examples=300)
@given(maximal_cases())
def test_maximal_sweeps_equal_per_point_scan(case):
    f, xs, interval, grid_size = case
    ref = reference_maximal(f, xs, interval, grid_size)
    new = analysis._maximal_on_points(f, xs, interval, grid_size)
    assert np.all(np.abs(new - ref) <= 4 * np.spacing(ref))


@pytest.mark.parametrize("name, points, grid_size", [
    ("abspow:0:-0.5", 4096, 16384), ("step:0.4375", 4096, 4096),
    ("abspow:0.5:-0.3", 512, 4096)])
def test_maximal_sweeps_equal_scan_on_benchmark_inputs(name, points, grid_size):
    f = parse_function(name)
    xs = analysis.midpoints(0.0, 1.0, points)
    ref = reference_maximal(f, xs, (0.0, 1.0), grid_size)
    assert np.array_equal(analysis._maximal_on_points(f, xs, (0.0, 1.0), grid_size), ref)


@st.composite
def graded_knot_sequences(draw):
    """Breaks on [0, 1] with widths 10^U(-8, 0) and interior multiplicities
    in 1..k, for k = 1..8."""
    k = draw(st.integers(1, 8))
    m = draw(st.integers(1, 24))
    widths = 10.0 ** np.array(draw(st.lists(st.floats(-8.0, 0.0), min_size=m, max_size=m)))
    breaks = np.concatenate([[0.0], np.cumsum(widths) / widths.sum()])
    breaks[-1] = 1.0
    assume(np.all(np.diff(breaks) > 0))
    mults = draw(st.lists(st.integers(1, k), min_size=m - 1, max_size=m - 1))
    return make_knot_sequence(breaks, mults, k)


def add_at_bands(K, local):
    """The span blocks ``local`` added into the band by one ``np.add.at``
    over every span's upper triangle, span by span in (p, q) order."""
    k = K.k
    p, q = np.triu_indices(k)
    rows = (K.spans - (k - 1))[:, None] + p[None, :]
    cols = np.broadcast_to(q - p, rows.shape)
    band = np.zeros((K.n, k))
    np.add.at(band, (rows.ravel(), cols.ravel()), local[:, p, q].ravel())
    return band


@settings(parent=PROPS, max_examples=160)
@given(graded_knot_sequences())
def test_gram_slice_adds_equal_add_at(K):
    # the band accumulation is bitwise np.add.at's on the same span blocks,
    # and within 4 ulps of max |entry| of the three-operand einsum form
    _, w, blocks = span_gauss_blocks(K)
    band = assemble_gram(K).band
    local = np.matmul((blocks * w[:, :, None]).transpose(0, 2, 1), blocks)
    assert band.tobytes() == add_at_bands(K, local).tobytes()
    einsum = add_at_bands(K, np.einsum("sg,sgp,sgq->spq", w, blocks, blocks))
    assert np.abs(band - einsum).max() <= 4 * np.spacing(np.abs(einsum).max())


def reference_left_averages(x, y):
    """The hull sweep with the chain as two lists popped and appended."""
    out = [0.0]
    hx, hy = [x[0]], [y[0]]
    for xp, yp in zip(x[1:], y[1:]):
        best = (yp - hy[-1]) / (xp - hx[-1])
        while len(hx) >= 2:
            below = (yp - hy[-2]) / (xp - hx[-2])
            if below < best:
                break
            hx.pop()
            hy.pop()
            best = below
        out.append(best)
        hx.append(xp)
        hy.append(yp)
    return out


@st.composite
def hull_points(draw):
    """Increasing x and nondecreasing y from a few step sizes, so that ties,
    runs of equal y and collinear runs are common, on an interval that may
    lie far from the origin."""
    m = draw(st.integers(1, 60))
    dx = draw(st.lists(st.sampled_from([0.125, 0.25, 1.0]) | st.floats(1e-3, 1.0),
                       min_size=m, max_size=m))
    dy = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0]) | st.floats(0.0, 10.0),
                       min_size=m, max_size=m))
    x0 = draw(st.sampled_from([0.0, -3.0, 1e6]))
    x = (x0 + np.cumsum(dx)).tolist()
    y = np.cumsum(dy).tolist()
    assume(all(a < b for a, b in zip(x, x[1:])))
    return x, y


@settings(parent=PROPS, max_examples=300)
@given(hull_points())
def test_left_averages_equal_list_sweep(points):
    x, y = points
    assert analysis._left_averages(x, y) == reference_left_averages(x, y)


@pytest.mark.parametrize("k", range(1, 11))
def test_window_sums_equal_sliding_window(k):
    # bitwise numpy's sum over the window axis while numpy adds it left to
    # right (k <= 7); within k ulps of it beyond
    rng = np.random.default_rng(k)
    mass = rng.random((16, 300 + k - 1)) * 10.0 ** rng.uniform(-8, 8, (16, 300 + k - 1))
    mass[:, rng.random(mass.shape[1]) < 0.2] = 0.0
    local = analysis._window_sums(mass, k)
    reference = sliding_window_view(mass, k, axis=1).sum(axis=2)
    if k <= 7:
        assert local.tobytes() == reference.tobytes()
    else:
        assert np.all(np.abs(local - reference) <= k * np.spacing(reference))
