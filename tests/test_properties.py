"""Property tests on generated knot sequences for the shared vectorized paths."""

import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from splineproj import (
    InverseGram,
    assemble_gram,
    invert_gram,
    kernel_constant_integral,
    lemma_constants,
    make_knot_sequence,
    stability_constant,
)
from splineproj.analysis import ZERO_FLOOR, chained_decay_check, joint_gap_profile
from splineproj.bspline import span_gauss_blocks
from splineproj.cli import write_csv
from test_gram import reference_gram

PROPS = settings(max_examples=30, deadline=None, derandomize=True)


@st.composite
def knot_sequences(draw, max_intervals=10):
    """Random breaks on [0, 1] with mesh ratio at most 10 and random
    interior multiplicities in 1..k, for k = 1..6."""
    k = draw(st.integers(1, 6))
    m = draw(st.integers(1, max_intervals))
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
    A = invert_gram(assemble_gram(K))
    assert abs(kernel_constant_integral(A, K, x) - 1.0) <= 1e-12


SPECIAL = st.sampled_from([0, 1, -7, 123456789, 0.0, -0.0, np.inf, -np.inf,
                           np.nan, 1e-300, -1e-300, 5e-324])
CELLS = st.one_of(SPECIAL, st.integers(-2**53, 2**53),
                  st.floats(allow_nan=True, allow_infinity=True))


@PROPS
@given(st.integers(1, 4).flatmap(
    lambda c: st.lists(st.lists(CELLS, min_size=c, max_size=c), max_size=6)
    .map(lambda rows: (c, rows))))
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

def reference_lemma_constants(A, K, gamma):
    """(k1, k2, k3, skipped) by the entrywise loops the row scans replace."""
    n, k = K.n, K.k
    absA = np.abs(A.entries)
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
            csum = np.concatenate([[0.0], np.cumsum(row)])
            for ell in range(i + k, n - 1):
                s = csum[min(n, ell + k - 1)] - csum[max(0, ell - (k - 1))]
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


def reference_chained_decay(A, K, gamma):
    k1, k2, k3, _ = reference_lemma_constants(A, K, gamma)
    n, k = K.n, K.k
    h = np.asarray(K.h)
    absA = np.abs(A.entries)
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


def assert_scans_match_references(A, K, gamma):
    con = lemma_constants(A, K, gamma)
    assert (con.k1, con.k2, con.k3, con.skipped) == \
        reference_lemma_constants(A, K, gamma)
    assert chained_decay_check(A, K, gamma) == reference_chained_decay(A, K, gamma)
    return con


@PROPS
@given(knot_sequences(max_intervals=24), st.floats(0.3, 0.95))
def test_certification_scans_equal_loop_references(K, gamma):
    gaps = joint_gap_profile(K)
    for d in range(K.n):
        assert gaps[d].tolist() == [K.largest_gap(i, i + d) for i in range(K.n - d)]
    assert stability_constant(K, trials=8, seed=K.n).d_hat == \
        reference_stability(K, 8, K.n)
    assume(K.n >= 3 * K.k)
    assert_scans_match_references(invert_gram(assemble_gram(K)), K, gamma)


@PROPS
@given(knot_sequences(max_intervals=24), st.floats(0.3, 0.95),
       st.integers(0, 2**32 - 1))
def test_scans_equal_references_on_sparse_rows(K, gamma, seed):
    # rows with zero runs: k3 windows that are exactly zero, k2 windows with
    # zero sums, and entries under the zero floor
    assume(K.n >= 3 * K.k)
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal((K.n, K.n)) * (rng.random((K.n, K.n)) < 0.3)
    entries[rng.random((K.n, K.n)) < 0.05] = 1e-301
    np.fill_diagonal(entries, 1.0)
    assert_scans_match_references(InverseGram(entries, 0.0, 0.0), K, gamma)


def test_k3_skips_zero_windows():
    # k = 3: entry (i, i+3) follows the zero window (i, i+1), (i, i+2)
    K = make_knot_sequence(np.linspace(0.0, 1.0, 8), [1] * 6, 3)
    entries = np.eye(K.n)
    for i in (0, 4):
        entries[i, i + 3] = 0.5
    con = assert_scans_match_references(InverseGram(entries, 0.0, 0.0), K, 0.5)
    assert con.skipped == ((0, 3), (4, 7))
