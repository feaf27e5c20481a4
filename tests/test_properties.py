"""Property tests on generated knot sequences for the shared vectorized paths."""

import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from splineproj import (
    assemble_gram,
    invert_gram,
    kernel_constant_integral,
    make_knot_sequence,
)
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
