from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest

from splineproj import analysis, gram, projection
from splineproj import (
    GramMatrix,
    NotPositiveDefinite,
    PartitionSpec,
    RefinementFailure,
    assemble_gram,
    eval_basis_many,
    generate_partition,
    invert_gram,
    make_knot_sequence,
    scaled_gram,
    solve_banded,
)


def reference_gram(K, subdivisions=50, g=10):
    """Composite Gauss reference: independent of the assembly path."""
    n = K.n
    dense = np.zeros((n, n))
    nodes, weights = np.polynomial.legendre.leggauss(g)
    for s in K.spans:
        lo, hi = K.t[s], K.t[s + 1]
        edges = np.linspace(lo, hi, subdivisions + 1)
        for e0, e1 in zip(edges[:-1], edges[1:]):
            half = 0.5 * (e1 - e0)
            xs = e0 + half * (nodes + 1.0)
            first, vals = eval_basis_many(K, xs)
            for p in range(xs.size):
                f = first[p]
                blk = vals[p]
                dense[f:f + K.k, f:f + K.k] += (half * weights[p]) * np.outer(blk, blk)
    return dense


def dense_inverse(G):
    """The whole inverse as one banded solve against the identity: bitwise
    the columns ``solve_banded`` returns for any set of identity columns."""
    return gram._cho_solve(G.factor(), np.eye(G.n))


def streamed_inverse(G):
    """The rows ``gram.inverse_rows`` streams, as one n x n matrix: the upper
    triangle, the k - 1 mirrored entries left of the diagonal, and zeros
    further left."""
    A = np.zeros((G.n, G.n))
    for j, rows, _ in gram.inverse_rows(G):
        A[j: j + rows.shape[0]] = rows
    return A


@contextmanager
def serve_inverse(A):
    """Every consumer of the inverse gets the matrix ``A``, with residual 0,
    whatever Gram matrix it was given: the kernel's ``solve_banded``, whose
    right-hand side must be identity columns, serves those columns of ``A``,
    ``inverse_rows`` its rows as the stream lays them out (bottom-up blocks
    of 32, zero left of the k - 1 entries left of the diagonal)."""
    def columns(G0, rhs):
        cols = rhs.argmax(axis=0)
        assert np.array_equal(rhs, np.eye(G0.n)[:, cols])
        return A[:, cols]

    def rows(G0):
        banded = np.triu(A, 1 - G0.order)
        for j in range(32 * ((G0.n - 1) // 32), -1, -32):
            yield j, banded[j: j + 32], 0.0
    with patch.object(analysis, "inverse_rows", rows), \
            patch.object(projection, "solve_banded", columns):
        yield


def small_cases():
    return [
        generate_partition(PartitionSpec("uniform", 6), 1),
        generate_partition(PartitionSpec("uniform", 8), 2),
        generate_partition(PartitionSpec("geometric", 6, ratio=3.0), 3),
        generate_partition(PartitionSpec("random", 7, seed=1), 4),
        generate_partition(PartitionSpec("random", 5, seed=2,
                                         interior_multiplicity=2), 3),
    ]


def test_order_one_diagonal():
    K = make_knot_sequence([0, 0.5, 1], [1], 1)
    G = assemble_gram(K)
    assert np.allclose(G.to_dense(), np.diag([0.5, 0.5]), atol=1e-15)


def test_hat_gram_closed_form():
    K = make_knot_sequence([0, 1], [], 2)
    G = assemble_gram(K)
    expect = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
    assert np.abs(G.to_dense() - expect).max() <= 1e-14


def test_uniform_hat_interior_rows():
    K = generate_partition(PartitionSpec("uniform", 10), 2)
    h = 0.1
    G = assemble_gram(K)
    for i in range(2, K.n - 2):
        assert G.entry(i, i) == pytest.approx(2 * h / 3, abs=1e-14)
        assert G.entry(i, i + 1) == pytest.approx(h / 6, abs=1e-14)


def test_assembly_matches_composite_reference():
    for K in small_cases():
        G = assemble_gram(K)
        ref = reference_gram(K)
        assert np.abs(G.to_dense() - ref).max() <= 1e-12


def test_band_structure_and_positivity():
    for K in small_cases():
        G = assemble_gram(K)
        dense = G.to_dense()
        assert np.array_equal(dense, dense.T)
        n, k = K.n, K.k
        for i in range(n):
            assert dense[i, i] > 0
            for j in range(n):
                if abs(i - j) >= k:
                    assert dense[i, j] == 0.0
        G.factor()  # positive definite: factorization succeeds


def test_scaled_gram_row_sums():
    for K in small_cases():
        G = scaled_gram(assemble_gram(K), K)
        assert np.abs(G.sum(axis=1) - 1.0).max() <= 1e-13


def test_scaled_gram_order_one_identity():
    K = make_knot_sequence([0, 0.25, 1], [1], 1)
    G = scaled_gram(assemble_gram(K), K)
    assert np.allclose(G, np.eye(2), atol=1e-15)


def test_scaled_gram_hat_example():
    K = make_knot_sequence([0, 1], [], 2)
    G = scaled_gram(assemble_gram(K), K)
    assert np.allclose(G, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-14)


def test_solve_consistency():
    K = generate_partition(PartitionSpec("random", 20, seed=4), 3)
    G = assemble_gram(K)
    e1 = np.zeros(K.n)
    e1[0] = 1.0
    rhs = G.matvec(e1)
    assert np.abs(solve_banded(G, rhs) - e1).max() <= 1e-10
    # row sums solve to the all-ones vector
    ones = solve_banded(G, G.matvec(np.ones(K.n)))
    assert np.abs(ones - 1.0).max() <= 1e-10


def test_solve_hat_first_column():
    K = make_knot_sequence([0, 1], [], 2)
    G = assemble_gram(K)
    c = solve_banded(G, np.array([1 / 3, 1 / 6]))
    assert np.allclose(c, [1.0, 0.0], atol=1e-12)


def test_solve_integer_columns_equal_float_columns(monkeypatch):
    # kernel_from_basis solves against boolean identity columns: the
    # solution and the residual the gate reads are bitwise those of the same
    # columns as floats, and of integer ones
    K = generate_partition(PartitionSpec("random", 120, seed=2), 3)
    G = assemble_gram(K)
    cols = np.equal.outer(np.arange(K.n), [0, 5, 60, K.n - 1])
    residuals = []
    real = gram._gate

    def spy(R, target, what, where=""):
        residuals.append((R.tobytes(), target))
        return real(R, target, what, where)
    monkeypatch.setattr(gram, "_gate", spy)
    solved = [solve_banded(G, rhs).tobytes()
              for rhs in (cols, cols.astype(float), cols.astype(np.int64))]
    assert solved[0] == solved[1] == solved[2]
    assert residuals[0] == residuals[1] == residuals[2]


def test_solve_rejects_bad_rhs_length():
    K = make_knot_sequence([0, 1], [], 2)
    from splineproj import LengthMismatch
    with pytest.raises(LengthMismatch):
        solve_banded(assemble_gram(K), np.ones(3))


def test_not_positive_definite_detected():
    band = np.array([[1.0, 0.6], [-1.0, 0.0]])  # indefinite by construction
    G = GramMatrix(band)
    with pytest.raises(NotPositiveDefinite):
        G.factor()


def test_corrupted_inverse_fails_loudly(monkeypatch):
    # every block of the row stream comes back with one entry of its first
    # row scaled by 1.5: the block residual against the true band shows
    # it, and the inverse is refused rather than returned
    import splineproj.gram as gram_mod

    K = generate_partition(PartitionSpec("uniform", 10), 2)
    G = assemble_gram(K)
    real = gram_mod._row_block

    def skewed(rows, urow, c, stop):
        real(rows, urow, c, stop)
        rows[0, stop - 1] *= 1.5  # corrupt one entry of the block's first row

    monkeypatch.setattr(gram_mod, "_row_block", skewed)
    with pytest.raises(RefinementFailure, match="inverse residual"):
        invert_gram(G)


def inexact_gram(K, eps):
    """The Gram matrix of ``K`` with a cached factor whose diagonal is scaled
    by ``1 + eps``."""
    G = assemble_gram(K)
    fac = G.factor().copy()
    fac[:, 0] *= 1 + eps
    return GramMatrix(G.band, fac)


@pytest.mark.parametrize("eps", [1e-7, 1e-4, 3e-2])
def test_inexact_factor_fails_every_inverse(eps):
    # a cached factor with its diagonal scaled by 1 + eps makes every block
    # of the row stream and every solved identity column inexact: nothing is
    # refined, so each is a numerical failure rather than an inverse returned
    inexact = inexact_gram(generate_partition(PartitionSpec("random", 60, seed=4), 3), eps)
    with pytest.raises(RefinementFailure, match=r"inverse residual .* in rows \d+\.\.\d+$"):
        invert_gram(inexact)
    with pytest.raises(RefinementFailure, match="solve residual .* above 1e-10$"):
        solve_banded(inexact, np.eye(inexact.n))


@pytest.mark.parametrize("eps", [1e-7, 1e-4, 3e-2])
def test_inexact_factor_fails_the_solve(eps):
    # the same inexact factor under solve_banded: one pass leaves a residual
    # above 1e-10 max |rhs|, which is never returned as a solution
    K = generate_partition(PartitionSpec("random", 60, seed=4), 3)
    rhs = np.random.default_rng(1).standard_normal(K.n)
    with pytest.raises(RefinementFailure, match="solve residual .* above "):
        solve_banded(inexact_gram(K, eps), rhs)


def test_invert_order_one():
    K = make_knot_sequence([0, 0.5, 1], [1], 1)
    A = invert_gram(assemble_gram(K))
    assert np.allclose(A.entries, np.diag([2.0, 2.0]), atol=1e-14)


def test_invert_hat_example():
    K = make_knot_sequence([0, 1], [], 2)
    A = invert_gram(assemble_gram(K))
    assert np.abs(A.entries - np.array([[4.0, -2.0], [-2.0, 4.0]])).max() <= 1e-12
    assert A.residual <= 1e-9


def test_inverse_matches_dense_oracle():
    for K in small_cases():
        A = invert_gram(assemble_gram(K))
        ref = np.linalg.inv(reference_gram(K))
        scale = np.abs(ref).max()
        assert np.abs(A.entries - ref).max() <= 1e-9 * scale


def test_inverse_quality_certificates():
    for seed in (0, 1):
        K = generate_partition(PartitionSpec("random", 60, seed=seed), 4)
        A = invert_gram(assemble_gram(K))
        assert A.residual <= 1e-9
        assert np.array_equal(A.entries, A.entries.T)


def test_dual_basis_biorthogonality_by_quadrature():
    K = generate_partition(PartitionSpec("random", 25, seed=9), 3)
    A = invert_gram(assemble_gram(K))
    n, k = K.n, K.k
    nodes, weights = np.polynomial.legendre.leggauss(k)
    inner = np.zeros((n, n))
    for s in K.spans:
        half = 0.5 * (K.t[s + 1] - K.t[s])
        xs = K.t[s] + half * (nodes + 1.0)
        first, vals = eval_basis_many(K, xs)
        for p in range(xs.size):
            f0 = first[p]
            duals = A.entries[:, f0:f0 + k] @ vals[p]  # all N_i* at this node
            inner[:, f0:f0 + k] += np.outer(duals * (half * weights[p]), vals[p])
    assert np.abs(inner - np.eye(n)).max() <= 1e-9
