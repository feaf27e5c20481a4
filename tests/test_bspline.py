import numpy as np
from math import comb
import pytest
from scipy.interpolate import BSpline as SciPyBSpline

from splineproj import (
    LengthMismatch,
    OutOfDomain,
    PartitionSpec,
    eval_basis_many,
    eval_spline_many,
    generate_partition,
    make_knot_sequence,
)
from splineproj.quadrature import integrate_adaptive


def cases(orders=(1, 2, 3, 4, 5, 6), seed=0):
    out = []
    for k in orders:
        out.append(generate_partition(PartitionSpec("uniform", 9), k))
        out.append(generate_partition(PartitionSpec("geometric", 8, ratio=4.0), k))
        out.append(generate_partition(PartitionSpec("random", 10, seed=seed), k))
        if k >= 2:
            out.append(generate_partition(
                PartitionSpec("random", 6, seed=seed + 1,
                              interior_multiplicity=k - 1), k))
    return out


def test_indicator_basis():
    K = make_knot_sequence([0, 0.5, 1], [1], 1)
    first, vals = eval_basis_many(K, [0.25, 0.75])
    assert first[0] == 0
    assert np.array_equal(vals[0], [1.0])
    assert first[1] == 1


def test_hat_functions():
    K = make_knot_sequence([0, 1], [], 2)
    first, vals = eval_basis_many(K, 0.25)
    assert first[0] == 0
    assert np.allclose(vals[0], [0.75, 0.25], atol=1e-15)


def test_out_of_domain():
    K = make_knot_sequence([0, 1], [], 2)
    with pytest.raises(OutOfDomain):
        eval_basis_many(K, 1.2)
    with pytest.raises(OutOfDomain):
        eval_spline_many(K, [1.0, 1.0], -0.1)


def test_partition_of_unity():
    rng = np.random.default_rng(7)
    for K in cases():
        xs = rng.uniform(K.a, K.b, 1000)
        _, vals = eval_basis_many(K, xs)
        assert np.abs(vals.sum(axis=1) - 1.0).max() <= 1e-13


def test_partition_of_unity_high_order():
    rng = np.random.default_rng(8)
    for k in (8, 10):
        K = generate_partition(PartitionSpec("random", 20, seed=k), k)
        xs = rng.uniform(0, 1, 500)
        _, vals = eval_basis_many(K, xs)
        assert np.abs(vals.sum(axis=1) - 1.0).max() <= 1e-13
        assert vals.min() >= -1e-15


def test_endpoint_values():
    for K in cases():
        first, vals = eval_basis_many(K, [K.a, K.b])
        assert vals[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert first[1] + K.k - 1 == K.n - 1
        assert vals[1, -1] == pytest.approx(1.0, abs=1e-15)


def test_nonnegativity_and_local_support():
    for K in cases((2, 3, 4)):
        spans = K.spans
        mids = 0.5 * (K.t[spans] + K.t[spans + 1])
        first, vals = eval_basis_many(K, mids)
        assert vals.min() >= -1e-15
        # functions outside the returned block vanish at the midpoint: the
        # block contains exactly those i with t_i <= x < t_{i+k}
        for p, s in enumerate(spans):
            for i in range(K.n):
                inside = K.t[i] <= mids[p] < K.t[i + K.k]
                in_block = first[p] <= i < first[p] + K.k
                assert inside == in_block


def test_against_scipy_bspline():
    rng = np.random.default_rng(11)
    for K in cases((1, 2, 3, 4, 5)):
        c = rng.standard_normal(K.n)
        ours = eval_spline_many(K, c, rng.uniform(K.a, K.b, 200))
        ref = SciPyBSpline(K.t, c, K.k - 1, extrapolate=False)
        xs = rng.uniform(K.a, K.b, 200)
        assert np.allclose(eval_spline_many(K, c, xs), ref(xs),
                           rtol=1e-12, atol=1e-12)


def test_sum_of_basis_is_one_and_zero_coeffs():
    for K in cases((1, 3, 5)):
        xs = np.linspace(K.a, K.b, 101)
        assert np.allclose(eval_spline_many(K, np.ones(K.n), xs), 1.0, atol=1e-13)
        assert np.all(eval_spline_many(K, np.zeros(K.n), xs) == 0.0)


def test_greville_linear_reproduction():
    K = generate_partition(PartitionSpec("random", 9, seed=2), 2)
    greville = K.t[1:-1]  # order 2: averages of one interior knot each
    xs = np.linspace(0, 1, 57)
    assert np.allclose(eval_spline_many(K, greville, xs), xs, atol=1e-14)


def test_coefficient_length_checked():
    K = make_knot_sequence([0, 1], [], 2)
    with pytest.raises(LengthMismatch):
        eval_spline_many(K, [1.0], 0.5)


def test_l1_factors():
    K = make_knot_sequence([0, 0.5, 1], [1], 1)
    assert np.allclose(K.kappa, [0.5, 0.5])
    assert np.allclose(K.k / K.kappa, [2.0, 2.0])

    K = make_knot_sequence([0, 1], [], 2)
    assert np.allclose(K.kappa, [1.0, 1.0])


def test_l1_normalized_bumps_have_unit_mass():
    for K in cases((1, 2, 4, 6)):
        factors = K.k / K.kappa
        assert np.all(K.kappa > 0)
        for i in range(K.n):
            e = np.zeros(K.n)
            e[i] = factors[i]
            lo, hi = K.t[i], K.t[i + K.k]
            val, _ = integrate_adaptive(
                lambda x: eval_spline_many(K, e, x), lo, hi,
                markers=K.t, tol=1e-13)
            assert val == pytest.approx(1.0, abs=1e-12)


def one_sided_derivatives(K, c, x, order, side, h=1e-6):
    """Finite-difference derivative of given order from one side."""
    signs = np.array([(-1.0) ** r * comb(order, r)
                      for r in range(order + 1)])
    if side > 0:
        # forward difference: sum_r (-1)^(order-r) C(order,r) f(x + r h)
        pts = x + h * np.arange(order + 1)
        return float(signs[::-1] @ eval_spline_many(K, c, pts)) / h ** order
    # backward difference: sum_r (-1)^r C(order,r) f(x - r h)
    pts = x - h * np.arange(order + 1)
    return float(signs @ eval_spline_many(K, c, pts)) / h ** order


def test_continuity_class_at_interior_knot():
    # an interior knot of multiplicity m leaves k-1-m continuous derivatives
    for k in (2, 3, 4):
        for m in range(1, k):
            K = make_knot_sequence([0.0, 0.5, 1.0], [m], k)
            rng = np.random.default_rng(k * 10 + m)
            c = rng.standard_normal(K.n)
            smooth = k - 1 - m
            for order in range(smooth + 1):
                left = one_sided_derivatives(K, c, 0.5, order, -1)
                right = one_sided_derivatives(K, c, 0.5, order, +1)
                scale = max(1.0, abs(left), abs(right))
                assert abs(left - right) / scale < 1e-3 * 10 ** order
            # derivative of order smooth+1 jumps
            order = smooth + 1
            left = one_sided_derivatives(K, c, 0.5, order, -1)
            right = one_sided_derivatives(K, c, 0.5, order, +1)
            assert abs(left - right) > 1e-4 * max(1.0, abs(left), abs(right))


def reference_blocks_at_spans(K, x, spans):
    """The basis recurrence on ``(m, k)`` columns, one temporary per step:
    the layout ``_blocks_at_spans`` had before it moved to ``(k, m)`` rows
    written by ``out=``, with the same operations in the same order."""
    t, k = K.t, K.k
    m = x.shape[0]
    vals = np.zeros((m, k))
    vals[:, 0] = 1.0
    left = np.empty((m, k))
    right = np.empty((m, k))
    for j in range(1, k):
        left[:, j] = x - t[spans + 1 - j]
        right[:, j] = t[spans + j] - x
        saved = np.zeros(m)
        for r in range(j):
            tmp = vals[:, r] / (right[:, r + 1] + left[:, j - r])
            vals[:, r] = saved + right[:, r + 1] * tmp
            saved = left[:, j - r] * tmp
        vals[:, j] = saved
    return vals


@pytest.mark.parametrize("k", range(1, 11))
def test_blocks_equal_reference_recurrence(k):
    # random knots with interior multiplicities up to k (full ones among
    # them), at random points, every break and both ends: bitwise equal
    from splineproj.bspline import _blocks_at_spans

    rng = np.random.default_rng(k)
    for mults in (rng.integers(1, k + 1, 30), np.full(30, k)):
        breaks = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, 31))])
        K = make_knot_sequence(breaks / breaks[-1], mults, k)
        x = np.concatenate([rng.uniform(K.a, K.b, 500), np.unique(K.t)])
        spans = K.span_indices(x)
        got = _blocks_at_spans(K.t, K.k, x, spans)
        assert got.shape == (x.size, k) and got.flags["C_CONTIGUOUS"]
        assert got.tobytes() == reference_blocks_at_spans(K, x, spans).tobytes()
