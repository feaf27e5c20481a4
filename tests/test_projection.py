import numpy as np
import pytest

from splineproj import (
    PartitionSpec,
    QuadratureNonConvergence,
    TestFunction,
    assemble_gram,
    dyadic_ladder,
    eval_spline_many,
    generate_partition,
    kernel_constant_integral,
    make_knot_sequence,
    moments,
    parse_function,
    project,
    project_ladder,
    solve_banded,
)
from splineproj.bspline import span_gauss_blocks
from splineproj.projection import galerkin_residual, kernel_values
from splineproj.quadrature import integrate_adaptive

CORPUS = ("x", "x^2", "sin", "cos", "runge", "step:0.5", "absdist:0.3",
          "abspow:0:-0.5")


def test_moments_of_one_are_scaled_supports():
    # integrating each basis function gives kappa_i / k
    for k in (1, 2, 3, 5):
        K = generate_partition(PartitionSpec("random", 9, seed=3), k)
        b, est = moments(K, parse_function("const"))
        assert np.abs(b - K.kappa / k).max() <= 1e-13
        assert est <= 1e-11


def test_moments_of_zero():
    K = make_knot_sequence([0, 0.5, 1], [1], 1)
    zero = TestFunction(lambda x: np.zeros_like(x), name="zero")
    b, _ = moments(K, zero)
    assert np.array_equal(b, [0.0, 0.0])


def test_moments_linear_order_one():
    K = make_knot_sequence([0, 0.5, 1], [1], 1)
    b, _ = moments(K, parse_function("x"))
    assert np.allclose(b, [0.125, 0.375], atol=1e-14)


def test_moments_tolerance_enforced():
    K = generate_partition(PartitionSpec("uniform", 8), 2)
    with pytest.raises(QuadratureNonConvergence):
        moments(K, parse_function("abspow:0:-0.5"), tol=1e-13)


def test_projection_fixes_splines():
    rng = np.random.default_rng(5)
    for k in (1, 2, 3, 4):
        K = generate_partition(PartitionSpec("random", 11, seed=k), k)
        c = rng.standard_normal(K.n)
        f = TestFunction(lambda x, K=K, c=c: eval_spline_many(K, c, x),
                         name="spline")
        pf = project(K, f)
        assert np.abs(pf.coeffs - c).max() <= 1e-9


def test_projection_reproduces_polynomials():
    xs = np.linspace(0, 1, 301)
    for k in (1, 2, 3, 4):
        K = generate_partition(PartitionSpec("geometric", 7, ratio=2.5), k)
        f = parse_function(f"x^{k - 1}")
        pf = project(K, f)
        assert np.abs(pf(xs) - f(xs)).max() <= 1e-9


def test_order_one_projection_is_interval_average():
    K = generate_partition(PartitionSpec("random", 6, seed=8), 1)
    f = parse_function("x^2")
    pf = project(K, f)
    # exact averages of x^2 on each interval
    t = K.t
    avg = (t[1:] ** 3 - t[:-1] ** 3) / (3 * np.diff(t))
    assert np.abs(pf.coeffs - avg).max() <= 1e-10


def test_projection_idempotent():
    K = generate_partition(PartitionSpec("random", 10, seed=2), 3)
    f = parse_function("runge")
    pf = project(K, f)
    f2 = TestFunction(lambda x: pf(x), name="Pf")
    ppf = project(K, f2)
    assert np.abs(ppf.coeffs - pf.coeffs).max() <= 1e-9


def test_projection_linear():
    K = generate_partition(PartitionSpec("uniform", 12), 3)
    fa, fb = parse_function("sin"), parse_function("runge")
    pa, pb = project(K, fa), project(K, fb)
    combo = TestFunction(lambda x: 2.0 * fa(x) - 0.5 * fb(x), name="combo")
    pc = project(K, combo)
    assert np.abs(pc.coeffs - (2.0 * pa.coeffs - 0.5 * pb.coeffs)).max() <= 1e-10


def test_projection_carries_the_gram_matrix_it_solves():
    # pf.gram is the Gram matrix of pf.knots, and the coefficients are its
    # banded solve of the moments, bit for bit
    K = generate_partition(PartitionSpec("random", 30, seed=2), 4)
    for name in ("sin", "step:0.5", "abspow:0:-0.5"):
        f = parse_function(name)
        pf = project(K, f)
        assert np.array_equal(pf.gram.band, assemble_gram(K).band)
        assert np.array_equal(solve_banded(pf.gram, moments(K, f)[0]), pf.coeffs)


def test_project_ladder_projects_each_level():
    # the levels' moments are refined in lockstep, yet each projection is
    # bitwise project's: sin, a jump and a kink off every break, and two
    # singularities on breaks, abspow:0:-0.5 bisecting to depth 40 and
    # doubling the rule order; k = 1..6, and one ladder of double knots
    ladders = [dyadic_ladder(k, range(1, 9)) for k in range(1, 7)]
    ladders.append(dyadic_ladder(3, range(1, 7), interior_multiplicity=2))
    for ladder in ladders:
        for name in ("sin", "step:0.3", "absdist:0.3", "abspow:0:-0.5",
                     "abspow:0.5:-0.3"):
            f = parse_function(name)
            pfs = project_ladder(ladder, f)
            assert [pf.knots for pf in pfs] == ladder
            for K, pf in zip(ladder, pfs):
                expect = project(K, f)
                assert pf.coeffs.tobytes() == expect.coeffs.tobytes()
                assert pf.rhs_error == expect.rhs_error


def test_project_ladder_rejects_an_empty_ladder():
    with pytest.raises(ValueError, match="empty ladder"):
        project_ladder([], parse_function("sin"))


def test_galerkin_orthogonality_full_corpus():
    for k in (1, 2, 3):
        K = generate_partition(PartitionSpec("random", 16, seed=k + 10), k)
        for name in CORPUS:
            f = parse_function(name)
            pf = project(K, f)
            resid = np.abs(galerkin_residual(pf, f)).max()
            l1, _ = integrate_adaptive(lambda u: np.abs(f(u)), 0, 1,
                                       markers=f.markers, tol=1e-9)
            assert resid <= 1e-8 * l1, (k, name, resid)


def test_kernel_order_one_closed_form():
    K = generate_partition(PartitionSpec("random", 7, seed=4), 1)
    G0 = assemble_gram(K)
    t = K.t
    mids = 0.5 * (t[:-1] + t[1:])
    for i, x in enumerate(mids):
        for j, y in enumerate(mids):
            expect = 1.0 / (t[i + 1] - t[i]) if i == j else 0.0
            assert kernel_values(G0, K, x, y)[0, 0] == pytest.approx(expect, abs=1e-12)


def test_kernel_symmetry():
    K = generate_partition(PartitionSpec("random", 12, seed=6), 3)
    G0 = assemble_gram(K)
    rng = np.random.default_rng(0)
    xs, ys = rng.uniform(0, 1, 50), rng.uniform(0, 1, 50)
    v1 = kernel_values(G0, K, xs, ys)
    v2 = kernel_values(G0, K, ys, xs)
    assert np.abs(v1 - v2.T).max() <= 1e-10 * max(1.0, np.abs(v1).max())


def test_kernel_constant_integral():
    rng = np.random.default_rng(1)
    K = generate_partition(PartitionSpec("random", 20, seed=7), 3)
    G0 = assemble_gram(K)
    xs = rng.uniform(0, 1, 100)
    ints = kernel_constant_integral(G0, K, xs)
    assert ints.shape == (100,)
    assert np.abs(ints - 1.0).max() <= 1e-9
    # one table for all points: bitwise the per-point sums it replaced
    ys, w, _ = span_gauss_blocks(K)
    loop = [np.sum(w * kernel_values(G0, K, x, ys.ravel()).reshape(ys.shape)) for x in xs]
    assert np.array_equal(ints, loop)
    # uniform hat case at the midpoint
    K = generate_partition(PartitionSpec("uniform", 16), 2)
    G0 = assemble_gram(K)
    assert abs(kernel_constant_integral(G0, K, [0.5])[0] - 1.0) <= 1e-11
    # order one: the kernel is the exact averaging kernel, integral 1
    K = generate_partition(PartitionSpec("random", 9, seed=2), 1)
    G0 = assemble_gram(K)
    ints = kernel_constant_integral(G0, K, [0.0, 0.1, 0.5, 0.99, 1.0])
    assert np.abs(ints - 1.0).max() <= 1e-12


def test_kernel_reproduces_projection():
    K = generate_partition(PartitionSpec("random", 9, seed=12), 2)
    G0 = assemble_gram(K)
    f = parse_function("runge")
    pf = project(K, f)
    rng = np.random.default_rng(3)
    for x in rng.uniform(0, 1, 50):
        via_kernel, _ = integrate_adaptive(
            lambda y: kernel_values(G0, K, x, y)[0] * f(y),
            0, 1, markers=K.t, tol=1e-11)
        assert via_kernel == pytest.approx(float(pf([x])[0]), abs=1e-9)


def test_moments_match_quadpack_oracle():
    from scipy.integrate import quad

    cases = [
        ("runge", 3, PartitionSpec("random", 9, seed=5)),
        ("step:0.5", 2, PartitionSpec("random", 7, seed=8)),
        ("abspow:0:-0.5", 2, PartitionSpec("uniform", 6)),
    ]
    for name, k, spec in cases:
        K = generate_partition(spec, k)
        f = parse_function(name)
        b, est = moments(K, f)
        # the estimate tracks the truth to a few percent on slowly
        # converging singular tails; it is not a rigorous bound
        budget = 1.1 * max(est, 1e-12) + 1e-11
        for j in range(K.n):
            e = np.zeros(K.n)
            e[j] = 1.0
            lo, hi = K.t[j], K.t[j + K.k]
            pts = sorted(set(
                [float(t) for t in K.t if lo < t < hi]
                + [m for m in f.markers if lo < m < hi]))
            ref, _ = quad(
                lambda x: float(f(np.array([x]))[0]
                                * eval_spline_many(K, e, np.array([x]))[0]),
                lo, hi, points=pts, limit=200, epsabs=1e-13)
            assert abs(b[j] - ref) <= budget, (name, j)


def test_rhs_error_reported():
    K = generate_partition(PartitionSpec("uniform", 8), 2)
    f = parse_function("abspow:0:-0.5")
    pf = project(K, f)
    assert 0 < pf.rhs_error <= 5e-9


def test_projection_reproduces_step_with_full_multiplicity_knot():
    # a knot of multiplicity k at the jump admits the discontinuity, so the
    # step lies in the spline space and projects to itself
    K = make_knot_sequence([0.0, 0.5, 1.0], [2], 2)
    f = parse_function("step:0.5")
    pf = project(K, f)
    xs = np.concatenate([np.linspace(0, 0.499, 40), np.linspace(0.5, 1, 40)])
    assert np.abs(pf(xs) - f(xs)).max() <= 1e-10


def test_projection_on_nonunit_interval():
    K = generate_partition(PartitionSpec("random", 10, seed=1), 3, (-1.0, 3.0))
    f = parse_function("sin")
    pf = project(K, f)
    resid = np.abs(galerkin_residual(pf, f)).max()
    l1, _ = integrate_adaptive(lambda u: np.abs(f(u)), -1.0, 3.0, tol=1e-10)
    assert resid <= 1e-8 * l1
    # polynomial reproduction holds off the unit interval too
    g = parse_function("x^2")
    xs = np.linspace(-1, 3, 101)
    assert np.abs(project(K, g)(xs) - g(xs)).max() <= 1e-9
