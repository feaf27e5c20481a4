import numpy as np
import pytest

from splineproj import (
    OutOfDomain,
    PartitionSpec,
    QuadratureNonConvergence,
    TestFunction,
    assemble_gram,
    convergence_report,
    decay_report,
    domination_report,
    dyadic_ladder,
    generate_partition,
    invert_gram,
    kernel_bound_report,
    lemma_constants,
    make_knot_sequence,
    modulus_of_smoothness,
    parse_function,
    stability_constant,
    weak_type_report,
)
from splineproj.analysis import _maximal_on_points, row_gaps
from test_gram import dense_inverse, streamed_inverse


def gram_for(spec, k):
    K = generate_partition(spec, k)
    return assemble_gram(K), K


# -- decay ------------------------------------------------------------------

def largest_gap(K, i, c):
    """Largest knot interval inside the joint support ``[t_i, t_c+k]`` of
    the basis functions i <= c, by a slice of the interval widths."""
    return float(K.h[i: c + K.k].max())


def test_row_gaps_match_largest_gap():
    K = generate_partition(PartitionSpec("random", 17, seed=0), 3)
    for j, e, width in [(0, K.n, K.n), (0, 1, K.n), (0, 1, 1), (5, 4, K.n - 5),
                        (5, 4, 4), (5, 4, 9), (K.n - 3, 3, 3)]:
        gaps = row_gaps(K, j, e, width)
        assert gaps.shape == (e, width)
        for i in range(j, j + e):
            assert not gaps[i - j, : i - j].any()
            for c in range(i, j + width):
                assert gaps[i - j, c - j] == largest_gap(K, i, c)


def test_decay_order_one_diagonal():
    G0, K = gram_for(PartitionSpec("random", 20, seed=1), 1)
    rep = decay_report(G0, K)
    assert rep.diagonal
    assert np.all(rep.profile_scaled[1:] == 0.0)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_decay_block_diagonal_full_multiplicity(k):
    # every interior knot of multiplicity k: k x k diagonal blocks
    K = make_knot_sequence(np.linspace(0.0, 1.0, 31), [k] * 29, k)
    rep = decay_report(assemble_gram(K), K)
    assert rep.diagonal and not rep.fitted
    assert rep.profile_scaled[k - 1] > 0.0
    assert np.all(rep.profile_scaled[k:] == 0.0)


def test_decay_uniform_hat_rate_matches_toeplitz_oracle():
    # oracle: numpy inversion of the explicitly-built tridiagonal Toeplitz
    n, h = 400, 1.0 / 399
    T = np.diag(np.full(n, 2 * h / 3)) + np.diag(np.full(n - 1, h / 6), 1) \
        + np.diag(np.full(n - 1, h / 6), -1)
    T[0, 0] = T[-1, -1] = h / 3
    Tinv = np.linalg.inv(T)
    oracle_ratio = abs(Tinv[200, 211] / Tinv[200, 210])

    G0, K = gram_for(PartitionSpec("uniform", 399), 2)
    A = dense_inverse(G0)
    measured = abs(A[200, 211] / A[200, 210])
    assert measured == pytest.approx(oracle_ratio, rel=1e-9)
    assert measured == pytest.approx(2 - np.sqrt(3), rel=1e-10)

    rep = decay_report(G0, K)
    assert rep.fitted
    assert abs(rep.gamma - (2 - np.sqrt(3))) / (2 - np.sqrt(3)) < 0.01


def test_decay_geometric_bound_holds_entrywise():
    G0, K = gram_for(PartitionSpec("geometric", 99, ratio=4.0), 2)
    rep = decay_report(G0, K)
    assert rep.fitted and rep.gamma < 1
    gaps = row_gaps(K, 0, K.n, K.n)
    A = dense_inverse(G0)
    for d in range(K.n):
        bound = rep.big_k * rep.gamma_cert ** d
        vals = np.abs(np.diagonal(A, offset=d)) * np.diagonal(gaps, d)
        assert np.all(vals <= bound * (1 + 1e-9))
    assert rep.residual_factor <= 1 + 1e-9


def test_decay_scaled_inverse_profile_bounded():
    G0, K = gram_for(PartitionSpec("geometric", 99, ratio=4.0), 2)
    rep = decay_report(G0, K)
    b = np.abs(dense_inverse(G0) * (K.kappa / K.k)[None, :])
    for d in range(K.n):
        bound = rep.k0 * rep.gamma_cert ** d * (1 + 1e-9)
        assert np.all(np.diagonal(b, offset=d) <= bound)
        assert np.all(np.diagonal(b, offset=-d) <= bound)


def test_decay_profile_only_when_too_small():
    G0, K = gram_for(PartitionSpec("uniform", 4), 3)  # n = 6 < 9
    rep = decay_report(G0, K)
    assert not rep.fitted
    assert rep.gamma is None
    assert rep.profile_scaled.size == K.n


def test_scaled_inverse_consistency():
    # b entries via dense inversion of the rescaled Gram matrix
    from splineproj import scaled_gram
    G0, K = gram_for(PartitionSpec("random", 40, seed=3), 3)
    b_direct = np.linalg.inv(scaled_gram(G0, K))
    b_scaled = invert_gram(G0).entries * (K.kappa / K.k)[None, :]
    scale = np.abs(b_direct).max()
    assert np.abs(b_direct - b_scaled).max() <= 1e-10 * scale


# -- kernel bound -----------------------------------------------------------

def test_kernel_bound_order_one_unit_constant():
    G0, K = gram_for(PartitionSpec("random", 12, seed=2), 1)
    rep = kernel_bound_report(G0, K, samples_per_cell=3)
    assert rep.c_hat == pytest.approx(1.0, rel=1e-10)
    assert 0 < rep.theta_hat < 1


def test_kernel_bound_corner_decay():
    G0, K = gram_for(PartitionSpec("uniform", 63), 2)
    rep = kernel_bound_report(G0, K, samples_per_cell=2)
    # the fitted bound at the far corner is an instance of the sampled max
    from splineproj.projection import kernel_values
    x, y = 1e-3, 1.0 - 1e-3
    val = abs(kernel_values(G0, K, x, y)[0, 0])
    sx, sy = K.span_indices([x, y])
    hull = K.t[max(sx, sy) + 1] - K.t[min(sx, sy)]
    assert val <= rep.c_hat * rep.theta_hat ** abs(sx - sy) / hull


def test_kernel_bound_fallback_theta_grid(monkeypatch):
    # a fitted rate above the last point 0.95 of the 0.05 grid leaves no
    # theta in it: the report falls back to four points from halfway
    # between gamma and 1 up to 0.99
    import dataclasses

    import splineproj.analysis as analysis

    real = analysis.decay_report
    monkeypatch.setattr(analysis, "decay_report",
                        lambda G0, K: dataclasses.replace(real(G0, K), gamma=0.97))
    G0, K = gram_for(PartitionSpec("random", 60, seed=3), 3)
    rep = kernel_bound_report(G0, K, samples_per_cell=3)
    assert rep.gamma == 0.97
    assert np.array_equal(rep.theta_grid, np.linspace(0.985, 0.99, 4))
    assert np.all(np.isfinite(rep.c_of_theta))
    assert np.all(np.diff(rep.c_of_theta) <= 0)
    assert rep.theta_hat in rep.theta_grid


def test_kernel_bound_rejects_single_sample():
    G0, K = gram_for(PartitionSpec("uniform", 8), 2)
    with pytest.raises(ValueError):
        kernel_bound_report(G0, K, samples_per_cell=1)


# -- structural constants ---------------------------------------------------

def test_lemma_constants_finite_and_stable():
    vals = {}
    for n in (50, 200):
        G0, K = gram_for(PartitionSpec("uniform", n - 1), 2)
        dec = decay_report(G0, K)
        c = lemma_constants(G0, K, max(dec.gamma, 0.5))
        assert np.isfinite(c.k1) and np.isfinite(c.k2) and np.isfinite(c.k3)
        vals[n] = c
    assert vals[200].k1 / vals[50].k1 <= 2.0
    assert vals[200].k3 / vals[50].k3 <= 2.0


def test_lemma_k3_dominates_adjacent_ratio():
    G0, K = gram_for(PartitionSpec("uniform", 49), 3)
    c = lemma_constants(G0, K, 0.5)
    rows = streamed_inverse(G0)  # the rows the scan reads
    i = K.n // 2
    assert c.k3 >= abs(rows[i, i + 1]) / abs(rows[i, i])


def test_chained_bound_cross_validates_decay():
    from test_properties import chained_decay_check
    for k, spec in ((2, PartitionSpec("uniform", 79)),
                    (3, PartitionSpec("random", 60, seed=7)),
                    (4, PartitionSpec("geometric", 50, ratio=3.0))):
        G0, K = gram_for(spec, k)
        dec = decay_report(G0, K)
        worst = chained_decay_check(G0, K, max(dec.gamma_cert, 0.5))
        assert worst <= 1.0 + 1e-9, (k, worst)


def test_lemma_constants_validate_inputs():
    G0, K = gram_for(PartitionSpec("uniform", 30), 2)
    with pytest.raises(ValueError):
        lemma_constants(G0, K, 1.5)
    G2, K2 = gram_for(PartitionSpec("uniform", 3), 2)
    with pytest.raises(ValueError):
        lemma_constants(G2, K2, 0.5)


def test_lemma_constants_order_one_flags():
    # no off-diagonal structure: the window constants are absent
    G0, K = gram_for(PartitionSpec("uniform", 20), 1)
    c = lemma_constants(G0, K, 0.5)
    assert c.k2 is None and c.k3 is None
    assert np.isfinite(c.k1)


# -- maximal function -------------------------------------------------------

def maximal_at(f, x, grid_size):
    return _maximal_on_points(f, np.array([x]), (0.0, 1.0), grid_size)[0]


def test_maximal_constant_function():
    one = parse_function("const")
    for x in (0.0, 0.3, 1.0):
        assert maximal_at(one, x, 64) == pytest.approx(1.0, abs=1e-13)


def indicator_half():
    return TestFunction(lambda x: np.where(x <= 0.5, 1.0, 0.0),
                        name="ind", discontinuities=(0.5,))


def test_maximal_indicator_example():
    f = indicator_half()
    assert maximal_at(f, 0.75, 1024) == pytest.approx(2 / 3, abs=1e-9)


def test_maximal_brute_force_oracle():
    f = indicator_half()
    gs = 64
    grid = np.linspace(0, 1, gs + 1)
    x = 0.75
    grid = np.unique(np.append(grid, x))
    mass = np.minimum(grid, 0.5)  # exact prefix integral of the indicator
    best = 0.0
    for p in range(grid.size):
        for q in range(p + 1, grid.size):
            if grid[p] <= x <= grid[q]:
                best = max(best, (mass[q] - mass[p]) / (grid[q] - grid[p]))
    assert maximal_at(f, x, gs) == pytest.approx(best, abs=1e-12)
    # a jump and a singularity in one cell of 16: the cell is integrated once,
    # cut at both markers, to the singular tolerance
    f = TestFunction(lambda x: np.abs(x) ** -0.5 + np.where(x < 0.01, 0.0, 1.0),
                     name="pow+jump", discontinuities=(0.01,),
                     singularities=((0.0, -0.5),))
    grid = np.linspace(0, 1, 17)
    mass = 2 * np.sqrt(grid) + np.maximum(grid - 0.01, 0.0)
    best = max((mass[q] - mass[p]) / (grid[q] - grid[p])
               for p in range(9) for q in range(8, 17) if p < q)
    assert maximal_at(f, 0.5, 16) == pytest.approx(best, abs=1e-8)


def test_maximal_monotone_under_refinement():
    f = parse_function("runge")
    x = 0.41
    vals = [maximal_at(f, x, g) for g in (64, 128, 256, 512)]
    for v1, v2 in zip(vals, vals[1:]):
        assert v2 >= v1 - 1e-10
    # within 2% of a 10x finer grid on the indicator example
    f = indicator_half()
    coarse = maximal_at(f, 0.75, 256)
    fine = maximal_at(f, 0.75, 2560)
    assert abs(coarse - fine) <= 0.02 * fine


def test_maximal_dominates_function_value():
    f = parse_function("runge")
    for x in (0.1, 0.5, 0.9):
        assert maximal_at(f, x, 2048) >= f(np.array([x]))[0] - 1e-3


def test_maximal_validates_inputs():
    f = parse_function("runge")
    with pytest.raises(ValueError):
        maximal_at(f, 0.5, 8)  # grid too coarse
    with pytest.raises(OutOfDomain):
        maximal_at(f, 1.5, 64)


@pytest.mark.parametrize("bad", [-1e-12, 1.5, np.nan], ids=["below", "above", "nan"])
def test_maximal_points_outside_interval_raise(bad):
    # one point outside [a, b] among points inside rejects the whole call;
    # the ends themselves are inside
    f = parse_function("runge")
    xs = np.array([0.0, 0.4, bad, 1.0])
    with pytest.raises(OutOfDomain, match="outside"):
        _maximal_on_points(f, xs, (0.0, 1.0), 64)
    assert np.all(_maximal_on_points(f, xs[[0, 1, 3]], (0.0, 1.0), 64) > 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_maximal_non_finite_cell_raises(bad):
    # f is not finite on a plain cell near 0.3: a numerical failure, not
    # maximal values that drop the cell (NaN) or turn inf - inf into NaN
    f = TestFunction(lambda x: np.where(np.abs(x - 0.3) < 1e-3, bad, 1.0),
                     name="bad")
    with pytest.raises(QuadratureNonConvergence, match="non-finite"):
        maximal_at(f, 0.8, 1024)


# -- domination and weak type ----------------------------------------------

def test_domination_constant_one_for_constants():
    parts = dyadic_ladder(2, range(2, 5))
    rep = domination_report(parts, parse_function("const"), eval_grid=128,
                            maximal_grid=1024)
    assert rep.c_hat == pytest.approx(1.0, abs=1e-6)


def test_domination_step_function_stable():
    parts = dyadic_ladder(2, range(4, 9))
    rep = domination_report(parts, parse_function("step:0.5"), eval_grid=256,
                            maximal_grid=2048)
    cs = [lv["c_hat"] for lv in rep.levels]
    assert np.isfinite(rep.c_hat)
    assert max(cs) / min(cs) <= 2.0


def test_domination_singular_function_finite():
    parts = dyadic_ladder(3, range(4, 7))
    rep = domination_report(parts, parse_function("abspow:0:-0.5"),
                            eval_grid=128, maximal_grid=1024)
    assert np.isfinite(rep.c_hat)


def test_weak_type_constant_function():
    parts = dyadic_ladder(2, range(1, 4))
    thresholds = np.array([0.5, 0.9, 0.99, 1.5])
    rep = weak_type_report(parts, parse_function("const"),
                           thresholds=thresholds, eval_grid=512,
                           maximal_grid=512)
    # P* = 1 everywhere: t * measure is t for t < 1 and 0 above
    assert rep.p_star_ratios == pytest.approx([0.5, 0.9, 0.99, 0.0], abs=1e-9)
    assert rep.p_star_constant == pytest.approx(0.99, abs=1e-9)


def test_weak_type_maximal_under_five():
    parts = dyadic_ladder(3, range(1, 6))
    for name in ("const", "step:0.5", "sin", "runge", "abspow:0:-0.5"):
        rep = weak_type_report(parts, parse_function(name), eval_grid=2048,
                               maximal_grid=2048)
        assert rep.maximal_constant <= 5.0 * 1.1, name
        assert np.isfinite(rep.p_star_constant)


def test_weak_type_indicator_example():
    parts = dyadic_ladder(2, range(1, 3))
    rep = weak_type_report(parts, indicator_half(), eval_grid=4096,
                           maximal_grid=4096)
    assert rep.maximal_constant <= 5.0 + 0.5


def test_weak_type_rejects_bad_thresholds():
    parts = dyadic_ladder(2, range(1, 3))
    with pytest.raises(ValueError):
        weak_type_report(parts, parse_function("const"),
                         thresholds=[0.0, 1.0], eval_grid=128,
                         maximal_grid=128)


@pytest.mark.parametrize("report, args", [
    (convergence_report, ([0.5],)), (domination_report, ()), (weak_type_report, ())])
def test_reports_reject_an_empty_ladder(report, args):
    # a ValueError that names the ladder, before anything reads its first level
    with pytest.raises(ValueError, match="empty ladder"):
        report([], parse_function("sin"), *args)


# -- convergence ------------------------------------------------------------

def test_convergence_linear_exact():
    for k in (2, 3):
        ladder = dyadic_ladder(k, range(2, 6))
        rep = convergence_report(ladder, parse_function("x"), probes=[0.3])
        for lv in rep.levels:
            assert lv["sup_error"] <= 1e-9
            assert lv["probe_errors"][0] <= 1e-9


def test_convergence_sin_order():
    for k in (1, 2, 3, 4):
        ladder = dyadic_ladder(k, range(2, 9))
        rep = convergence_report(ladder, parse_function("sin"),
                                 probes=[0.23, 0.77])
        assert rep.observed_order >= k - 0.2


def test_convergence_step_probe_decreases():
    ladder = dyadic_ladder(2, range(3, 11))
    rep = convergence_report(ladder, parse_function("step:0.5"), probes=[0.25])
    errs = [lv["probe_errors"][0] for lv in rep.levels]
    assert errs[-1] < 1e-3
    # monotone decrease once the probe is separated from the jump
    assert all(e2 <= e1 * (1 + 1e-9) for e1, e2 in zip(errs[1:], errs[2:]))


def test_convergence_error_tracks_modulus():
    # the sup error of the projection stays a bounded multiple of the
    # k-th modulus of smoothness at the mesh diameter
    for k in (1, 2, 3):
        ladder = dyadic_ladder(k, range(3, 9))
        rep = convergence_report(ladder, parse_function("sin"), probes=[0.23])
        ratios = [lv["sup_error"] / lv["omega_k"] for lv in rep.levels]
        assert max(ratios) <= 1.0
        assert max(ratios) / min(ratios) <= 4.0


def test_convergence_requires_decreasing_mesh():
    ladder = dyadic_ladder(2, [3, 3])
    with pytest.raises(ValueError):
        convergence_report(ladder, parse_function("x"), probes=[0.3])


def test_convergence_requires_one_order():
    # omega_k is taken at one k for the whole ladder
    ladder = dyadic_ladder(2, [3]) + dyadic_ladder(3, [4])
    with pytest.raises(ValueError, match="order"):
        convergence_report(ladder, parse_function("x"), probes=[0.3])


@pytest.mark.parametrize("report", [
    lambda parts, f: domination_report(parts, f, eval_grid=64, maximal_grid=256),
    lambda parts, f: weak_type_report(parts, f, eval_grid=64, maximal_grid=256),
    lambda parts, f: convergence_report(parts, f, probes=[0.3]),
], ids=["domination", "weak_type", "convergence"])
@pytest.mark.parametrize("parts", [
    dyadic_ladder(2, [3]) + dyadic_ladder(3, [4]),
    dyadic_ladder(2, [3]) + dyadic_ladder(2, [5], (0.0, 2.0)),
], ids=["mixed_k", "mixed_interval"])
def test_ladder_reports_require_one_order_and_interval(report, parts):
    # each report projects its ladder through project_ladder, which checks
    # the levels before projecting any; the meshes strictly decrease, so the
    # convergence report's own mesh check passes
    with pytest.raises(ValueError, match="one order k and one interval"):
        report(parts, parse_function("x"))


# -- modulus of smoothness ---------------------------------------------------

def test_modulus_annihilates_low_degree():
    for k in (1, 2, 3):
        f = parse_function(f"x^{k - 1}")
        (got,) = modulus_of_smoothness(f, k, [0.25])
        assert got <= 1e-12


def test_modulus_square_closed_form():
    f = parse_function("x^2")
    for delta in (0.1, 0.3, 0.5):
        expect = delta * (2 - delta)
        (got,) = modulus_of_smoothness(f, 1, [delta], grid=512)
        assert got == pytest.approx(expect, abs=2e-2)
        assert got <= expect + 1e-12  # grid sup never exceeds the true sup


def test_modulus_monotone_in_delta():
    f = parse_function("sin")
    vals = [modulus_of_smoothness(f, 2, [d], grid=128)[0]
            for d in (0.05, 0.1, 0.2, 0.4)]
    assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), -float("inf"), 0.0, -0.1])
def test_modulus_rejects_bad_diameter(delta):
    with pytest.raises(ValueError, match="deltas"):
        modulus_of_smoothness(parse_function("sin"), 2, [0.1, delta])


def test_modulus_rejects_empty_deltas():
    with pytest.raises(ValueError, match="deltas"):
        modulus_of_smoothness(parse_function("sin"), 2, [])


@pytest.mark.parametrize("grid", [0, -3])
def test_modulus_rejects_grid_below_one(grid):
    with pytest.raises(ValueError, match="grid"):
        modulus_of_smoothness(parse_function("sin"), 2, [0.1], grid=grid)


# -- stability constant ------------------------------------------------------

def test_stability_order_one_is_unity():
    K = generate_partition(PartitionSpec("random", 12, seed=5), 1)
    rep = stability_constant(K, trials=16, seed=0)
    assert rep.d_hat == pytest.approx(1.0, rel=1e-12)


def test_stability_at_least_one_and_stable():
    vals = {}
    for n in (20, 200):
        K = generate_partition(PartitionSpec("uniform", n - 2), 2)
        rep = stability_constant(K, trials=64, seed=1)
        assert rep.d_hat >= 1.0 - 1e-12
        vals[n] = rep.d_hat
    assert vals[200] / vals[20] <= 1.5 and vals[20] / vals[200] <= 1.5
