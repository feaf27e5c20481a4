"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is fixed here, not configurable.
"""

import time

import numpy as np
import pytest

import splineproj as sp
from splineproj.projection import galerkin_residual
from splineproj.quadrature import integrate_adaptive


def verdict(num, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def spec_for(family, m, seed=1234):
    if family == "uniform":
        return sp.PartitionSpec("uniform", m)
    if family == "geometric2":
        return sp.PartitionSpec("geometric", m, ratio=2.0)
    if family == "geometric10":
        return sp.PartitionSpec("geometric", m, ratio=10.0)
    if family == "random":
        return sp.PartitionSpec("random", m, seed=seed)
    raise ValueError(family)


def partition_for(k, family, n, seed=1234):
    return sp.generate_partition(spec_for(family, n - k + 1, seed), k)


def inverse_for(k, family, n, seed=1234):
    K = partition_for(k, family, n, seed)
    return sp.invert_gram(sp.assemble_gram(K)), K


def gram_for(k, family, n, seed=1234):
    K = partition_for(k, family, n, seed)
    return sp.assemble_gram(K), K


CORPUS = ("x", "x^2", "sin", "cos", "runge", "step:0.5", "absdist:0.3",
          "abspow:0:-0.5")


def test_criterion_01_basis_partition_of_unity():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for k in range(1, 7):
        for family in ("uniform", "geometric2", "geometric10", "random"):
            for n in (10, 100):
                K = partition_for(k, family, n)
                xs = rng.uniform(K.a, K.b, 1000)
                _, vals = sp.eval_basis_many(K, xs)
                worst = max(worst, float(np.abs(vals.sum(axis=1) - 1).max()))
    elapsed = time.monotonic() - start
    verdict(1, "partition of unity", worst <= 1e-13 and elapsed < 5.0,
            f"max |sum N_i - 1| = {worst:.2e}, {elapsed:.1f}s")


def composite_gram_reference(K, subdivisions=50, g=10):
    n = K.n
    dense = np.zeros((n, n))
    nodes, weights = np.polynomial.legendre.leggauss(g)
    for s in K.spans:
        edges = np.linspace(K.t[s], K.t[s + 1], subdivisions + 1)
        for e0, e1 in zip(edges[:-1], edges[1:]):
            half = 0.5 * (e1 - e0)
            xs = e0 + half * (nodes + 1.0)
            first, vals = sp.eval_basis_many(K, xs)
            for p in range(xs.size):
                f0 = first[p]
                dense[f0:f0 + K.k, f0:f0 + K.k] += \
                    (half * weights[p]) * np.outer(vals[p], vals[p])
    return dense


def test_criterion_02_gram_oracle():
    worst = 0.0
    for k, family, m in ((1, "uniform", 6), (2, "random", 8),
                         (3, "geometric2", 7), (4, "random", 9)):
        K = sp.generate_partition(spec_for(family, m), k)
        G = sp.assemble_gram(K)
        worst = max(worst, float(
            np.abs(G.to_dense() - composite_gram_reference(K)).max()))

    K = sp.make_knot_sequence([0, 1], [], 2)
    closed = np.abs(sp.assemble_gram(K).to_dense()
                    - np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])).max()
    Ku = sp.generate_partition(sp.PartitionSpec("uniform", 10), 2)
    Gu, h = sp.assemble_gram(Ku), 0.1
    for i in range(2, Ku.n - 2):
        closed = max(closed, abs(Gu.entry(i, i) - 2 * h / 3),
                     abs(Gu.entry(i, i + 1) - h / 6))
    verdict(2, "gram oracle", worst <= 1e-12 and closed <= 1e-14,
            f"reference dev = {worst:.2e}, closed-form dev = {closed:.2e}")


def test_criterion_03_inverse_correctness():
    worst_resid = worst_dual = 0.0
    symmetric = True
    cases = [(k, "random", 100) for k in (1, 2, 3, 4, 5)]
    cases += [(3, "uniform", 400), (5, "geometric2", 200), (2, "uniform", 400)]
    for k, family, n in cases:
        A, K = inverse_for(k, family, n)
        worst_resid = max(worst_resid, A.residual)
        symmetric &= np.array_equal(A.entries, A.entries.T)
    # dual-basis biorthogonality via quadrature on a mid-sized instance
    for k, family, n in ((3, "random", 400), (5, "random", 100)):
        A, K = inverse_for(k, family, n)
        nodes, weights = np.polynomial.legendre.leggauss(K.k)
        inner = np.zeros((K.n, K.n))
        for s in K.spans:
            half = 0.5 * (K.t[s + 1] - K.t[s])
            xs = K.t[s] + half * (nodes + 1.0)
            first, vals = sp.eval_basis_many(K, xs)
            for p in range(xs.size):
                f0 = first[p]
                duals = A.entries[:, f0:f0 + K.k] @ vals[p]
                inner[:, f0:f0 + K.k] += np.outer(
                    duals * (half * weights[p]), vals[p])
        worst_dual = max(worst_dual,
                         float(np.abs(inner - np.eye(K.n)).max()))
    ok = worst_resid <= 1e-9 and symmetric and worst_dual <= 1e-9
    verdict(3, "inverse correctness", ok,
            f"residual = {worst_resid:.2e}, exactly symmetric = {symmetric}, "
            f"biorthogonality = {worst_dual:.2e}")


def test_criterion_04_inverse_decay():
    start = time.monotonic()
    worst_gamma, worst_jump = 0.0, 1.0
    for family in ("uniform", "geometric2", "random"):
        for k in (2, 3, 4, 5):
            kk = []
            for n in (50, 100, 200, 400):
                G0, K = gram_for(k, family, n)
                rep = sp.decay_report(G0, K)
                assert rep.fitted and rep.residual_factor <= 1 + 1e-9
                worst_gamma = max(worst_gamma, rep.gamma)
                kk.append(rep.big_k)
            for k1, k2 in zip(kk, kk[1:]):
                worst_jump = max(worst_jump, k2 / k1, k1 / k2)
    # rate oracle: direct numpy inversion of the tridiagonal Toeplitz Gram
    n, h = 400, 1.0 / 399
    T = (np.diag(np.full(n, 2 * h / 3)) + np.diag(np.full(n - 1, h / 6), 1)
         + np.diag(np.full(n - 1, h / 6), -1))
    T[0, 0] = T[-1, -1] = h / 3
    Tinv = np.linalg.inv(T)
    oracle = abs(Tinv[200, 221] / Tinv[200, 220])
    G0, K = gram_for(2, "uniform", 400)
    rep = sp.decay_report(G0, K)
    rate_dev = max(abs(rep.gamma - oracle), abs(rep.gamma - (2 - np.sqrt(3))))
    elapsed = time.monotonic() - start
    ok = (worst_gamma < 0.95 and worst_jump <= 2.0
          and rate_dev / (2 - np.sqrt(3)) < 0.01 and elapsed < 60.0)
    verdict(4, "inverse decay", ok,
            f"max gamma = {worst_gamma:.3f}, max K jump = {worst_jump:.2f}, "
            f"uniform-rate dev = {100 * rate_dev / (2 - np.sqrt(3)):.3f}%, "
            f"{elapsed:.1f}s")


def test_criterion_05_scaled_norms():
    worst_row = worst_consistency = 0.0
    worst_jump = 1.0
    for family in ("uniform", "geometric2", "random"):
        for k in (1, 2, 3, 5):
            norms_inf, norms_1 = [], []
            for n in (50, 100, 200, 400):
                K = partition_for(k, family, n)
                G0 = sp.assemble_gram(K)
                G = sp.scaled_gram(G0, K)
                worst_row = max(worst_row,
                                float(np.abs(G.sum(axis=1) - 1).max()))
                A = sp.invert_gram(G0)
                b = np.abs(A.entries * (K.kappa / k)[None, :])
                norms_inf.append(float(b.sum(axis=1).max()))
                norms_1.append(float(b.sum(axis=0).max()))
            for norms in (norms_inf, norms_1):
                for v1, v2 in zip(norms, norms[1:]):
                    worst_jump = max(worst_jump, v2 / v1, v1 / v2)
    # consistency of the two inverses, against dense inversion of G
    for k, family, n in ((2, "random", 60), (4, "geometric2", 80)):
        K = partition_for(k, family, n)
        A = sp.invert_gram(sp.assemble_gram(K))
        b_scaled = A.entries * (K.kappa / k)[None, :]
        b_direct = np.linalg.inv(sp.scaled_gram(sp.assemble_gram(K), K))
        worst_consistency = max(worst_consistency, float(
            np.abs(b_scaled - b_direct).max() / np.abs(b_direct).max()))
    ok = (worst_row <= 1e-13 and worst_jump <= 2.0
          and worst_consistency <= 1e-10)
    verdict(5, "scaled norms", ok,
            f"row-sum dev = {worst_row:.2e}, inverse-norm jump = "
            f"{worst_jump:.2f}, a/b consistency = {worst_consistency:.2e}")


def test_criterion_06_kernel():
    rng = np.random.default_rng(5)
    worst_int = 0.0
    for k, family, n in ((3, "random", 50), (2, "uniform", 64)):
        G0, K = gram_for(k, family, n)
        ints = sp.kernel_constant_integral(G0, K, rng.uniform(K.a, K.b, 100))
        worst_int = max(worst_int, float(np.abs(ints - 1.0).max()))
    worst_theta, worst_jump = 0.0, 1.0
    for k in (2, 3):
        for family in ("uniform", "random"):
            cs = []
            for n in (64, 128):
                G0, K = gram_for(k, family, n)
                rep = sp.kernel_bound_report(G0, K, samples_per_cell=3)
                worst_theta = max(worst_theta, rep.theta_hat)
                cs.append(rep.c_hat)
            worst_jump = max(worst_jump, cs[1] / cs[0], cs[0] / cs[1])
    # order-one closed form: kernel is 1/h on diagonal cells, 0 elsewhere
    G0, K = gram_for(1, "random", 30)
    t = K.t
    mids = 0.5 * (t[:-1] + t[1:])
    closed = 0.0
    for i, x in enumerate(mids):
        for j, y in enumerate(mids[: i + 1]):
            expect = 1.0 / (t[i + 1] - t[i]) if i == j else 0.0
            closed = max(closed, abs(sp.kernel_values(G0, K, x, y)[0, 0] - expect)
                         * (t[i + 1] - t[i] if i == j else 1.0))
    ok = (worst_int <= 1e-9 and worst_theta < 1.0 and worst_jump <= 2.0
          and closed <= 1e-12)
    verdict(6, "kernel bound", ok,
            f"unit-integral dev = {worst_int:.2e}, theta = {worst_theta:.2f}, "
            f"C jump = {worst_jump:.2f}, order-1 closed form dev = {closed:.2e}")


def test_criterion_07_projection():
    rng = np.random.default_rng(9)
    worst_repro = 0.0
    xs = np.linspace(0, 1, 501)
    for k in (1, 2, 3, 4):
        K = partition_for(k, "random", 20, seed=k)
        c = rng.standard_normal(K.n)
        f = sp.TestFunction(lambda x, K=K, c=c: sp.eval_spline_many(K, c, x),
                            name="spline")
        worst_repro = max(worst_repro,
                          float(np.abs(sp.project(K, f).coeffs - c).max()))
        poly = sp.parse_function(f"x^{k - 1}")
        worst_repro = max(worst_repro, float(
            np.abs(sp.project(K, poly)(xs) - poly(xs)).max()))
    # order-one interval averages
    K1 = partition_for(1, "random", 12, seed=3)
    pf = sp.project(K1, sp.parse_function("x^2"))
    t = K1.t
    avg = (t[1:] ** 3 - t[:-1] ** 3) / (3 * np.diff(t))
    avg_dev = float(np.abs(pf.coeffs - avg).max())
    # Galerkin orthogonality over the corpus
    worst_rel = 0.0
    for k in (1, 2, 3):
        K = partition_for(k, "random", 16, seed=k + 20)
        for name in CORPUS:
            f = sp.parse_function(name)
            pf = sp.project(K, f)
            resid = float(np.abs(galerkin_residual(pf, f)).max())
            l1, _ = integrate_adaptive(lambda u: np.abs(f(u)), 0, 1,
                                       markers=f.markers, tol=1e-9)
            worst_rel = max(worst_rel, resid / l1)
    ok = worst_repro <= 1e-9 and avg_dev <= 1e-10 and worst_rel <= 1e-8
    verdict(7, "projection", ok,
            f"reproduction = {worst_repro:.2e}, k=1 averages = {avg_dev:.2e}, "
            f"galerkin/||f||_1 = {worst_rel:.2e}")


def test_criterion_08_domination():
    worst_jump = 1.0
    for name in ("step:0.5", "abspow:0:-0.5", "runge"):
        f = sp.parse_function(name)
        for k in (1, 2, 3, 4):
            parts = sp.dyadic_ladder(k, range(4, 9))
            rep = sp.domination_report(parts, f, eval_grid=256,
                                       maximal_grid=2048)
            cs = [lv["c_hat"] for lv in rep.levels]
            assert np.isfinite(rep.c_hat)
            worst_jump = max(worst_jump, max(cs) / min(cs))
    verdict(8, "maximal-function domination", worst_jump <= 2.0,
            f"max level spread of c-hat = {worst_jump:.2f}")


def test_criterion_09_weak_type():
    worst_m = 0.0
    parts = sp.dyadic_ladder(3, range(1, 6))
    for name in CORPUS + ("const",):
        rep = sp.weak_type_report(parts, sp.parse_function(name),
                                  eval_grid=4096, maximal_grid=4096)
        worst_m = max(worst_m, rep.maximal_constant)
        assert np.isfinite(rep.p_star_constant)
    # P* constant stable when the family grows
    f = sp.parse_function("step:0.5")
    c6 = sp.weak_type_report(sp.dyadic_ladder(3, range(1, 7)), f,
                             eval_grid=2048, maximal_grid=2048).p_star_constant
    c8 = sp.weak_type_report(sp.dyadic_ladder(3, range(1, 9)), f,
                             eval_grid=2048, maximal_grid=2048).p_star_constant
    stable = max(c8 / c6, c6 / c8) <= 2.0
    verdict(9, "weak (1,1) constants", worst_m <= 5.5 and stable,
            f"max maximal-function constant = {worst_m:.3f}, "
            f"P* family growth = {c8 / c6:.3f}")


def test_criterion_10_convergence():
    start = time.monotonic()
    orders = {}
    for k in (1, 2, 3, 4):
        ladder = sp.dyadic_ladder(k, range(2, 9))
        rep = sp.convergence_report(ladder, sp.parse_function("sin"),
                                    probes=[0.23, 0.77])
        orders[k] = rep.observed_order
    order_ok = all(orders[k] >= k - 0.2 for k in orders)

    ladder10 = sp.dyadic_ladder(2, range(3, 11))
    rep_step = sp.convergence_report(ladder10, sp.parse_function("step:0.5"),
                                     probes=[0.25])
    step_err = rep_step.levels[-1]["probe_errors"][0]

    rep_sing = sp.convergence_report(ladder10,
                                     sp.parse_function("abspow:0:-0.5"),
                                     probes=[0.25, 0.75])
    sing_err = max(rep_sing.levels[-1]["probe_errors"])
    elapsed = time.monotonic() - start
    ok = (order_ok and step_err < 1e-3 and sing_err < 1e-2 and elapsed < 120.0)
    verdict(10, "convergence", ok,
            f"orders = {{{', '.join(f'{k}: {v:.2f}' for k, v in orders.items())}}}, "
            f"step probe = {step_err:.1e}, singular probes = {sing_err:.1e}, "
            f"{elapsed:.1f}s")


def test_criterion_11_structural_constants():
    worst_jump, worst_d_jump = 1.0, 1.0
    for k in (2, 3, 4, 5):
        for family in ("uniform", "random"):
            vals = {}
            for n in (100, 200):
                G0, K = gram_for(k, family, n)
                dec = sp.decay_report(G0, K)
                # the certificate rate, not the raw fit: constants taken at
                # the critical rate are running maxima and cannot be stable
                gamma = max(dec.gamma_cert, 0.5)
                c = sp.lemma_constants(G0, K, gamma)
                assert all(np.isfinite(v) for v in (c.k1, c.k2, c.k3))
                vals[n] = (c.k1, c.k2, c.k3)
            for i in range(3):
                r = vals[200][i] / vals[100][i]
                worst_jump = max(worst_jump, r, 1 / r)
    for k in (1, 2, 3, 5):
        ds = []
        for n in (50, 100):
            K = partition_for(k, "random", n, seed=6)
            ds.append(sp.stability_constant(K, trials=64, seed=2).d_hat)
        worst_d_jump = max(worst_d_jump, ds[1] / ds[0], ds[0] / ds[1])
    ok = worst_jump <= 2.0 and worst_d_jump <= 1.5
    verdict(11, "structural constants", ok,
            f"max K1..K3 jump = {worst_jump:.2f}, "
            f"max d-hat jump = {worst_d_jump:.2f}")
