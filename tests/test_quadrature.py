import importlib.util
import json
import os

import numpy as np
import pytest

from splineproj import (PartitionSpec, QuadratureNonConvergence, TestFunction,
                        generate_partition, parse_function, projection, quadrature)
from splineproj.quadrature import (
    Pieces,
    gauss_points,
    gauss_rule,
    integrate_adaptive,
    refine_pieces,
)


def test_gauss_rule_polynomial_exactness():
    for g in (1, 2, 4, 8):
        x, w = gauss_rule(g)
        for deg in range(2 * g):
            exact = (1.0 ** (deg + 1) - (-1.0) ** (deg + 1)) / (deg + 1)
            assert w @ x ** deg == pytest.approx(exact, abs=1e-14)


def test_gauss_points_interior():
    x, w = gauss_points(2.0, 3.0, 16)
    assert x.min() > 2.0 and x.max() < 3.0
    assert w.sum() == pytest.approx(1.0)


def test_initial_pieces_cut_at_markers(monkeypatch):
    # markers strictly inside [lo, hi] cut it once each, in order
    def first_pieces(markers):
        seen = []

        def spy(pieces, *args):
            seen.extend(zip(pieces.lo.tolist(), pieces.hi.tolist()))
            pieces.value = np.zeros(len(pieces))
            return pieces, 0.0

        monkeypatch.setattr(quadrature, "refine_pieces", spy)
        integrate_adaptive(np.sin, 0, 1, markers=markers)
        return seen

    assert first_pieces([0.5]) == [(0, 0.5), (0.5, 1)]
    assert first_pieces([0.0, 1.0]) == [(0, 1)]
    assert first_pieces([0.7, 0.3, 0.7]) == [(0, 0.3), (0.3, 0.7), (0.7, 1)]


def test_smooth_integral():
    val, est = integrate_adaptive(np.sin, 0, np.pi, tol=1e-13)
    assert val == pytest.approx(2.0, abs=1e-13)
    assert est <= 1e-13


def test_kink_with_marker():
    val, _ = integrate_adaptive(lambda x: np.abs(x - 0.3), 0, 1,
                                markers=(0.3,), tol=1e-13)
    assert val == pytest.approx(0.3 ** 2 / 2 + 0.7 ** 2 / 2, abs=1e-13)


def test_jump_with_marker():
    val, _ = integrate_adaptive(lambda x: np.where(x < 0.25, 1.0, 3.0), 0, 1,
                                markers=(0.25,), tol=1e-13)
    assert val == pytest.approx(0.25 + 3 * 0.75, abs=1e-13)


def test_integrable_singularity_graded():
    f = lambda x: np.abs(x) ** -0.5
    val, est = integrate_adaptive(f, 0, 1, markers=(0.0,), tol=5e-9)
    assert abs(val - 2.0) <= 5e-9
    assert est <= 5e-9
    # estimate honestly tracks the true error
    assert abs(val - 2.0) <= 2 * max(est, 1e-12)


def test_interior_singularity():
    f = lambda x: np.abs(x - 0.5) ** -0.25
    exact = 2 * 0.5 ** 0.75 / 0.75
    val, est = integrate_adaptive(f, 0, 1, markers=(0.5,), tol=1e-9)
    assert abs(val - exact) <= 1e-9


def test_nonconvergence_raises():
    f = lambda x: np.abs(x) ** -0.5
    with pytest.raises(QuadratureNonConvergence):
        integrate_adaptive(f, 0, 1, markers=(0.0,), tol=1e-13)


def test_error_estimate_scaling():
    # a function with a sharp spike still converges with honest estimates
    f = lambda x: 1.0 / (1e-4 + (x - 0.37) ** 2)
    exact = (np.arctan(0.63 / 1e-2) + np.arctan(0.37 / 1e-2)) / 1e-2
    val, est = integrate_adaptive(f, 0, 1, tol=1e-9)
    assert abs(val - exact) <= 1e-8 * exact


def test_non_finite_estimate_raises():
    # a singularity off the markers that lands exactly on a Gauss node makes
    # that piece's estimate inf; it must not be summed away as convergence
    x0 = float(gauss_points(0.0, 1.0, 16)[0][5])
    with np.errstate(divide="ignore"), \
            pytest.raises(QuadratureNonConvergence, match="non-finite"):
        integrate_adaptive(lambda x: np.abs(x - x0) ** -0.5, 0, 1, tol=1e-9)
    with pytest.raises(QuadratureNonConvergence, match="non-finite"):
        integrate_adaptive(lambda x: np.full_like(x, np.nan), 0, 1)
    # inf and -inf in one piece sum to NaN inside the rule: still the
    # numerical failure, with no RuntimeWarning (an error under this suite)
    with pytest.raises(QuadratureNonConvergence, match="non-finite"):
        integrate_adaptive(lambda x: np.where(x < 0.5, np.inf, -np.inf), 0, 1)


def test_refine_pieces_measures_batches(monkeypatch):
    # initial pieces in slices of at most 256, the two halves of a bisected
    # piece together, an order-doubled piece alone
    sizes = []

    def eval_pair(batch):
        sizes.append(len(batch))
        est = np.where((batch.order == 8) & (batch.lo == 0), 1.0, 0.0)
        return np.zeros(len(batch)), est, np.zeros(len(batch))

    pieces = Pieces(np.arange(600.0), np.arange(1.0, 601.0))
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 1)
    done, est = refine_pieces(pieces, eval_pair, tol=0.5)
    assert sizes == [256, 256, 88, 2, 1]
    assert est == 0.0 and len(done) == 601


def test_non_finite_estimate_stops_at_its_slice(monkeypatch):
    # 600 initial pieces, a NaN estimate in the first slice of 256: the
    # failure names that piece after one evaluator call, and the other two
    # slices go unmeasured, in the work list and through moments alike
    calls = []

    def eval_pair(batch):
        calls.append(len(batch))
        est = np.where(batch.lo == 100.0, np.nan, 0.0)
        return np.zeros(len(batch)), est, np.zeros(len(batch))

    pieces = Pieces(np.arange(600.0), np.arange(1.0, 601.0))
    with pytest.raises(QuadratureNonConvergence,
                       match=r"^non-finite error estimate nan on \[100, 101\]$"):
        refine_pieces(pieces, eval_pair, tol=0.5)
    assert calls == [256]

    real = projection.gauss_pair

    def counted(*args, **kwargs):
        eval_pair = real(*args, **kwargs)

        def measure(batch):
            calls.append(len(batch))
            return eval_pair(batch)
        return measure

    monkeypatch.setattr(projection, "gauss_pair", counted)
    K = generate_partition(PartitionSpec("uniform", 600), 4)
    f = TestFunction(lambda x: np.where(x < 1e-4, np.nan, np.sin(x)))
    del calls[:]
    with pytest.raises(QuadratureNonConvergence) as exc:
        projection.moments(K, f)
    s = K.spans[0]
    assert str(exc.value) == f"non-finite error estimate nan on [{K.t[s]:.17g}, {K.t[s + 1]:.17g}]"
    assert calls == [256]


def test_refine_many_shares_one_call_per_rule_order(monkeypatch):
    # three jobs, the second starting at twice the others' rule order, each
    # doubling it until 32: every round measures each job's pending piece,
    # in one call per rule order
    calls = []

    def eval_pair(batch):
        calls.append((batch.order, batch.payload.tolist()))
        est = np.full(len(batch), 1.0 if batch.order < 32 else 0.0)
        return np.zeros(len(batch)), est, np.zeros(len(batch))

    monkeypatch.setattr(quadrature, "MAX_DEPTH", 0)
    jobs = [(Pieces([0.0], [1.0], order=g, payload=[j]), 0.5)
            for j, g in enumerate((8, 16, 8))]
    results = quadrature.refine_many(jobs, eval_pair)
    assert calls == [(8, [0, 2]), (16, [1]), (16, [0, 2]), (32, [1]), (32, [0, 2])]
    assert [(done.order.tolist(), est) for done, est in results] == [([32], 0.0)] * 3


def load_tracing():
    """``perfbench/tracing.py``, the benchmark's traced-run wrappers."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_refine_pieces_keeps_the_tracer_contract():
    # the traced benchmark run wraps refine_pieces, integrate_adaptive's
    # driver: it takes len(pieces), times a one-argument eval_pair passed
    # second, and reads .depth and .order from every done piece into counters
    # it writes as JSON; moments, traced too, refines through refine_many
    K = generate_partition(PartitionSpec("dyadic", 16), 3)
    f = parse_function("abspow:0:-0.5")
    runs = (lambda: projection.moments(K, f),
            lambda: quadrature.integrate_adaptive(np.sin, 0.0, 1.0, markers=K.t),
            lambda: quadrature.integrate_adaptive(np.sin, 0.0, 1.0, markers=(0.5,)),
            lambda: projection.l1_norm(f, 0.0, 1.0))
    expect = [run() for run in runs]
    importlib.import_module("splineproj.cli")  # the tracer patches every module
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        got = [run() for run in runs]
    finally:
        tracer.remove()
    assert np.asarray(got[0][0]).tobytes() == np.asarray(expect[0][0]).tobytes()
    assert got[0][1:] == expect[0][1:] and got[1:] == expect[1:]
    metrics = tracer.layer_metrics()
    assert metrics["projection.moments.calls"] == 1
    q = "quadrature.refine_pieces"
    assert metrics[f"{q}.calls"] == 3
    assert metrics[f"{q}.pieces_in"] == 16 + 2 + 1
    assert metrics[f"{q}.evals"] > metrics[f"{q}.pieces_in"] / quadrature._BATCH + 3
    assert metrics[f"{q}.pieces_out"] > metrics[f"{q}.pieces_in"]
    assert metrics[f"{q}.max_depth"] == quadrature.MAX_DEPTH
    assert metrics[f"{q}.max_order"] > max(K.k, 4) + 4
    json.loads(json.dumps(metrics))
