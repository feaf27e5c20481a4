import dataclasses
import importlib.util
import json
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

import splineproj
from splineproj.cli import (
    COMMANDS,
    ExperimentConfig,
    ParseError,
    ValidationError,
    _json_value,
    build_parser,
    config_from_args,
    main,
    parse_config,
    run_experiment,
    serialize_config,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make_cfg(**kw):
    base = dict(command="basis-eval", k=2, partition="uniform:8",
                output_dir="out")
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_round_trip_identity():
    rng = np.random.default_rng(0)
    commands = ("basis-eval", "project", "converge", "verify-decay")
    for _ in range(50):
        command = str(rng.choice(commands))
        inputs = dict(
            partition=f"uniform:{int(rng.integers(1, 40))}",
            function="sin" if rng.random() < 0.5 else None,
            levels=tuple(int(v) for v in range(1, int(rng.integers(2, 8))))
            if rng.random() < 0.5 else None,
        )
        eval_grid = int(rng.integers(16, 64))
        # only the fields and options the command reads
        cfg = ExperimentConfig(
            command=command,
            k=int(rng.integers(1, 11)),
            **{n: v for n, v in inputs.items() if n in COMMANDS[command].inputs},
            interval=(0.0, float(rng.integers(1, 5))),
            seed=int(rng.integers(0, 1000)),
            options={"eval_grid": eval_grid}
            if "eval_grid" in COMMANDS[command].options else {},
            output_dir="out",
        )
        assert parse_config(serialize_config(cfg)) == cfg
        # serialize . parse . serialize is also the identity
        assert serialize_config(parse_config(serialize_config(cfg))) == \
            serialize_config(cfg)


def test_parse_config_defaults_and_seed_recorded():
    cfg = parse_config('{"command": "basis-eval", "k": 2, '
                       '"partition": "uniform:16"}')
    assert cfg.seed == 0
    assert '"seed": 0' in serialize_config(cfg)


def test_parse_config_errors():
    with pytest.raises(ParseError) as exc:
        parse_config("{not json")
    assert exc.value.position is not None
    with pytest.raises(ValidationError, match="'k'"):
        parse_config('{"command": "basis-eval", "k": 0}')
    with pytest.raises(ValidationError, match="command"):
        parse_config('{"command": "frobnicate"}')
    with pytest.raises(ValidationError):
        parse_config('{"command": "basis-eval", "bogus_field": 1}')
    with pytest.raises(ParseError):
        parse_config('[1, 2]')


def test_validation_k_range():
    with pytest.raises(ValidationError, match="'k'"):
        make_cfg(k=11)
    with pytest.raises(ValidationError, match="interval"):
        make_cfg(interval=(1.0, 0.0))
    with pytest.raises(ValidationError, match="interval"):
        make_cfg(interval=(0.0, float("inf")))


def run_in(tmp_path, cfg):
    cfg = ExperimentConfig(**{**cfg.__dict__, "output_dir": str(tmp_path)})
    return cfg, run_experiment(cfg)


def test_basis_eval_writes_report_and_csv(tmp_path):
    cfg, status = run_in(tmp_path, make_cfg())
    assert status == 0
    rep = json.loads((tmp_path / "basis_eval_report.json").read_text())
    assert rep["schema"] == 1
    assert rep["passed"] is True
    assert rep["config"]["k"] == 2
    assert rep["config"]["seed"] == 0
    csv = (tmp_path / "basis_values.csv").read_text().splitlines()
    assert csv[0] == "x,i,N_i"


def test_identical_configs_give_identical_csv(tmp_path):
    cfg = make_cfg(command="project", k=2, partition="random:9",
                   function="runge", seed=3)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        c = ExperimentConfig(**{**cfg.__dict__, "output_dir": str(d)})
        assert run_experiment(c) == 0
    assert (d1 / "projection.csv").read_bytes() == \
        (d2 / "projection.csv").read_bytes()


def test_project_order_one_averages(tmp_path):
    cfg = make_cfg(command="project", k=1, partition="uniform:2",
                   function="x")
    cfg, status = run_in(tmp_path, cfg)
    assert status == 0
    rep = json.loads((tmp_path / "project_report.json").read_text())
    assert np.allclose(rep["coefficients"], [0.25, 0.75], atol=1e-12)


def test_verify_decay_cli(tmp_path):
    cfg = make_cfg(command="verify-decay", k=3, partition="geometric:98:4.0")
    cfg, status = run_in(tmp_path, cfg)
    assert status == 0
    rep = json.loads((tmp_path / "verify_decay_report.json").read_text())
    assert rep["decay"]["gamma"] < 1.0
    assert 0.0 <= rep["decay"]["inverse_residual"] <= 1e-9
    assert (tmp_path / "decay_profile.csv").exists()


def inexact_assembly(factor):
    """``assemble_gram`` with a cached factor whose diagonal is scaled by
    ``factor``."""
    def inexact(K):
        G = splineproj.assemble_gram(K)
        fac = G.factor().copy()
        fac[:, 0] *= factor
        return splineproj.GramMatrix(G.band, fac)
    return inexact


FACTORS = {"": 1.03, "-1e-7": 1 + 1e-7}


@pytest.mark.parametrize("command, factor", [
    pytest.param(command, factor, id=command + tag)
    for command in ["verify-decay", "verify-lemma", "verify-kernel-bound", "kernel", "invert"]
    for tag, factor in FACTORS.items()])
def test_unrefined_inverse_is_exit_3(tmp_path, capsys, monkeypatch, command, factor):
    # a cached factor with its diagonal scaled by 1.03 or by 1 + 1e-7: one
    # pass leaves the inverse with a residual above 1e-9 (its solved
    # columns above 1e-10) and nothing is refined, which is a numerical
    # failure, not a certificate read from a wrong inverse
    import splineproj.cli as cli

    monkeypatch.setattr(cli, "assemble_gram", inexact_assembly(factor))
    argv = [command, "--k", "4", "--partition", "random:297:1", "-o", str(tmp_path)]
    assert main(argv) == 3
    # kernel reads its inverse rows as solved identity columns
    what = "solve" if command == "kernel" else "inverse"
    assert f"numerical failure: {what} residual" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, factor", [
    pytest.param(argv, factor, id=argv[0] + tag)
    for argv in [
        ["project", "--k", "4", "--partition", "random:297:1", "--function", "sin"],
        ["converge", "--k", "4", "--function", "sin", "--levels", "8"],
        ["dominate", "--k", "3", "--function", "sin", "--levels", "6"],
        ["weak11", "--k", "3", "--function", "step:0.3", "--levels", "6"]]
    for tag, factor in FACTORS.items()])
def test_unrefined_solve_is_exit_3(tmp_path, capsys, monkeypatch, argv, factor):
    # the same inexact factor under the projection's banded solve: one pass
    # leaves coefficients with a residual above 1e-10 max |b|, a numerical
    # failure, not errors read from a wrong spline
    import splineproj.cli as cli
    from splineproj import projection

    for module in (cli, projection):
        monkeypatch.setattr(module, "assemble_gram", inexact_assembly(factor))
    assert main(argv + ["-o", str(tmp_path)]) == 3
    assert "numerical failure: solve residual" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["project", "invert", "verify-decay", "kernel"])
def test_nan_in_banded_solve_is_exit_3(tmp_path, capsys, monkeypatch, command):
    # a NaN moment, or a NaN Gram entry, goes unchecked through the banded
    # factor and solves to the residual gates: a numerical failure, not bad
    # input, and the target it is judged against stays finite
    import splineproj.cli as cli
    from splineproj import projection

    argv = [command, "--k", "4", "--partition", "random:60:1", "-o", str(tmp_path)]
    if command == "project":
        ladder_moments = projection._ladder_moments

        def nan_moment(ladder, f, *args):
            out = ladder_moments(ladder, f, *args)
            for K, (b, _) in zip(ladder, out):
                b[K.n // 2] = np.nan
            return out
        monkeypatch.setattr(projection, "_ladder_moments", nan_moment)
        argv += ["--function", "sin"]
    else:
        def nan_entry(K):
            G = splineproj.assemble_gram(K)
            G.band[K.n // 2 - 1, 1] = np.nan
            return G
        monkeypatch.setattr(cli, "assemble_gram", nan_entry)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "numerical failure:" in err and " residual nan above " in err
    assert "above nan" not in err
    assert not any(tmp_path.iterdir())


def test_non_finite_galerkin_residual_is_exit_3(tmp_path, capsys, monkeypatch):
    # NaN moments reach only galerkin_residual, the one caller of
    # projection.moments: a numerical failure, not a failed check
    from splineproj import projection

    moments = projection.moments

    def nan_moments(K, f, *args, **kwargs):
        b, est = moments(K, f, *args, **kwargs)
        return np.full_like(b, np.nan), est
    monkeypatch.setattr(projection, "moments", nan_moments)
    argv = ["project", "--k", "4", "--partition", "random:60:1", "--function", "sin",
            "-o", str(tmp_path)]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert "numerical failure: Galerkin residual nan is not finite" in err
    assert "[FAIL]" not in out
    assert not any(tmp_path.iterdir())


def test_zero_kernel_is_exit_3(tmp_path, capsys, monkeypatch):
    # an inverse served as zero columns leaves no sampled kernel value above
    # the zero floor: a numerical failure, not an input error
    from splineproj import projection

    def zero_columns(G0, rhs):
        return np.zeros(rhs.shape)
    monkeypatch.setattr(projection, "solve_banded", zero_columns)
    argv = ["verify-kernel-bound", "--k", "3", "--partition", "random:30:1",
            "-o", str(tmp_path)]
    assert main(argv) == 3
    assert "numerical failure: no sampled kernel value" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_block_diagonal_inverse_passes(tmp_path, k):
    # order 1, or every interior knot of multiplicity k on 60 random
    # intervals: the inverse is zero beyond offset k - 1, so the decay rate
    # and the window constants K2, K3 are vacuous, not a failed fit
    partition = "uniform:20"
    if k > 1:
        rng = np.random.default_rng(k)
        breaks = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, 60))])
        K = splineproj.make_knot_sequence(breaks / breaks[-1], [k] * 59, k)
        partition = tmp_path / "knots.txt"
        partition.write_text(K.to_text())
    name = "diagonal_inverse" if k == 1 else "block_diagonal_inverse"
    for command in ("verify-decay", "verify-lemma"):
        out = tmp_path / command
        argv = [command, "--k", str(k), "--partition", str(partition), "-o", str(out)]
        assert main(argv) == 0
        rep = json.loads((out / f"{command.replace('-', '_')}_report.json").read_text())
        assert [(c["name"], c["passed"]) for c in rep["checks"]] == [(name, True)]


def test_decay_and_lemma_details(tmp_path):
    # "n < 3k" only when it holds; K1, K2 and K3 all to four digits
    assert main(["verify-decay", "--k", "3", "--partition", "uniform:4",
                 "-o", str(tmp_path)]) == 1
    rep = json.loads((tmp_path / "verify_decay_report.json").read_text())
    assert rep["checks"][0]["detail"] == "too small for a fit: n = 6 < 3k"
    assert main(["verify-lemma", "--k", "3", "--partition", "random:60:1",
                 "-o", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "verify_lemma_report.json").read_text())
    c = rep["constants"]
    assert rep["checks"][0]["detail"] == \
        f"K1 = {c['k1']:.4g}, K2 = {c['k2']:.4g}, K3 = {c['k3']:.4g}"


VACUOUS_MESHES = [(12, 2), (30, 2), (12, 3)]


def zero_beyond_k_mesh(path, intervals, k):
    """A knot file of uniform intervals, every interior knot of multiplicity
    k but the middle one: the inverse Gram matrix is zero beyond offset k,
    but not block-diagonal, since the middle knot couples two blocks."""
    mults = [k] * (intervals - 1)
    mults[(intervals - 1) // 2] = 1
    K = splineproj.make_knot_sequence(np.linspace(0, 1, intervals + 1), mults, k)
    path.write_text(K.to_text())
    return str(path)


@pytest.mark.parametrize("intervals, k", VACUOUS_MESHES)
def test_lemma_with_vacuous_k2_passes(tmp_path, intervals, k):
    # K2 bounds nothing, and constants_finite reads K1 and K3 alone
    partition = zero_beyond_k_mesh(tmp_path / "knots.txt", intervals, k)
    assert main(["verify-lemma", "--k", str(k), "--partition", partition,
                 "-o", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "verify_lemma_report.json").read_text())
    c = rep["constants"]
    assert c["k2"] is None
    assert rep["checks"][0]["detail"] == \
        f"K1 = {c['k1']:.4g}, K2 = vacuous, K3 = {c['k3']:.4g}"


@pytest.mark.parametrize("intervals, k", VACUOUS_MESHES)
def test_decay_with_nothing_beyond_k_passes(tmp_path, intervals, k):
    # no entry beyond offset k to fit a rate to: one PASS, not a failed fit
    partition = zero_beyond_k_mesh(tmp_path / "knots.txt", intervals, k)
    assert main(["verify-decay", "--k", str(k), "--partition", partition,
                 "-o", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "verify_decay_report.json").read_text())
    assert not rep["decay"]["diagonal"]
    assert rep["checks"] == [{
        "name": "decay_vacuous", "passed": True,
        "detail": f"all entries beyond offset k = {k} are zero: no rate to fit"}]


def test_converge_cli(tmp_path):
    cfg = make_cfg(command="converge", k=2, partition=None,
                   function="step:0.5", levels=tuple(range(1, 7)))
    cfg, status = run_in(tmp_path, cfg)
    assert status == 0
    rep = json.loads((tmp_path / "converge_report.json").read_text())
    assert len(rep["convergence"]["levels"]) == 6
    assert all(np.isfinite(lv["sup_error"]) for lv in rep["convergence"]["levels"])


@pytest.mark.parametrize("expect, status", [("1.5", 0), ("5", 1)])
def test_converge_expect_order_verdict(tmp_path, expect, status):
    # p = 2.114 at k = 2 over six dyadic levels: a failed check is exit 1,
    # and the run still writes its table and report
    assert main(["converge", "--k", "2", "--function", "sin", "--levels", "6",
                 "--expect-order", expect, "-o", str(tmp_path)]) == status
    rep = json.loads((tmp_path / "converge_report.json").read_text())
    check, = (c for c in rep["checks"] if c["name"] == "observed_order")
    assert check["passed"] is (status == 0)
    assert check["detail"] == f"p = 2.114 vs {float(expect)}"
    assert (tmp_path / "convergence.csv").exists()


def strict_json(path):
    """The JSON document at ``path``; Infinity, -Infinity and NaN raise."""
    def reject(token):
        raise ValueError(f"not strict JSON: {token}")
    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def test_non_finite_report_values_are_strict_json(tmp_path):
    # omega_k of an unbounded f is inf at every level: the report writes the
    # text of its CSV cell as a string, not the bare token Infinity
    assert main(["converge", "--k", "2", "--function", "abspow:0:-0.5",
                 "--levels", "4", "-o", str(tmp_path)]) == 0
    rep = strict_json(tmp_path / "converge_report.json")
    assert [lv["omega_k"] for lv in rep["convergence"]["levels"]] == ["inf"] * 4
    assert all(np.isfinite(lv["sup_error"]) for lv in rep["convergence"]["levels"])
    rows = (tmp_path / "convergence.csv").read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["inf"] * 4


def test_finite_report_is_plain_json_dumps(tmp_path):
    cfg, status = run_in(tmp_path, make_cfg(command="gram"))
    assert status == 0
    text = (tmp_path / "gram_report.json").read_text()
    assert text == json.dumps(strict_json(tmp_path / "gram_report.json"),
                              sort_keys=True, indent=2) + "\n"


def _asdict_default(v):
    """The ``default=`` hook reports were once encoded with: the reference
    for the bytes of a finite document."""
    if dataclasses.is_dataclass(v):
        return dataclasses.asdict(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer, np.bool_)):
        return v.item()
    raise TypeError(f"not JSON serializable: {type(v)}")


@dataclasses.dataclass
class _Inner:
    x: float
    values: np.ndarray
    pair: tuple = (1, 2.5)


@dataclasses.dataclass
class _Outer:
    inner: _Inner
    items: list
    count: np.int64


def _report_values():
    """A decay report and the lemma constants of a small mesh: arrays, numpy
    scalars and the tuples ``fit_offsets`` and ``skipped``."""
    from splineproj import analysis
    K = splineproj.generate_partition(splineproj.PartitionSpec("random", 40, seed=1), 3)
    G0 = splineproj.assemble_gram(K)
    dec = analysis.decay_report(G0, K)
    lemma = analysis.lemma_constants(G0, K, dec.gamma_cert)
    # pairs with a zero K3 window occur on block-diagonal stretches only
    return dec, dataclasses.replace(lemma, skipped=((0, 3), (4, 7)))


def test_json_value_of_finite_document_is_plain_json_dumps():
    dec, lemma = _report_values()
    assert isinstance(dec.fit_offsets, tuple)
    doc = {
        "f": np.float64(0.1), "i": np.int64(-3), "b": np.bool_(True),
        "f32": np.float32(0.3), "none": None, "tuple": (1, np.float64(2.5), "s"),
        "ints": np.arange(5), "floats": np.array([[0.1, -0.0], [1e300, 5e-324]]),
        "nested": _Outer(_Inner(0.25, np.linspace(0, 1, 4)), [np.int64(7), (True,)],
                         np.int64(9)),
        "decay": dec, "constants": lemma,
    }
    text = json.dumps(_json_value(doc), sort_keys=True, indent=2, allow_nan=False)
    assert text == json.dumps(doc, sort_keys=True, indent=2, default=_asdict_default)
    # numpy scalars become the Python values of the same type
    for value, typ in ((np.float64(1.5), float), (np.int64(-3), int), (np.bool_(False), bool)):
        assert type(_json_value(value)) is typ and _json_value(value) == value
    ints = _json_value(np.arange(3))
    assert ints == [0, 1, 2] and all(type(v) is int for v in ints)
    assert _json_value(dec)["fit_offsets"] == list(dec.fit_offsets)
    assert _json_value(lemma)["skipped"] == [list(pair) for pair in lemma.skipped]


def test_json_value_writes_non_finite_floats_as_csv_text():
    inf, nan = float("inf"), float("nan")
    assert _json_value(np.array([1.0, inf, -inf, nan])) == [1.0, "inf", "-inf", "nan"]
    assert _json_value(np.array([[0.5, -inf]])) == [[0.5, "-inf"]]
    assert _json_value(np.float32(inf)) == "inf"
    assert _json_value([np.float64(-inf), nan, 2, (inf,)]) == ["-inf", "nan", 2, ["inf"]]
    assert _json_value({"a": {"b": nan}}) == {"a": {"b": "nan"}}
    assert _json_value(_Outer(_Inner(-inf, np.array([nan, 1.0]), (inf, 1)), [nan],
                              np.int64(1))) == {
        "inner": {"x": "-inf", "values": ["nan", 1.0], "pair": ["inf", 1]},
        "items": ["nan"], "count": 1}
    # every value is text "%.17g" gives, and the whole is strict JSON
    doc = _json_value({"v": [inf, -inf, nan]})
    assert doc["v"] == ["%.17g" % v for v in (inf, -inf, nan)]
    json.dumps(doc, allow_nan=False)


@pytest.mark.parametrize("command", ["verify-decay", "verify-lemma"])
def test_linalg_error_is_exit_3(tmp_path, capsys, monkeypatch, command):
    # numpy's LinAlgError subclasses ValueError: a LAPACK breakdown inside a
    # handler, here the solve against each block's triangle of U in the
    # inverse's row stream (its only np.linalg.solve), is a numerical
    # failure, not an input error
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix: resolution failed at diagonal 3")
    monkeypatch.setattr(np.linalg, "solve", singular)
    argv = [command, "--k", "3", "--partition", "random:30:1", "-o", str(tmp_path)]
    assert main(argv) == 3
    assert "numerical failure: singular matrix" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_exit_code_input_error(tmp_path):
    cfg = make_cfg(command="project", partition="nosuchfamily:4",
                   function="sin", output_dir=str(tmp_path))
    assert run_experiment(cfg) == 2
    cfg = make_cfg(command="project", partition="uniform:8",
                   function="bogus", output_dir=str(tmp_path))
    assert run_experiment(cfg) == 2
    # library-level input errors map to the same status
    cfg = make_cfg(command="gram", partition="geometric:8:-1.0",
                   output_dir=str(tmp_path))
    assert run_experiment(cfg) == 2
    cfg = make_cfg(command="project", partition="uniform:8",
                   function="abspow:0:-1.5", output_dir=str(tmp_path))
    assert run_experiment(cfg) == 2
    # a NaN probe point and spec fields beyond the family's own are bad
    # input too, and leave no output directory behind
    out = tmp_path / "fresh"
    assert main(["converge", "--k", "2", "--function", "sin", "--levels", "3",
                 "--probes", "0.5;nan", "-o", str(out)]) == 2
    for spec in ("uniform:8:junk", "random:8:3:junk"):
        assert main(["gram", "--k", "2", "--partition", spec, "-o", str(out)]) == 2
    assert not out.exists()


def test_exit_code_numerical_failure(tmp_path, monkeypatch):
    # a tolerance no singular integrand can reach
    cfg = ExperimentConfig(command="invert", k=2,
                           partition="uniform:3000",
                           output_dir=str(tmp_path))
    assert run_experiment(cfg) == 2  # above the documented inversion limit

    from splineproj import QuadratureNonConvergence

    # numerical failure path, via a handler that raises during quadrature
    def broken(cfg, f):
        raise QuadratureNonConvergence("synthetic")
    monkeypatch.setitem(COMMANDS, "maximal",
                        dataclasses.replace(COMMANDS["maximal"], handler=broken))
    cfg = make_cfg(command="maximal", partition=None, function="sin",
                   output_dir=str(tmp_path))
    assert run_experiment(cfg) == 3


def _snapshot(d):
    return {p.name: p.read_bytes() for p in d.iterdir()}


def test_failed_run_leaves_output_directory_as_it_was(tmp_path, monkeypatch, capsys):
    # a passing report and its CSV from an earlier run keep their bytes when a
    # later run into the same directory fails in input resolution or in the
    # handler, after the table it would write has been computed
    import splineproj.cli as cli
    from splineproj import QuadratureNonConvergence

    argv = ["project", "--k", "3", "--partition", "uniform:4", "-o", str(tmp_path)]
    assert main(argv + ["--function", "sin"]) == 0
    before = _snapshot(tmp_path)
    assert sorted(before) == ["project_report.json", "projection.csv"]
    assert main(argv + ["--function", "bogus"]) == 2

    def broken(*args, **kwargs):
        raise QuadratureNonConvergence("synthetic")
    monkeypatch.setattr(cli, "galerkin_residual", broken)
    assert main(argv + ["--function", "cos"]) == 3
    assert "numerical failure: synthetic" in capsys.readouterr().err
    assert _snapshot(tmp_path) == before


def test_project_assembles_one_gram_matrix(tmp_path, monkeypatch):
    # the projection carries its Gram matrix into the Galerkin check, so a
    # project run assembles exactly one
    import splineproj.cli as cli
    import splineproj.projection as projection

    calls = []
    assemble = projection.assemble_gram

    def counted(K):
        calls.append(K.n)
        return assemble(K)
    for mod in (cli, projection):
        monkeypatch.setattr(mod, "assemble_gram", counted)
    assert main(["project", "--k", "3", "--partition", "random:50:1", "--function", "sin",
                 "-o", str(tmp_path)]) == 0
    assert calls == [52]


def test_galerkin_check_at_the_singular_moment_tolerance(tmp_path):
    # the check integrates at the moment tolerance (5e-9 for a singular f);
    # at half of it the bisection toward 0 stopped at an estimate of 2.8e-9
    # and the run exited 3
    assert main(["project", "--k", "3", "--partition", "uniform:4",
                 "--function", "abspow:0:-0.55", "-o", str(tmp_path)]) == 0
    with open(tmp_path / "project_report.json") as fh:
        checks = json.load(fh)["checks"]
    assert [(c["name"], c["passed"]) for c in checks] == [("galerkin_orthogonality", True)]


def test_unwritable_output_is_exit_2(tmp_path, capsys):
    # -o names an existing regular file: no directory can be made there, so
    # the run is bad input with one line, not a traceback, and F keeps its
    # bytes
    F = tmp_path / "F"
    F.write_bytes(b"keep me\n")
    assert main(["gram", "--k", "2", "--partition", "uniform:4", "-o", str(F)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert F.read_bytes() == b"keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F"]


def test_failed_rename_leaves_no_temporary_file(tmp_path, capsys, monkeypatch):
    # the rename of a written temporary file fails: one output error line,
    # and the temporary file is removed, not left beside the outputs
    import splineproj.cli as cli

    def refuse(src, dst):
        raise OSError("rename refused")
    monkeypatch.setattr(cli.os, "replace", refuse)
    assert main(["gram", "--k", "2", "--partition", "uniform:4", "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "output error: rename refused\n"
    assert not any(tmp_path.iterdir())


def test_handlers_only_compute():
    # run_experiment alone resolves the declared inputs and writes files
    for name, command in COMMANDS.items():
        calls = set(command.handler.__code__.co_names) & {
            "resolve_partition", "resolve_function", "resolve_ladder",
            "write_csv", "write_report", "_outdir"}
        assert not calls, (name, calls)


@pytest.mark.parametrize("argv, why", [
    (["weak11", "--k", "2", "--function", "step:2", "--levels", "3"], "||f||_1 = 0"),
    (["dominate", "--k", "2", "--function", "step:2", "--levels", "3"], "M f = 0"),
], ids=["weak11", "dominate"])
def test_function_zero_on_interval_is_input_error(tmp_path, capsys, argv, why):
    # step:2 is zero on [0, 1]: there is no ratio to take, so the run is bad
    # input with nothing written, not NaN ratios or an empty-max error
    assert main(argv + ["-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "input error: f = step:2 is zero on [0.0, 1.0]" in err and why in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["022", "077"])
def test_output_modes_follow_umask(tmp_path, umask, mode):
    # each file gets the mode open(path, "w") gives, not mkstemp's 0o600
    src = os.path.dirname(os.path.dirname(splineproj.__file__))
    code = (f"import os, sys; os.umask({umask:#o}); from splineproj.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, "gram", "--k", "2", "--partition", "uniform:4",
         "-o", str(tmp_path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert modes == {"gram_banded.csv": mode, "gram_report.json": mode}


@pytest.mark.parametrize("argv", [
    ["weak11", "--k", "3", "--function", "abspow:0.3:-0.5", "--levels", "6"],
    ["converge", "--k", "2", "--function", "abspow:0.3:-0.5", "--levels", "5"],
    ["maximal", "--function", "abspow:0.3:-0.5"],
], ids=["weak11", "converge", "maximal"])
def test_exit_code_non_finite_quadrature(tmp_path, capsys, argv):
    # bisection toward the singularity at 0.3 reaches pieces about 3e-13
    # wide, where a Gauss node rounds onto it: a numerical failure, not bad
    # input and not a FAIL, and no RuntimeWarning on the way
    assert main(argv + ["-o", str(tmp_path)]) == 3
    assert "numerical failure:" in capsys.readouterr().err


def test_ladder_nan_window_names_the_first_level(tmp_path, capsys, monkeypatch):
    # f is NaN on [0.30, 0.34], where a Gauss node of every level's first
    # measurement lands: the ladder's levels are measured together, and the
    # error is the one moments raises on the first level alone
    import splineproj.cli as cli
    from splineproj import QuadratureNonConvergence, TestFunction, dyadic_ladder

    f = TestFunction(lambda x: np.where(np.abs(x - 0.32) < 0.02, np.nan, np.sin(x)),
                     name="nanwindow")
    ladder = dyadic_ladder(2, range(1, 5))
    with pytest.raises(QuadratureNonConvergence) as first:
        splineproj.moments(ladder[0], f)
    with pytest.raises(QuadratureNonConvergence) as lockstep:
        splineproj.project_ladder(ladder, f)
    assert str(lockstep.value) == str(first.value)
    assert "non-finite error estimate" in str(first.value)
    monkeypatch.setattr(cli, "parse_function", lambda spec: f)
    out = tmp_path / "out"
    assert main(["converge", "--k", "2", "--function", "nanwindow", "--levels", "4",
                 "-o", str(out)]) == 3
    assert f"numerical failure: {first.value}" in capsys.readouterr().err
    assert not out.exists()


def test_numerical_failure_prints_no_warning(tmp_path):
    # bisection toward the singularity at 0.5 reaches pieces so narrow that
    # a Gauss node rounds onto it; the inf value of f meets zero basis values
    # in the moment sums.  The run reports one numerical failure, without a
    # numpy RuntimeWarning ahead of it.
    src = os.path.dirname(os.path.dirname(splineproj.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "splineproj.cli", "project", "--k", "3",
         "--partition", "uniform:2", "--function", "abspow:0.5:-0.5",
         "-o", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert "numerical failure:" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("warnings", [[], ["-W", "error::RuntimeWarning"]],
                         ids=["plain", "warnings-as-errors"])
def test_unrepresentable_geometric_mesh_is_one_input_error(tmp_path, warnings):
    # q^40 overflows for q = 1e8: the mesh is rejected as bad input, with
    # no numpy RuntimeWarning ahead of the message and none raised as an
    # error, and nothing is written
    src = os.path.dirname(os.path.dirname(splineproj.__file__))
    proc = subprocess.run(
        [sys.executable, *warnings, "-m", "splineproj.cli", "gram", "--k", "2",
         "--partition", "geometric:40:1e8", "-o", str(tmp_path / "out")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error:")
    assert proc.stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("levels", [["--levels", "2"],
                                    ["--min-level", "3", "--levels", "4"]],
                         ids=["two", "three-four"])
def test_expect_order_needs_three_levels(tmp_path, capsys, levels):
    # the observed order is a slope over the last three levels
    argv = ["converge", "--k", "2", "--function", "sin", *levels,
            "--expect-order", "1", "-o", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "input error:" in err and "options.expect_order" in err
    assert not (tmp_path / "converge_report.json").exists()


@pytest.mark.parametrize("argv", [
    ["maximal", "--function", "sin", "--grid", "4"],
    ["dominate", "--k", "2", "--function", "sin", "--levels", "3", "--grid", "4"],
    ["weak11", "--k", "2", "--function", "sin", "--levels", "3", "--grid", "4"],
    ["kernel", "--k", "3", "--partition", "uniform:8", "--eval-grid", "0"],
], ids=["maximal", "dominate", "weak11", "kernel-eval-grid"])
def test_grid_sizes_are_checked(tmp_path, capsys, argv):
    # a maximal-function grid under 16 cells or an empty evaluation grid is
    # bad input, not a PASS on a degenerate grid
    assert main(argv + ["-o", str(tmp_path)]) == 2
    assert "input error:" in capsys.readouterr().err


@pytest.mark.parametrize("probes", ["0", "0.1;0.2", "-3"])
def test_kernel_probes_checked_before_writing(tmp_path, capsys, probes):
    # the number of constant-reproduction probes must be an integer >= 1,
    # rejected before kernel_values.csv is written
    argv = ["kernel", "--k", "3", "--partition", "uniform:8", "--eval-grid", "4",
            "--probes", probes, "-o", str(tmp_path)]
    if probes == "0.1;0.2":
        # not an integer: the parser rejects the flag
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --probes" in capsys.readouterr().err
    else:
        assert main(argv) == 2
        assert "options.probes" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    with pytest.raises(ValidationError, match="options.probes"):
        make_cfg(command="kernel", partition="uniform:8", options={"probes": 2.0})
    assert main(argv[:-3] + ["5", "-o", str(tmp_path)]) == 0


def test_gram_payload_matches_dense_scaled_gram(tmp_path):
    from splineproj import assemble_gram, scaled_gram
    from splineproj.cli import resolve_partition
    cfg = make_cfg(command="gram", k=4, partition="random:40:3",
                   output_dir=str(tmp_path))
    status = run_experiment(cfg)
    rep = json.loads((tmp_path / "gram_report.json").read_text())
    K = resolve_partition(cfg)
    G = scaled_gram(assemble_gram(K), K)
    dev = np.abs(G.sum(axis=1) - 1.0).max()
    # row sums near 1 summed in another order: compare relative to the sums
    assert rep["scaled_row_sum_deviation"] == pytest.approx(dev, rel=0, abs=1e-15)
    assert rep["scaled_norm_inf"] == pytest.approx(np.abs(G).sum(axis=1).max(),
                                                   rel=1e-15, abs=0)
    assert rep["scaled_norm_1"] == pytest.approx(np.abs(G).sum(axis=0).max(),
                                                 rel=1e-15, abs=0)
    # each row sum is 1 up to roundoff in the knot differences
    t, k = K.t, K.k
    unit = np.finfo(float).eps * np.maximum(np.abs(t[:-k]), np.abs(t[k:])) / K.kappa
    ok = bool((np.abs(G.sum(axis=1) - 1.0) <= 32 * unit).all())
    assert rep["checks"][0]["passed"] == ok
    assert status == (0 if ok else 1)


@pytest.mark.parametrize("scale, status", [(1.0, 0), (1.0 + 1e-9, 1)],
                         ids=["exact", "perturbed"])
def test_gram_row_sums_within_roundoff(tmp_path, monkeypatch, scale, status):
    # at 4000 intervals roundoff alone exceeds a fixed 1e-13 (5.3e-13 here)
    # but stays within the per-row bound; one band entry off by 1e-9 does not
    import splineproj.cli as cli
    assemble = cli.assemble_gram

    def perturbed(K):
        G = assemble(K)
        G.band[K.n // 2, 0] *= scale
        return G

    monkeypatch.setattr(cli, "assemble_gram", perturbed)
    assert main(["gram", "--k", "4", "--partition", "random:4000:945964",
                 "-o", str(tmp_path)]) == status
    check = json.loads((tmp_path / "gram_report.json").read_text())["checks"][0]
    assert check["name"] == "scaled_row_sums"
    assert check["passed"] == (status == 0)


def test_cli_output_goes_to_dash_o(tmp_path, monkeypatch):
    # no environment variable redirects the files: they land in -o, the
    # directory the report names
    monkeypatch.setenv("SPLINEPROJ_OUT", str(tmp_path / "envout"))
    outdir = tmp_path / "out"
    status = main(["gram", "--k", "2", "--partition", "uniform:8", "-o", str(outdir)])
    assert status == 0
    rep = json.loads((outdir / "gram_report.json").read_text())
    assert rep["config"]["output_dir"] == str(outdir)
    assert (outdir / "gram_banded.csv").exists()
    assert not (tmp_path / "envout").exists()


def test_cli_family_flags(tmp_path):
    status = main(["verify-decay", "--k", "2", "--partition", "geometric:50:4",
                   "-o", str(tmp_path)])
    assert status == 0


def test_cli_config_file(tmp_path):
    cfgfile = tmp_path / "exp.json"
    cfgfile.write_text(serialize_config(make_cfg(output_dir=str(tmp_path))))
    assert main(["basis-eval", "--config", str(cfgfile)]) == 0
    assert main(["project", "--config", str(cfgfile)]) == 2  # command mismatch
    assert main(["basis-eval", "--config", str(cfgfile), "--k", "5"]) == 2


def test_cli_knot_file_partition(tmp_path):
    from splineproj import generate_partition, PartitionSpec
    K = generate_partition(PartitionSpec("random", 9, seed=4), 3)
    kf = tmp_path / "knots.txt"
    kf.write_text(K.to_text())
    status = main(["gram", "--k", "3", "--partition", str(kf),
                   "-o", str(tmp_path)])
    assert status == 0
    # a knot file off the configured interval, or with a NaN knot, is bad
    # input and writes nothing
    out = tmp_path / "fresh"
    wide = generate_partition(PartitionSpec("random", 9, seed=4), 3, (0.0, 2.0))
    kf.write_text(wide.to_text())
    assert main(["project", "--k", "3", "--function", "x", "--partition", str(kf),
                 "-o", str(out)]) == 2
    lines = K.to_text().splitlines()
    lines[4] = "nan"  # the first interior knot, after the header and k zeros
    kf.write_text("\n".join(lines) + "\n")
    assert main(["gram", "--k", "3", "--partition", str(kf), "-o", str(out)]) == 2
    assert main(["project", "--k", "3", "--function", "x", "--partition", str(kf),
                 "-o", str(out)]) == 2
    assert not out.exists()


def test_stability_cli(tmp_path):
    cfg = make_cfg(command="stability", k=2, partition="uniform:20")
    cfg, status = run_in(tmp_path, cfg)
    assert status == 0
    rep = json.loads((tmp_path / "stability_report.json").read_text())
    assert rep["stability"]["d_hat"] >= 1.0


SWEEP = [
    ("basis-eval", dict(partition="uniform:8")),
    ("gram", dict(partition="geometric:8:2.0")),
    ("invert", dict(partition="random:10")),
    ("kernel", dict(partition="uniform:12", options={"eval_grid": 16, "probes": 5})),
    ("project", dict(partition="uniform:8", function="cos")),
    ("verify-decay", dict(partition="uniform:40")),
    ("verify-kernel-bound", dict(partition="uniform:24")),
    ("verify-lemma", dict(partition="random:40")),
    ("maximal", dict(function="absdist:0.3", options={"eval_grid": 32, "grid": 256})),
    ("dominate", dict(function="step:0.5", levels=(3, 4, 5),
                      options={"eval_grid": 64, "grid": 512})),
    ("weak11", dict(function="runge", levels=(1, 2, 3),
                    options={"eval_grid": 512, "grid": 512})),
    ("converge", dict(function="sin", levels=(2, 3, 4, 5))),
    ("stability", dict(partition="uniform:16")),
]


@pytest.mark.parametrize("command,kw", SWEEP, ids=[c for c, _ in SWEEP])
def test_every_subcommand_end_to_end(tmp_path, command, kw):
    cfg = ExperimentConfig(command=command, k=3, seed=1,
                           output_dir=str(tmp_path), **kw)
    assert run_experiment(cfg) == 0
    name = command.replace("-", "_") + "_report.json"
    rep = json.loads((tmp_path / name).read_text())
    assert rep["passed"] is True
    assert rep["schema"] == 1
    assert rep["config"]["command"] == command


def _documented_argvs():
    """The benchmark's experiments, the CI smoke commands and README's examples."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argvs = [argv for w in workloads.WORKLOADS for s in range(4)
             for argv in workloads.experiments(w, s)]
    for name in (os.path.join(".github", "workflows", "tests.yml"), "README.md"):
        with open(os.path.join(ROOT, name)) as fh:
            for line in fh:
                if line.lstrip().startswith("splineproj "):
                    argvs.append(shlex.split(line, comments=True)[1:])
    return argvs


def test_documented_commands_parse_and_validate(tmp_path):
    argvs = _documented_argvs()
    assert {argv[0] for argv in argvs} == set(COMMANDS)
    for argv in argvs:
        args = build_parser().parse_args(argv + ["-o", str(tmp_path)])
        cfg = config_from_args(args)
        assert cfg.command == argv[0]


@pytest.mark.parametrize("argv", [
    ["gram", "--function", "sin"],
    ["verify-decay", "--trials", "9"],
    ["dominate", "--partition", "uniform:8", "--function", "sin"],
], ids=["gram-function", "decay-trials", "dominate-partition"])
def test_unread_flag_is_a_parse_error(tmp_path, capsys, argv):
    # each command takes only the flags it reads
    with pytest.raises(SystemExit) as exc:
        main(argv + ["-o", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, field", [
    (dict(command="stability", partition="uniform:8", options={"trials": 3.7}),
     "options.trials"),
    (dict(command="maximal", function="sin", options={"grid": "512"}), "options.grid"),
    (dict(command="basis-eval", partition="uniform:8", options={"eval_grid": True}),
     "options.eval_grid"),
    (dict(command="gram", partition="uniform:8", options={"max_n": 10}), "options.max_n"),
    (dict(command="verify-decay", partition="uniform:8", options={"trials": 9}),
     "options.trials"),
    (dict(command="converge", partition="uniform:8", function="sin"), "partition"),
    (dict(command="gram", partition="uniform:8", k=True), "k"),
    # json reads the bare tokens NaN and Infinity, 1e400 as inf, and an int
    # of any size
    (dict(command="converge", function="sin", levels=[1, 2, 3],
          options={"expect_order": float("nan")}), "options.expect_order"),
    (dict(command="converge", function="sin", levels=[1, 2, 3],
          options={"expect_order": float("-inf")}), "options.expect_order"),
    (dict(command="converge", function="sin", levels=[1, 2, 3],
          options={"expect_order": 10 ** 400}), "options.expect_order"),
    (dict(command="gram", partition="uniform:8", interval=[0, 10 ** 400]), "interval"),
], ids=["float-for-int", "string-for-int", "bool-for-int", "unknown-key",
        "unread-option", "unread-partition", "bool-k", "nan-option", "inf-option",
        "huge-int-option", "huge-int-interval"])
def test_config_values_checked_before_writing(tmp_path, capsys, doc, field):
    # a wrong type or a field the command does not read is bad input: exit 2
    # with nothing written, not a silent conversion or a silently unused value
    cfgfile = tmp_path / "exp.json"
    cfgfile.write_text(json.dumps({**doc, "output_dir": str(tmp_path / "out")}))
    assert main([doc["command"], "--config", str(cfgfile)]) == 2
    assert f"config field {field!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, doc, field", [
    (["converge", "--k", "2", "--function", "sin", "--min-level", "2"], None, "levels"),
    (["gram", "--k", "3", "--partition", "KNOTS"], None, "partition"),
    (["gram", "--k", "2", "--partition", "uniform:abc"], None, "partition"),
    (["converge", "--k", "2", "--function", "sin", "--levels", "15"], None, "levels"),
    (["gram", "--k", "2"], None, "partition"),
    (["maximal"], None, "function"),
    (None, dict(command="gram", partition="uniform:8", schema=2), "schema"),
    (None, dict(command="gram", partition="uniform:8", seed=1.5), "seed"),
    (None, dict(command="gram", partition=5), "partition"),
    (None, dict(command="gram", partition="uniform:8", options=[]), "options"),
], ids=["min-level-alone", "knot-file-order", "bad-count", "level-cap",
        "no-partition", "no-function", "schema", "float-seed", "int-partition",
        "list-options"])
def test_input_is_validated_before_writing(tmp_path, capsys, argv, doc, field):
    # flags and config fields that violate a constraint are bad input: exit
    # 2 with nothing written; the knot file is of order 2
    out = tmp_path / "out"
    knots = tmp_path / "knots.txt"
    knots.write_text(splineproj.make_knot_sequence([0, 0.5, 1], [1], 2).to_text())
    if doc is not None:
        cfgfile = tmp_path / "exp.json"
        cfgfile.write_text(json.dumps({**doc, "output_dir": str(out)}))
        argv = [doc["command"], "--config", str(cfgfile)]
    else:
        argv = [str(knots) if a == "KNOTS" else a for a in argv] + ["-o", str(out)]
    assert main(argv) == 2
    assert f"input error: config field {field!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_float_flag_is_input_error(tmp_path, capsys, value):
    # a float option must be finite: exit 2 with nothing written, not a
    # FAIL of observed_order, and never a bare Infinity in the config
    argv = ["converge", "--k", "2", "--function", "sin", "--levels", "3",
            f"--expect-order={value}", "-o", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "config field 'options.expect_order'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ValidationError, match="options.expect_order"):
        make_cfg(command="converge", partition=None, function="sin", levels=(1, 2, 3),
                 options={"expect_order": float(value)})


def test_integer_accepted_for_float_option(tmp_path):
    cfg = make_cfg(command="converge", partition=None, function="sin",
                   levels=(2, 3, 4), options={"expect_order": 1})
    assert parse_config(serialize_config(cfg)) == cfg


def test_parser_is_built_once():
    assert build_parser() is build_parser()


_CONVERGE = ["converge", "--k", "2", "--function", "step:0.5", "--levels", "4"]
#: A sequence through ``main`` that alternates commands and flags, with a bad
#: call and a ``--config`` call among them, and the status each must give.
_REENTRANT_CALLS = [
    (_CONVERGE + ["--eval-grid", "64", "--probes", "0.3;0.7"], 0),
    (_CONVERGE, 0),
    (["kernel", "--k", "3", "--partition", "uniform:8", "--eval-grid", "16"], 0),
    (["kernel", "--k", "x", "--partition", "uniform:8"], "exit 2"),
    (["gram", "--config"], 0),
    (_CONVERGE, 0),
]


def _run_calls(root):
    """Each call's exit status, report config without ``output_dir`` and CSV
    bytes, each call into a directory of its own under ``root``."""
    results = []
    for i, (argv, _) in enumerate(_REENTRANT_CALLS):
        out = str(root / str(i))
        if argv[-1] == "--config":
            path = root / f"{i}.json"
            path.write_text(json.dumps({"command": "gram", "k": 3,
                                        "partition": "random:9:4", "output_dir": out}))
            argv = argv + [str(path)]
        else:
            argv = argv + ["-o", out]
        try:
            status = main(argv)
        except SystemExit as exc:
            status = f"exit {exc.code}"
        config, tables = None, {}
        if os.path.isdir(out):
            [report] = [name for name in os.listdir(out) if name.endswith("_report.json")]
            with open(os.path.join(out, report)) as fh:
                config = json.load(fh)["config"]
            del config["output_dir"]
            for name in sorted(os.listdir(out)):
                if name.endswith(".csv"):
                    with open(os.path.join(out, name), "rb") as fh:
                        tables[name] = fh.read()
        results.append((status, config, tables))
    return results


def test_main_is_reentrant(tmp_path, monkeypatch, capsys):
    # the cached parser carries nothing from one call to the next: every
    # call writes what the same call writes with a parser of its own
    import splineproj.cli as cli

    (tmp_path / "cached").mkdir()
    (tmp_path / "fresh").mkdir()
    cached = _run_calls(tmp_path / "cached")
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    fresh = _run_calls(tmp_path / "fresh")
    assert cached == fresh
    assert [status for status, _, _ in cached] == [want for _, want in _REENTRANT_CALLS]
    assert cached[0][1]["options"] == {"eval_grid": 64, "probes": "0.3;0.7"}
    assert cached[1][1]["options"] == cached[-1][1]["options"] == {}
    assert all(tables for status, _, tables in cached if status == 0)
    assert "invalid int value: 'x'" in capsys.readouterr().err
