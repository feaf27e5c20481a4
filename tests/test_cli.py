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


@pytest.mark.parametrize("command", ["verify-decay", "verify-lemma",
                                     "verify-kernel-bound", "kernel", "invert"])
def test_unrefined_inverse_is_exit_3(tmp_path, capsys, monkeypatch, command):
    # a cached factor with its diagonal scaled by 1.03: three refinement
    # sweeps leave the inverse's columns at a residual near 1e-4, which is a
    # numerical failure, not a certificate read from a wrong inverse
    import splineproj.cli as cli

    def inexact(K):
        G = splineproj.assemble_gram(K)
        fac = G.factor().copy()
        fac[-1] *= 1.03
        return splineproj.GramMatrix(G.order, G.bands, fac)
    monkeypatch.setattr(cli, "assemble_gram", inexact)
    argv = [command, "--k", "4", "--partition", "random:297:1", "-o", str(tmp_path)]
    assert main(argv) == 3
    assert "numerical failure: inverse residual" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["project", "--k", "4", "--partition", "random:297:1", "--function", "sin"],
    ["converge", "--k", "4", "--function", "sin", "--levels", "8"],
    ["dominate", "--k", "3", "--function", "sin", "--levels", "6"],
    ["weak11", "--k", "3", "--function", "step:0.3", "--levels", "6"],
], ids=lambda argv: argv[0])
def test_unrefined_solve_is_exit_3(tmp_path, capsys, monkeypatch, argv):
    # the same inexact factor under the projection's banded solve: three
    # refinement sweeps leave coefficients with a residual far above
    # 1e-10 max |b|, a numerical failure, not errors read from a wrong spline
    import splineproj.cli as cli
    from splineproj import projection

    def inexact(K):
        G = splineproj.assemble_gram(K)
        fac = G.factor().copy()
        fac[-1] *= 1.03
        return splineproj.GramMatrix(G.order, G.bands, fac)
    for module in (cli, projection):
        monkeypatch.setattr(module, "assemble_gram", inexact)
    assert main(argv + ["-o", str(tmp_path)]) == 3
    assert "numerical failure: solve residual" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_zero_kernel_is_exit_3(tmp_path, capsys, monkeypatch):
    # an inverse served as zero columns leaves no sampled kernel value above
    # the zero floor: a numerical failure, not an input error
    from splineproj import analysis, projection

    def zero_columns(G0, cols):
        return np.zeros((G0.n, len(cols)), order="F"), 0.0
    for module in (analysis, projection):
        monkeypatch.setattr(module, "inverse_columns", zero_columns)
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


def test_converge_cli(tmp_path):
    cfg = make_cfg(command="converge", k=2, partition=None,
                   function="step:0.5", levels=tuple(range(1, 7)))
    cfg, status = run_in(tmp_path, cfg)
    assert status == 0
    rep = json.loads((tmp_path / "converge_report.json").read_text())
    assert len(rep["convergence"]["levels"]) == 6
    assert all(np.isfinite(lv["sup_error"]) for lv in rep["convergence"]["levels"])


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
        G.bands[-1, K.n // 2] *= scale
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
], ids=["float-for-int", "string-for-int", "bool-for-int", "unknown-key",
        "unread-option", "unread-partition", "bool-k"])
def test_config_values_checked_before_writing(tmp_path, capsys, doc, field):
    # a wrong type or a field the command does not read is bad input: exit 2
    # with nothing written, not a silent conversion or a silently unused value
    cfgfile = tmp_path / "exp.json"
    cfgfile.write_text(json.dumps({**doc, "output_dir": str(tmp_path / "out")}))
    assert main([doc["command"], "--config", str(cfgfile)]) == 2
    assert f"config field {field!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integer_accepted_for_float_option(tmp_path):
    cfg = make_cfg(command="converge", partition=None, function="sin",
                   levels=(2, 3, 4), options={"expect_order": 1})
    assert parse_config(serialize_config(cfg)) == cfg
