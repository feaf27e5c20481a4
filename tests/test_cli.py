import json

import numpy as np
import pytest

from splineproj.cli import (
    ExperimentConfig,
    ParseError,
    ValidationError,
    main,
    parse_config,
    run_experiment,
    serialize_config,
)


def make_cfg(**kw):
    base = dict(command="basis-eval", k=2, partition="uniform:8",
                output_dir="out")
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_round_trip_identity():
    rng = np.random.default_rng(0)
    commands = ("basis-eval", "project", "converge", "verify-decay")
    for _ in range(50):
        cfg = ExperimentConfig(
            command=str(rng.choice(commands)),
            k=int(rng.integers(1, 11)),
            partition=f"uniform:{int(rng.integers(1, 40))}",
            function="sin" if rng.random() < 0.5 else None,
            levels=tuple(int(v) for v in range(1, int(rng.integers(2, 8))))
            if rng.random() < 0.5 else None,
            interval=(0.0, float(rng.integers(1, 5))),
            seed=int(rng.integers(0, 1000)),
            options={"eval_grid": int(rng.integers(16, 64))},
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
    assert (tmp_path / "decay_profile.csv").exists()


def test_converge_cli(tmp_path):
    cfg = make_cfg(command="converge", k=2, partition=None,
                   function="step:0.5", levels=tuple(range(1, 7)))
    cfg, status = run_in(tmp_path, cfg)
    assert status == 0
    rep = json.loads((tmp_path / "converge_report.json").read_text())
    assert len(rep["convergence"]["levels"]) == 6
    assert all(np.isfinite(lv["sup_error"]) for lv in rep["convergence"]["levels"])


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


def test_exit_code_numerical_failure(tmp_path):
    # a tolerance no singular integrand can reach
    cfg = ExperimentConfig(command="invert", k=2,
                           partition="uniform:3000",
                           output_dir=str(tmp_path))
    assert run_experiment(cfg) == 2  # above the documented inversion limit

    from splineproj.cli import HANDLERS
    from splineproj import QuadratureNonConvergence

    # numerical failure path, via a handler that raises during quadrature
    def broken(cfg):
        raise QuadratureNonConvergence("synthetic")
    old = dict(HANDLERS)
    HANDLERS["maximal"] = broken
    try:
        cfg = make_cfg(command="maximal", function="sin",
                       output_dir=str(tmp_path))
        assert run_experiment(cfg) == 3
    finally:
        HANDLERS.update(old)


@pytest.mark.parametrize("argv", [
    ["weak11", "--k", "3", "--function", "abspow:0.3:-0.5", "--levels", "6"],
    ["converge", "--k", "2", "--function", "abspow:0.3:-0.5", "--levels", "5"],
    ["maximal", "--function", "abspow:0.3:-0.5"],
], ids=["weak11", "converge", "maximal"])
def test_exit_code_non_finite_quadrature(tmp_path, capsys, argv):
    # bisection toward the singularity at 0.3 reaches pieces about 3e-13
    # wide, where a Gauss node rounds onto it: a numerical failure, not bad
    # input and not a FAIL
    with np.errstate(divide="ignore", invalid="ignore"):
        assert main(argv + ["-o", str(tmp_path)]) == 3
    assert "numerical failure:" in capsys.readouterr().err


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
    assert rep["checks"][0]["passed"] == bool(dev <= 1e-13)
    assert status == (0 if dev <= 1e-13 else 1)


def test_cli_main_and_env_override(tmp_path, monkeypatch):
    outdir = tmp_path / "envout"
    monkeypatch.setenv("SPLINEPROJ_OUT", str(outdir))
    status = main(["gram", "--k", "2", "--partition", "uniform:8",
                   "-o", str(tmp_path / "ignored")])
    assert status == 0
    assert (outdir / "gram_report.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_cli_family_flags(tmp_path):
    status = main(["verify-decay", "--k", "2", "--family", "geometric",
                   "--ratio", "4", "--n", "50", "-o", str(tmp_path)])
    assert status == 0


def test_cli_config_file(tmp_path):
    cfgfile = tmp_path / "exp.json"
    cfgfile.write_text(serialize_config(make_cfg(output_dir=str(tmp_path))))
    assert main(["basis-eval", "--config", str(cfgfile)]) == 0
    assert main(["project", "--config", str(cfgfile)]) == 2  # command mismatch


def test_cli_knot_file_partition(tmp_path):
    from splineproj import generate_partition, PartitionSpec
    K = generate_partition(PartitionSpec("random", 9, seed=4), 3)
    kf = tmp_path / "knots.txt"
    kf.write_text(K.to_text())
    status = main(["gram", "--k", "3", "--partition", str(kf),
                   "-o", str(tmp_path)])
    assert status == 0


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
