"""Experiment runner: one subcommand per operation, JSON + CSV reports.

Every run resolves its inputs into an ExperimentConfig, embeds the resolved
config in the JSON report (schema 1), and writes CSV tables next to it.
Identical configs produce byte-identical CSV output; the JSON carries a
timestamp and is not byte-stable.  Exit status: 0 all declared checks pass,
1 a check failed, 2 bad input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field, is_dataclass

import numpy as np

from . import analysis
from .bspline import eval_basis_many
from .errors import (
    NonIntegrableMarker,
    NotPositiveDefinite,
    QuadratureNonConvergence,
    SplineProjError,
    SymmetryViolation,
)
from .functions import TestFunction, default_probes, parse_function
from .gram import assemble_gram, invert_gram
from .knots import KnotSequence, PartitionSpec, dyadic_ladder, generate_partition
from .projection import (
    default_moment_tol,
    galerkin_residual,
    kernel_constant_integral,
    kernel_values,
    project,
)
from .quadrature import integrate_adaptive

SCHEMA_VERSION = 1
OUTPUT_ENV_VAR = "SPLINEPROJ_OUT"
COMMANDS = (
    "basis-eval", "gram", "invert", "kernel", "project",
    "verify-decay", "verify-kernel-bound", "verify-lemma",
    "maximal", "dominate", "weak11", "converge", "stability",
)
DEFAULT_MAX_INVERT_N = 2000
#: Rows of a CSV table formatted at once by ``write_csv``.
_CSV_ROWS = 8192


class ParseError(SplineProjError, ValueError):
    """Config document is not well-formed; carries position information."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else f"{message} (at position {position})")
        self.position = position


class ValidationError(SplineProjError, ValueError):
    """A config field violates its constraint."""

    def __init__(self, fieldname, constraint):
        super().__init__(f"config field {fieldname!r}: {constraint}")
        self.fieldname = fieldname
        self.constraint = constraint


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    k: int = 2
    partition: str | None = None
    function: str | None = None
    levels: tuple[int, ...] | None = None
    interval: tuple[float, float] = (0.0, 1.0)
    seed: int = 0
    options: dict = field(default_factory=dict)
    output_dir: str = "out"

    def __post_init__(self):
        validate_config(self)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON config document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, position=exc.pos) from exc
    if not isinstance(doc, dict):
        raise ParseError("config document must be a JSON object")
    schema = doc.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ValidationError("schema", f"must be {SCHEMA_VERSION}, got {schema}")
    known = {"schema", "command", "k", "partition", "function", "levels",
             "interval", "seed", "options", "output_dir"}
    for key in doc:
        if key not in known:
            raise ValidationError(key, "unknown field")
    cfg = ExperimentConfig(
        command=doc.get("command", ""),
        k=doc.get("k", 2),
        partition=doc.get("partition"),
        function=doc.get("function"),
        levels=tuple(doc["levels"]) if doc.get("levels") is not None else None,
        interval=tuple(doc.get("interval", (0.0, 1.0))),
        seed=doc.get("seed", 0),
        options=dict(doc.get("options", {})),
        output_dir=doc.get("output_dir", "out"),
    )
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    return json.dumps({"schema": SCHEMA_VERSION, **asdict(cfg)}, sort_keys=True, indent=2)


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.command not in COMMANDS:
        raise ValidationError("command", f"must be one of {COMMANDS}, got {cfg.command!r}")
    if not isinstance(cfg.k, int) or not 1 <= cfg.k <= 10:
        raise ValidationError("k", f"must be an integer in [1, 10], got {cfg.k!r}")
    if len(cfg.interval) != 2 or not cfg.interval[0] < cfg.interval[1]:
        raise ValidationError("interval", f"need a < b, got {cfg.interval!r}")
    if not isinstance(cfg.seed, int):
        raise ValidationError("seed", f"must be an integer, got {cfg.seed!r}")
    if cfg.levels is not None:
        if not cfg.levels or any(not isinstance(l, int) or not 1 <= l <= 14
                                 for l in cfg.levels):
            raise ValidationError("levels", f"must be integers in [1, 14], got {cfg.levels!r}")
        if cfg.command == "converge" and "expect_order" in cfg.options \
                and len(cfg.levels) < 3:
            raise ValidationError("options.expect_order", "needs at least 3 levels")
    for key, val in cfg.options.items():
        if not isinstance(val, (int, float, str, bool)):
            raise ValidationError(f"options.{key}", "must be a scalar")
    probes = cfg.options.get("probes", 1)
    if cfg.command == "kernel" and not (str(probes).isdecimal() and int(probes) >= 1):
        raise ValidationError("options.probes",
                              f"must be an integer >= 1, got {probes!r}")
    eval_grid = cfg.options.get("eval_grid", 1)
    if not isinstance(eval_grid, int) or eval_grid < 1:
        raise ValidationError("options.eval_grid",
                              f"must be an integer >= 1, got {eval_grid!r}")


# ---------------------------------------------------------------------------
# input resolution
# ---------------------------------------------------------------------------

def resolve_partition(cfg: ExperimentConfig) -> KnotSequence:
    """Partition from a spec string (``family:params``) or a knot file."""
    text = cfg.partition
    if text is None:
        raise ValidationError("partition", "required for this command")
    if os.path.exists(text):
        with open(text) as fh:
            K = KnotSequence.from_text(fh.read())
        if K.k != cfg.k:
            raise ValidationError(
                "partition", f"knot file has order {K.k}, config says {cfg.k}")
        return K
    parts = text.split(":")
    fam = parts[0]
    try:
        if fam in ("uniform", "dyadic"):
            spec = PartitionSpec(fam, int(parts[1]))
        elif fam == "geometric":
            spec = PartitionSpec(fam, int(parts[1]), ratio=float(parts[2]))
        elif fam == "random":
            seed = int(parts[2]) if len(parts) > 2 else cfg.seed
            spec = PartitionSpec(fam, int(parts[1]), seed=seed)
        else:
            raise ValidationError("partition", f"unknown family {fam!r}")
    except (IndexError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError("partition", f"bad spec {text!r}: {exc}") from exc
    return generate_partition(spec, cfg.k, cfg.interval)


def resolve_function(cfg: ExperimentConfig) -> TestFunction:
    if cfg.function is None:
        raise ValidationError("function", "required for this command")
    try:
        return parse_function(cfg.function)
    except (ValueError, NonIntegrableMarker) as exc:
        raise ValidationError("function", str(exc)) from exc


def resolve_ladder(cfg: ExperimentConfig):
    levels = cfg.levels if cfg.levels is not None else tuple(range(1, 7))
    return dyadic_ladder(cfg.k, levels, cfg.interval), levels


def opt(cfg, name, default):
    val = cfg.options.get(name, default)
    return type(default)(val)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _atomic_write(path: str, chunks) -> None:
    """Write the strings of ``chunks`` to a temporary file, then rename it."""
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, rows) -> None:
    """Write a 2-D rows-by-columns array; every cell is formatted ``%.17g``.

    Rows are formatted and written ``_CSV_ROWS`` at a time, so the Python
    floats and text of one slice are all that is held beside ``rows``.
    """
    rows = np.asarray(rows, dtype=float)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"

    def chunks():
        yield ",".join(header) + "\n"
        for s in range(0, rows.shape[0], _CSV_ROWS):
            part = rows[s: s + _CSV_ROWS]
            yield (line * part.shape[0]) % tuple(part.ravel().tolist())

    _atomic_write(path, chunks())


def write_report(cfg: ExperimentConfig, payload: dict, checks) -> str:
    doc = {
        "schema": SCHEMA_VERSION,
        "command": cfg.command,
        "config": json.loads(serialize_config(cfg)),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "checks": [{"name": n, "passed": bool(ok), "detail": detail}
                   for n, ok, detail in checks],
        "passed": all(ok for _, ok, _ in checks),
        **payload,
    }
    path = os.path.join(_outdir(cfg), f"{cfg.command.replace('-', '_')}_report.json")
    _atomic_write(path, [json.dumps(doc, sort_keys=True, indent=2,
                                    default=_json_default) + "\n"])
    return path


def _json_default(v):
    """JSON form of report dataclasses and numpy values."""
    if is_dataclass(v):
        return asdict(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer, np.bool_)):
        return v.item()
    raise TypeError(f"not JSON serializable: {type(v)}")


def _outdir(cfg):
    outdir = os.environ.get(OUTPUT_ENV_VAR, cfg.output_dir)
    os.makedirs(outdir, exist_ok=True)
    return outdir


def _grid(cfg, name="eval_grid", default=256):
    a, b = cfg.interval
    m = opt(cfg, name, default)
    return a + (b - a) * (np.arange(m) + 0.5) / m


# ---------------------------------------------------------------------------
# command handlers: each returns (payload, checks)
# ---------------------------------------------------------------------------

def run_basis_eval(cfg):
    K = resolve_partition(cfg)
    xs = _grid(cfg)
    first, vals = eval_basis_many(K, xs)
    rows = np.column_stack([np.repeat(xs, K.k),
                            (first[:, None] + np.arange(K.k)).ravel(), vals.ravel()])
    write_csv(os.path.join(_outdir(cfg), "basis_values.csv"),
              ("x", "i", "N_i"), rows)
    dev = float(np.abs(vals.sum(axis=1) - 1.0).max())
    checks = [("partition_of_unity", dev <= 1e-13, f"max |sum - 1| = {dev:.3e}")]
    return {"n": K.n, "mesh": K.mesh, "unity_deviation": dev}, checks


def run_gram(cfg):
    K = resolve_partition(cfg)
    G0 = assemble_gram(K)
    # upper band row by row: (i, i + d) for d = 0 .. k-1 inside the matrix
    i, d = np.divmod(np.arange(K.n * K.k), K.k)
    keep = i + d < K.n
    i, d = i[keep], d[keep]
    rows = np.column_stack([i, i + d, G0.entry(i, i + d)])
    write_csv(os.path.join(_outdir(cfg), "gram_banded.csv"),
              ("i", "j", "value"), rows)
    # nonnegative entries: row sums are the inf-norm, G0 (k / kappa) the column sums
    scale = K.k / K.kappa
    rs = G0.row_sums() * scale
    err = np.abs(rs - 1.0)
    dev = float(err.max())
    # the row sum is exactly kappa_i / k, so err is roundoff in the knot
    # differences: count it in units of eps max(|t_i|, |t_i+k|) / kappa_i
    t, k = K.t, K.k
    unit = np.finfo(float).eps * np.maximum(np.abs(t[:-k]), np.abs(t[k:])) / K.kappa
    units = float((err / unit).max())
    checks = [("scaled_row_sums", units <= 32.0,
               f"max |row sum - 1| = {dev:.3e} = {units:.2f} roundoff units (bound 32)")]
    payload = {
        "n": K.n,
        "bandwidth": K.k - 1,
        "scaled_row_sum_deviation": dev,
        "scaled_norm_inf": float(rs.max()),
        "scaled_norm_1": float(G0.matvec(scale).max()),
    }
    return payload, checks


def run_invert(cfg):
    K = resolve_partition(cfg)
    max_n = opt(cfg, "max_n", DEFAULT_MAX_INVERT_N)
    if K.n > max_n:
        raise ValidationError("partition", f"n = {K.n} exceeds inversion limit {max_n}")
    A = invert_gram(assemble_gram(K))
    i, j = np.divmod(np.arange(K.n * K.n), K.n)
    rows = np.column_stack([i, j, A.entries.ravel()])
    write_csv(os.path.join(_outdir(cfg), "inverse_full.csv"),
              ("i", "j", "value"), rows)
    checks = [
        ("inverse_residual", A.residual <= 1e-9, f"max |G0 A - I| = {A.residual:.3e}"),
        ("inverse_symmetry", A.asymmetry <= 1e-10, f"relative asymmetry = {A.asymmetry:.3e}"),
    ]
    b = np.abs(A.entries * (K.kappa / K.k)[None, :])
    payload = {
        "n": K.n,
        "residual": A.residual,
        "asymmetry": A.asymmetry,
        "scaled_inverse_norm_inf": float(b.sum(axis=1).max()),
        "scaled_inverse_norm_1": float(b.sum(axis=0).max()),
    }
    return payload, checks


def run_kernel(cfg):
    K = resolve_partition(cfg)
    A = invert_gram(assemble_gram(K))
    xs = _grid(cfg, default=32)
    table = kernel_values(A, K, xs, xs)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    rows = np.column_stack([X.ravel(), Y.ravel(), table.ravel()])
    write_csv(os.path.join(_outdir(cfg), "kernel_values.csv"),
              ("x", "y", "K"), rows)
    rng = np.random.default_rng(cfg.seed)
    a, b = cfg.interval
    probes = rng.uniform(a, b, opt(cfg, "probes", 20))
    dev = max(abs(kernel_constant_integral(A, K, float(x)) - 1.0) for x in probes)
    sym = float(np.abs(table - table.T).max())
    checks = [
        ("constant_reproduction", dev <= 1e-9, f"max |int K dy - 1| = {dev:.3e}"),
        ("kernel_symmetry", sym <= 1e-10 * max(1.0, float(np.abs(table).max())),
         f"max |K(x,y) - K(y,x)| = {sym:.3e}"),
    ]
    return {"n": K.n, "constant_integral_deviation": dev}, checks


def run_project(cfg):
    K = resolve_partition(cfg)
    f = resolve_function(cfg)
    G0 = assemble_gram(K)
    pf = project(K, f, gram=G0)
    xs = _grid(cfg)
    fx, px = f(xs), pf(xs)
    write_csv(os.path.join(_outdir(cfg), "projection.csv"),
              ("x", "f", "Pf"), np.column_stack([xs, fx, px]))
    resid = float(np.abs(galerkin_residual(K, pf, f, gram=G0)).max())
    l1, _ = integrate_adaptive(lambda u: np.abs(f(u)), *cfg.interval,
                               markers=f.markers, tol=default_moment_tol(f))
    checks = [("galerkin_orthogonality", resid <= 1e-8 * max(l1, 1e-30),
               f"max |<f - Pf, N_j>| = {resid:.3e}, ||f||_1 = {l1:.3e}")]
    return {"n": K.n, "rhs_error": pf.rhs_error, "galerkin_residual": resid,
            "coefficients": pf.coeffs}, checks


def run_verify_decay(cfg):
    K = resolve_partition(cfg)
    A = invert_gram(assemble_gram(K))
    rep = analysis.decay_report(A, K)
    rows = np.column_stack([rep.offsets, rep.profile_scaled, rep.profile_b])
    write_csv(os.path.join(_outdir(cfg), "decay_profile.csv"),
              ("offset", "rho_scaled", "rho_b"), rows)
    if rep.diagonal:
        checks = [("diagonal_inverse", True, "order 1: all off-diagonal entries zero")]
    elif not rep.fitted:
        checks = [("fit_available", False, f"too small for a fit: n = {K.n} < 3k")]
    else:
        checks = [
            ("gamma_below_0.95", rep.gamma < 0.95, f"gamma = {rep.gamma:.4f}"),
            ("entrywise_bound", rep.residual_factor <= 1.0 + 1e-9,
             f"residual factor = {rep.residual_factor:.6f}"),
        ]
    return {"decay": rep}, checks


def run_verify_kernel_bound(cfg):
    K = resolve_partition(cfg)
    A = invert_gram(assemble_gram(K))
    rep = analysis.kernel_bound_report(A, K, opt(cfg, "samples_per_cell", 3))
    write_csv(os.path.join(_outdir(cfg), "kernel_bound.csv"),
              ("theta", "C"), np.column_stack([rep.theta_grid, rep.c_of_theta]))
    checks = [
        ("theta_below_one", 0.0 < rep.theta_hat < 1.0, f"theta = {rep.theta_hat:.3f}"),
        ("constant_finite", np.isfinite(rep.c_hat), f"C = {rep.c_hat:.4g}"),
    ]
    return {"kernel_bound": rep}, checks


def run_verify_lemma(cfg):
    K = resolve_partition(cfg)
    A = invert_gram(assemble_gram(K))
    dec = analysis.decay_report(A, K)
    gamma = max(dec.gamma_cert if dec.fitted else 0.5, 0.5)
    rep = analysis.lemma_constants(A, K, gamma)
    finite = all(v is not None and np.isfinite(v) for v in (rep.k1, rep.k2, rep.k3))
    checks = [("constants_finite", finite,
               f"K1 = {rep.k1:.4g}, K2 = {rep.k2}, K3 = {rep.k3}")]
    return {"constants": rep}, checks


def run_maximal(cfg):
    f = resolve_function(cfg)
    xs = _grid(cfg)
    grid_size = opt(cfg, "grid", 4096)
    vals = analysis._maximal_on_points(f, xs, cfg.interval, grid_size)
    write_csv(os.path.join(_outdir(cfg), "maximal.csv"),
              ("x", "M"), np.column_stack([xs, vals]))
    ok = bool(np.all(np.isfinite(vals)) and np.all(vals >= 0))
    checks = [("finite_nonnegative", ok, f"range [{vals.min():.4g}, {vals.max():.4g}]")]
    return {"grid": grid_size, "max_value": float(vals.max())}, checks


def run_dominate(cfg):
    f = resolve_function(cfg)
    ladder, levels = resolve_ladder(cfg)
    rep = analysis.domination_report(
        ladder, f, eval_grid=opt(cfg, "eval_grid", 512),
        maximal_grid=opt(cfg, "grid", 4096))
    rows = np.array([(lev, d["n"], d["mesh"], d["c_hat"])
                     for lev, d in zip(levels, rep.levels)])
    write_csv(os.path.join(_outdir(cfg), "domination.csv"),
              ("level", "n", "mesh", "c_hat"), rows)
    cs = [d["c_hat"] for d in rep.levels]
    stable = max(cs) <= 2.0 * min(cs)
    checks = [
        ("c_hat_finite", np.isfinite(rep.c_hat), f"c_hat = {rep.c_hat:.4g}"),
        ("c_hat_stable", stable, f"level spread = {max(cs) / min(cs):.3f}"),
    ]
    return {"domination": rep}, checks


def run_weak11(cfg):
    f = resolve_function(cfg)
    ladder, _ = resolve_ladder(cfg)
    rep = analysis.weak_type_report(
        ladder, f, eval_grid=opt(cfg, "eval_grid", 4096),
        maximal_grid=opt(cfg, "grid", 4096))
    write_csv(os.path.join(_outdir(cfg), "weak_type.csv"),
              ("t", "p_star_ratio", "maximal_ratio"),
              np.column_stack([rep.thresholds, rep.p_star_ratios, rep.maximal_ratios]))
    checks = [
        ("maximal_weak_constant", rep.maximal_constant <= 5.5,
         f"sup_t t m{{M>t}}/||f||_1 = {rep.maximal_constant:.4f}"),
        ("p_star_finite", np.isfinite(rep.p_star_constant),
         f"P* constant = {rep.p_star_constant:.4f}"),
    ]
    return {"weak_type": rep}, checks


def run_converge(cfg):
    f = resolve_function(cfg)
    ladder, levels = resolve_ladder(cfg)
    a, b = cfg.interval
    probes = cfg.options.get("probes")
    probes = ([float(p) for p in str(probes).split(";")] if probes
              else default_probes(f, a, b))
    rep = analysis.convergence_report(ladder, f, probes,
                                      sup_grid=opt(cfg, "eval_grid", 1024))
    rows = np.array([(lev, d["n"], d["mesh"], d["sup_error"],
                      *d["probe_errors"], d["omega_k"])
                     for lev, d in zip(levels, rep.levels)])
    hdr = ("level", "n", "mesh", "sup_error",
           *(f"probe_{i}" for i in range(len(probes))), "omega_k")
    write_csv(os.path.join(_outdir(cfg), "convergence.csv"), hdr, rows)
    checks = [("errors_finite",
               all(np.isfinite(d["sup_error"]) for d in rep.levels),
               f"last sup error = {rep.levels[-1]['sup_error']:.4g}")]
    expect = cfg.options.get("expect_order")
    if expect is not None:
        checks.append(("observed_order", rep.observed_order >= float(expect),
                       f"p = {rep.observed_order:.3f} vs {expect}"))
    return {"convergence": rep}, checks


def run_stability(cfg):
    K = resolve_partition(cfg)
    trials = opt(cfg, "trials", 64)
    rep = analysis.stability_constant(K, trials=trials, seed=cfg.seed)
    checks = [("d_hat_at_least_one", rep.d_hat >= 1.0 - 1e-12,
               f"d_hat = {rep.d_hat:.4f}")]
    return {"stability": rep}, checks


HANDLERS = {
    "basis-eval": run_basis_eval,
    "gram": run_gram,
    "invert": run_invert,
    "kernel": run_kernel,
    "project": run_project,
    "verify-decay": run_verify_decay,
    "verify-kernel-bound": run_verify_kernel_bound,
    "verify-lemma": run_verify_lemma,
    "maximal": run_maximal,
    "dominate": run_dominate,
    "weak11": run_weak11,
    "converge": run_converge,
    "stability": run_stability,
}


def run_experiment(cfg: ExperimentConfig) -> int:
    """Run one experiment; writes report files and returns the exit status."""
    try:
        payload, checks = HANDLERS[cfg.command](cfg)
    except (NotPositiveDefinite, SymmetryViolation, QuadratureNonConvergence) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (SplineProjError, FileNotFoundError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    path = write_report(cfg, payload, checks)
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    print(f"report: {path}")
    return 0 if all(ok for _, ok, _ in checks) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="splineproj",
        description="Orthogonal spline projection experiments",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd)
        p.add_argument("--config", help="JSON config file; other flags are ignored")
        p.add_argument("--k", type=int, default=2, help="spline order")
        p.add_argument("--partition", help="family spec like uniform:16, "
                       "geometric:16:2.0, random:16:7, or a knot file")
        p.add_argument("--family", help="partition family (with --n)")
        p.add_argument("--n", type=int, help="interval count for --family")
        p.add_argument("--ratio", type=float, default=2.0,
                       help="ratio for the geometric family")
        p.add_argument("--function", help="test function, e.g. sin, step:0.5, "
                       "abspow:0:-0.5")
        p.add_argument("--levels", type=int,
                       help="dyadic ladder goes over levels 1..LEVELS")
        p.add_argument("--min-level", type=int, default=1)
        p.add_argument("--interval", type=float, nargs=2, default=(0.0, 1.0),
                       metavar=("A", "B"))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", "-o", default="out",
                       help=f"output directory (env {OUTPUT_ENV_VAR} overrides)")
        p.add_argument("--eval-grid", type=int, help="evaluation grid size")
        p.add_argument("--grid", type=int, help="maximal-function grid size")
        p.add_argument("--probes", help="semicolon-separated probe points")
        p.add_argument("--trials", type=int, help="random trials (stability)")
        p.add_argument("--samples", type=int,
                       help="samples per interval pair (verify-kernel-bound)")
        p.add_argument("--expect-order", type=float,
                       help="fail converge unless the observed order reaches this")
    return ap


def config_from_args(args) -> ExperimentConfig:
    if args.config:
        with open(args.config) as fh:
            text = fh.read()
        cfg = parse_config(text)
        if cfg.command != args.command:
            raise ValidationError("command",
                                  f"config says {cfg.command!r}, invoked {args.command!r}")
        return cfg
    partition = args.partition
    if partition is None and args.family:
        if args.n is None:
            raise ValidationError("n", "required with --family")
        if args.family == "geometric":
            partition = f"geometric:{args.n}:{args.ratio}"
        elif args.family == "random":
            partition = f"random:{args.n}:{args.seed}"
        elif args.family in ("uniform", "dyadic"):
            partition = f"{args.family}:{args.n}"
        else:
            raise ValidationError("family", f"unknown family {args.family!r}")
    levels = None
    if args.levels is not None:
        levels = tuple(range(args.min_level, args.levels + 1))
    options = {}
    for name, key in (("eval_grid", "eval_grid"), ("grid", "grid"),
                      ("probes", "probes"), ("trials", "trials"),
                      ("samples", "samples_per_cell"),
                      ("expect_order", "expect_order")):
        val = getattr(args, name, None)
        if val is not None:
            options[key] = val
    return ExperimentConfig(
        command=args.command,
        k=args.k,
        partition=partition,
        function=args.function,
        levels=levels,
        interval=tuple(args.interval),
        seed=args.seed,
        options=options,
        output_dir=args.output,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except (ParseError, ValidationError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return run_experiment(cfg)


if __name__ == "__main__":
    sys.exit(main())
