"""Experiment runner: one subcommand per operation, JSON + CSV reports.

Every run resolves its inputs into an ExperimentConfig, embeds the resolved
config in the JSON report (schema 1), and writes CSV tables next to it.
Identical configs produce byte-identical CSV output; the JSON carries a
timestamp and is not byte-stable.  Exit status: 0 all declared checks pass,
1 a check failed, 2 bad input (an output directory that cannot be made or
written included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable

import numpy as np

from . import analysis, csvtext
from .bspline import eval_basis_many
from .errors import NonIntegrableMarker, RefinementFailure, SplineProjError
from .functions import TestFunction, default_probes, parse_function
from .gram import assemble_gram, invert_gram, solve_banded
from .knots import KnotSequence, PartitionSpec, dyadic_ladder, generate_partition
from .projection import (
    galerkin_residual,
    kernel_constant_integral,
    kernel_values,
    l1_norm,
    project,
)

SCHEMA_VERSION = 1
#: Largest n for which ``invert`` forms and writes the dense inverse.
MAX_INVERT_N = 2000
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
    return config_from_doc(doc)


def config_from_doc(doc: dict) -> ExperimentConfig:
    """Config from a field document, as JSON or the flags give it; absent
    fields take the dataclass defaults."""
    schema = doc.pop("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ValidationError("schema", f"must be {SCHEMA_VERSION}, got {schema}")
    known = {f.name for f in fields(ExperimentConfig)}
    for key in doc:
        if key not in known:
            raise ValidationError(key, "unknown field")
    doc = {"command": "", **doc}
    for key in ("levels", "interval"):
        if isinstance(doc.get(key), list):
            doc[key] = tuple(doc[key])
    return ExperimentConfig(**doc)


def serialize_config(cfg: ExperimentConfig) -> str:
    return json.dumps({"schema": SCHEMA_VERSION, **_json_value(cfg)},
                      sort_keys=True, indent=2)


def _is(val, typ) -> bool:
    """``isinstance``, where a bool is not a number and a float is any finite
    number: an int or a float within ``sys.float_info.max`` of zero."""
    if typ is float:
        return _is(val, (int, float)) and abs(val) <= sys.float_info.max
    return not isinstance(val, bool) and isinstance(val, typ)


def validate_config(cfg: ExperimentConfig) -> None:
    """Check each field against its constraint and the command's table entry."""
    if cfg.command not in COMMANDS:
        raise ValidationError("command",
                              f"must be one of {tuple(COMMANDS)}, got {cfg.command!r}")
    command = COMMANDS[cfg.command]
    if not _is(cfg.k, int) or not 1 <= cfg.k <= 10:
        raise ValidationError("k", f"must be an integer in [1, 10], got {cfg.k!r}")
    if not isinstance(cfg.interval, tuple) or len(cfg.interval) != 2 \
            or not all(_is(v, float) for v in cfg.interval) \
            or not cfg.interval[0] < cfg.interval[1]:
        raise ValidationError("interval", f"need finite a < b, got {cfg.interval!r}")
    if not _is(cfg.seed, int):
        raise ValidationError("seed", f"must be an integer, got {cfg.seed!r}")
    for name in ("partition", "function", "levels"):
        val = getattr(cfg, name)
        if val is not None and name not in command.inputs:
            raise ValidationError(name, f"not read by {cfg.command}")
        if val is not None and name != "levels" and not isinstance(val, str):
            raise ValidationError(name, f"must be a string, got {val!r}")
    if cfg.levels is not None:
        if not isinstance(cfg.levels, tuple) or not cfg.levels or any(
                not _is(l, int) or not 1 <= l <= 14 for l in cfg.levels):
            raise ValidationError("levels", f"must be integers in [1, 14], got {cfg.levels!r}")
    if not isinstance(cfg.options, dict):
        raise ValidationError("options", f"must be an object, got {cfg.options!r}")
    for key, val in cfg.options.items():
        if key not in command.options:
            raise ValidationError(f"options.{key}", f"not read by {cfg.command}")
        typ = command.options[key][0]
        # every integer option is a size or a count
        if not _is(val, typ) or (typ is int and val < 1):
            want = {int: "an integer >= 1", float: "a finite number", str: "a string"}[typ]
            raise ValidationError(f"options.{key}", f"must be {want}, got {val!r}")


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
        if (K.a, K.b) != cfg.interval:
            raise ValidationError(
                "partition", f"knot file is on [{K.a!r}, {K.b!r}], "
                f"config says {list(cfg.interval)!r}")
        return K
    fam, *fields = text.split(":")
    # each family takes exactly its own fields: the count, then the ratio
    # (geometric) or an optional seed (random)
    arity = {"uniform": (1,), "dyadic": (1,), "geometric": (2,), "random": (1, 2)}
    if fam not in arity:
        raise ValidationError("partition", f"unknown family {fam!r}")
    if len(fields) not in arity[fam]:
        raise ValidationError("partition", f"bad spec {text!r}: wrong field count")
    try:
        if fam == "geometric":
            spec = PartitionSpec(fam, int(fields[0]), ratio=float(fields[1]))
        elif fam == "random":
            seed = int(fields[1]) if len(fields) > 1 else cfg.seed
            spec = PartitionSpec(fam, int(fields[0]), seed=seed)
        else:
            spec = PartitionSpec(fam, int(fields[0]))
    except ValueError as exc:
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


def opt(cfg, name):
    """Option ``name`` of ``cfg``, or its default from the command table."""
    return cfg.options.get(name, COMMANDS[cfg.command].options[name][1])


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _atomic_write(path: str, chunks) -> None:
    """Write ``chunks``, bytes-like objects, to a temporary file, then rename it."""
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        # the mode open(path, "w") gives, not mkstemp's 0o600
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, rows) -> None:
    """Write a 2-D rows-by-columns array; every cell is formatted ``%.17g``.

    Rows are formatted and written ``_CSV_ROWS`` at a time: each slice gets
    its template rows from ``csvtext.table_templates``, narrow ones in a
    column whose values in the slice all print as integers, and is written
    as the template bytes with the dropped ones deleted: they are zeroed in
    place, and CSV text holds no NUL byte.
    """
    rows = np.asarray(rows, dtype=float)

    def chunks():
        yield (",".join(header) + "\n").encode()
        # one pair of template buffers, sized for a row of float templates
        # and refilled slice by slice
        size = min(_CSV_ROWS, rows.shape[0]) * rows.shape[1] * csvtext.WIDTH
        all_chars, all_keep = np.empty(size, np.uint8), np.empty(size, bool)
        for s in range(0, rows.shape[0], _CSV_ROWS):
            chars, keep = csvtext.table_templates(rows[s: s + _CSV_ROWS], all_chars, all_keep)
            np.multiply(chars, keep, out=chars)
            yield chars.tobytes().translate(None, b"\0")

    _atomic_write(path, chunks())


def write_report(cfg: ExperimentConfig, payload: dict, checks) -> str:
    doc = _json_value({
        "schema": SCHEMA_VERSION,
        "command": cfg.command,
        "config": {"schema": SCHEMA_VERSION, **_json_value(cfg)},
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "checks": [{"name": n, "passed": bool(ok), "detail": detail}
                   for n, ok, detail in checks],
        "passed": all(ok for _, ok, _ in checks),
        **payload,
    })
    path = os.path.join(cfg.output_dir, f"{cfg.command.replace('-', '_')}_report.json")
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    _atomic_write(path, [(text + "\n").encode()])
    return path


def _json_value(v):
    """``v`` as plain JSON values: dataclasses by their fields, dicts, lists
    and tuples item by item, arrays by ``tolist()`` and numpy scalars by
    ``item()``.  Strict JSON (RFC 8259) has no Infinity or NaN, so each
    non-finite float becomes the text of its CSV cell, ``"%.17g" % v``
    (``"inf"``, ``"-inf"`` or ``"nan"``); an array goes element by element
    only when it holds one."""
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float):
        return v if math.isfinite(v) else "%.17g" % v
    if isinstance(v, dict):
        return {key: _json_value(x) for key, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    if isinstance(v, np.ndarray):
        if v.dtype.kind == "f" and not np.isfinite(v).all():
            return _json_value(v.tolist())
        return v.tolist()
    if is_dataclass(v):
        return {f.name: _json_value(getattr(v, f.name)) for f in fields(v)}
    return v


# ---------------------------------------------------------------------------
# command handlers: each returns (payload, checks, tables); see ``Command``
# ---------------------------------------------------------------------------

def run_basis_eval(cfg, K):
    xs = analysis.midpoints(*cfg.interval, opt(cfg, "eval_grid"))
    first, vals = eval_basis_many(K, xs)
    rows = np.column_stack([np.repeat(xs, K.k),
                            (first[:, None] + np.arange(K.k)).ravel(), vals.ravel()])
    dev = float(np.abs(vals.sum(axis=1) - 1.0).max())
    checks = [("partition_of_unity", dev <= 1e-13, f"max |sum - 1| = {dev:.3e}")]
    return ({"n": K.n, "mesh": K.mesh, "unity_deviation": dev}, checks,
            {"basis_values.csv": (("x", "i", "N_i"), rows)})


def run_gram(cfg, K):
    G0 = assemble_gram(K)
    # upper band row by row: (i, i + d) for d = 0 .. k-1 inside the matrix
    i, d = np.divmod(np.arange(K.n * K.k), K.k)
    keep = i + d < K.n
    i, d = i[keep], d[keep]
    rows = np.column_stack([i, i + d, G0.entry(i, i + d)])
    # nonnegative entries: row sums are the inf-norm, G0 (k / kappa) the column sums
    scale = K.k / K.kappa
    rs = G0.matvec(np.ones(K.n)) * scale
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
    return payload, checks, {"gram_banded.csv": (("i", "j", "value"), rows)}


def run_invert(cfg, K):
    if K.n > MAX_INVERT_N:
        raise ValidationError("partition",
                              f"n = {K.n} exceeds inversion limit {MAX_INVERT_N}")
    G0 = assemble_gram(K)
    A = invert_gram(G0)
    n = K.n
    # the (i, j, value) table, filled through views of one array
    table = np.empty((n, n, 3))
    table[:, :, 0] = np.arange(n)[:, None]
    table[:, :, 1] = np.arange(n)[None, :]
    table[:, :, 2] = A.entries
    checks = [
        ("inverse_residual", A.residual <= 1e-9, f"max |G0 A - I| = {A.residual:.3e}"),
        ("inverse_symmetry", True, "the lower triangle is the upper one mirrored"),
    ]
    # norms of |a_ij| d_j, d = kappa / k.  G0 is totally positive (Karlin
    # 1968; de Boor 1976), so its inverse alternates in sign,
    # (-1)^(i+j) a_ij >= 0, and |A| x = s A (s x) with s_j = (-1)^j: each
    # norm is one solve through the cached factor
    d = K.kappa / K.k
    s = (-1.0) ** np.arange(n)
    payload = {
        "n": n,
        "residual": A.residual,
        "scaled_inverse_norm_inf": float(np.abs(solve_banded(G0, s * d)).max()),
        "scaled_inverse_norm_1": float((d * np.abs(solve_banded(G0, s))).max()),
    }
    return payload, checks, {"inverse_full.csv": (("i", "j", "value"),
                                                  table.reshape(n * n, 3))}


def run_kernel(cfg, K):
    G0 = assemble_gram(K)
    xs = analysis.midpoints(*cfg.interval, opt(cfg, "eval_grid"))
    table = kernel_values(G0, K, xs, xs)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    rows = np.column_stack([X.ravel(), Y.ravel(), table.ravel()])
    rng = np.random.default_rng(cfg.seed)
    probes = rng.uniform(*cfg.interval, opt(cfg, "probes"))
    dev = float(np.abs(kernel_constant_integral(G0, K, probes) - 1.0).max())
    sym = float(np.abs(table - table.T).max())
    checks = [
        ("constant_reproduction", dev <= 1e-9, f"max |int K dy - 1| = {dev:.3e}"),
        ("kernel_symmetry", sym <= 1e-10 * max(1.0, float(np.abs(table).max())),
         f"max |K(x,y) - K(y,x)| = {sym:.3e}"),
    ]
    return ({"n": K.n, "constant_integral_deviation": dev}, checks,
            {"kernel_values.csv": (("x", "y", "K"), rows)})


def run_project(cfg, K, f):
    pf = project(K, f)
    xs = analysis.midpoints(*cfg.interval, opt(cfg, "eval_grid"))
    rows = np.column_stack([xs, f(xs), pf(xs)])
    resid = float(np.abs(galerkin_residual(pf, f)).max())
    if not math.isfinite(resid):
        raise RefinementFailure(f"Galerkin residual {resid} is not finite")
    l1 = l1_norm(f, *cfg.interval)
    checks = [("galerkin_orthogonality", resid <= 1e-8 * max(l1, 1e-30),
               f"max |<f - Pf, N_j>| = {resid:.3e}, ||f||_1 = {l1:.3e}")]
    return ({"n": K.n, "rhs_error": pf.rhs_error, "galerkin_residual": resid,
             "coefficients": pf.coeffs}, checks,
            {"projection.csv": (("x", "f", "Pf"), rows)})


def _diagonal_check(K):
    """The one check of an inverse with no nonzero entry beyond offset k - 1,
    on which the decay rate and the window constants are vacuous."""
    if K.k == 1:
        return ("diagonal_inverse", True, "order 1: all off-diagonal entries zero")
    return ("block_diagonal_inverse", True,
            f"block-diagonal: all entries beyond offset k - 1 = {K.k - 1} are zero")


def _four_digits(v) -> str:
    return "None" if v is None else f"{v:.4g}"


def run_verify_decay(cfg, K):
    rep = analysis.decay_report(assemble_gram(K), K)
    rows = np.column_stack([rep.offsets, rep.profile_scaled, rep.profile_b])
    if rep.diagonal:
        checks = [_diagonal_check(K)]
    elif not rep.profile_scaled[K.k + 1:].any():
        checks = [("decay_vacuous", True,
                   f"all entries beyond offset k = {K.k} are zero: no rate to fit")]
    elif not rep.fitted:
        why = (f"too small for a fit: n = {K.n} < 3k" if K.n < 3 * K.k
               else "fewer than 3 nonzero profile values at offsets >= k"
               if rep.gamma is None else f"fitted gamma = {rep.gamma:.4f} not below 1")
        checks = [("fit_available", False, why)]
    else:
        checks = [
            ("gamma_below_0.95", rep.gamma < 0.95, f"gamma = {rep.gamma:.4f}"),
            ("entrywise_bound", rep.residual_factor <= 1.0 + 1e-9,
             f"residual factor = {rep.residual_factor:.6f}"),
        ]
    return ({"decay": rep}, checks,
            {"decay_profile.csv": (("offset", "rho_scaled", "rho_b"), rows)})


def run_verify_kernel_bound(cfg, K):
    rep = analysis.kernel_bound_report(assemble_gram(K), K, opt(cfg, "samples_per_cell"))
    checks = [
        ("theta_below_one", 0.0 < rep.theta_hat < 1.0, f"theta = {rep.theta_hat:.3f}"),
        ("constant_finite", np.isfinite(rep.c_hat), f"C = {rep.c_hat:.4g}"),
    ]
    return ({"kernel_bound": rep}, checks, {"kernel_bound.csv": (
        ("theta", "C"), np.column_stack([rep.theta_grid, rep.c_of_theta]))})


def run_verify_lemma(cfg, K):
    G0 = assemble_gram(K)
    dec = analysis.decay_report(G0, K)
    gamma = max(dec.gamma_cert if dec.fitted else 0.5, 0.5)
    rep = analysis.lemma_constants(G0, K, gamma)
    if dec.diagonal:
        name, ok, why = _diagonal_check(K)
        checks = [(name, ok, f"{why}; K1 = {rep.k1:.4g}, K2 and K3 vacuous")]
    else:
        # K2 bounds the entries beyond offset k: vacuous when all are zero
        k2_vacuous = not dec.profile_scaled[K.k + 1:].any()
        bounded = (rep.k1, rep.k3) if k2_vacuous else (rep.k1, rep.k2, rep.k3)
        finite = all(v is not None and np.isfinite(v) for v in bounded)
        k2 = "vacuous" if k2_vacuous else _four_digits(rep.k2)
        checks = [("constants_finite", finite,
                   f"K1 = {rep.k1:.4g}, K2 = {k2}, K3 = {_four_digits(rep.k3)}")]
    return {"constants": rep}, checks, {}


def run_maximal(cfg, f):
    xs = analysis.midpoints(*cfg.interval, opt(cfg, "eval_grid"))
    grid_size = opt(cfg, "grid")
    vals = analysis._maximal_on_points(f, xs, cfg.interval, grid_size)
    ok = bool(np.all(np.isfinite(vals)) and np.all(vals >= 0))
    checks = [("finite_nonnegative", ok, f"range [{vals.min():.4g}, {vals.max():.4g}]")]
    return ({"grid": grid_size, "max_value": float(vals.max())}, checks,
            {"maximal.csv": (("x", "M"), np.column_stack([xs, vals]))})


def run_dominate(cfg, f, ladder_levels):
    ladder, levels = ladder_levels
    rep = analysis.domination_report(
        ladder, f, eval_grid=opt(cfg, "eval_grid"), maximal_grid=opt(cfg, "grid"))
    rows = np.array([(lev, d["n"], d["mesh"], d["c_hat"])
                     for lev, d in zip(levels, rep.levels)])
    cs = [d["c_hat"] for d in rep.levels]
    stable = max(cs) <= 2.0 * min(cs)
    checks = [
        ("c_hat_finite", np.isfinite(rep.c_hat), f"c_hat = {rep.c_hat:.4g}"),
        ("c_hat_stable", stable, f"level spread = {max(cs) / min(cs):.3f}"),
    ]
    return ({"domination": rep}, checks,
            {"domination.csv": (("level", "n", "mesh", "c_hat"), rows)})


def run_weak11(cfg, f, ladder_levels):
    ladder, _ = ladder_levels
    rep = analysis.weak_type_report(
        ladder, f, eval_grid=opt(cfg, "eval_grid"), maximal_grid=opt(cfg, "grid"))
    checks = [
        ("maximal_weak_constant", rep.maximal_constant <= 5.5,
         f"sup_t t m{{M>t}}/||f||_1 = {rep.maximal_constant:.4f}"),
        ("p_star_finite", np.isfinite(rep.p_star_constant),
         f"P* constant = {rep.p_star_constant:.4f}"),
    ]
    rows = np.column_stack([rep.thresholds, rep.p_star_ratios, rep.maximal_ratios])
    return ({"weak_type": rep}, checks,
            {"weak_type.csv": (("t", "p_star_ratio", "maximal_ratio"), rows)})


def run_converge(cfg, f, ladder_levels):
    ladder, levels = ladder_levels
    expect = opt(cfg, "expect_order")
    # the observed order is a slope over the last three levels
    if expect is not None and len(levels) < 3:
        raise ValidationError("options.expect_order", "needs at least 3 levels")
    a, b = cfg.interval
    probes = opt(cfg, "probes")
    probes = ([float(p) for p in probes.split(";")] if probes
              else default_probes(f, a, b))
    rep = analysis.convergence_report(ladder, f, probes,
                                      sup_grid=opt(cfg, "eval_grid"))
    rows = np.array([(lev, d["n"], d["mesh"], d["sup_error"],
                      *d["probe_errors"], d["omega_k"])
                     for lev, d in zip(levels, rep.levels)])
    hdr = ("level", "n", "mesh", "sup_error",
           *(f"probe_{i}" for i in range(len(probes))), "omega_k")
    checks = [("errors_finite",
               all(np.isfinite(d["sup_error"]) for d in rep.levels),
               f"last sup error = {rep.levels[-1]['sup_error']:.4g}")]
    if expect is not None:
        checks.append(("observed_order", rep.observed_order >= float(expect),
                       f"p = {rep.observed_order:.3f} vs {expect}"))
    return {"convergence": rep}, checks, {"convergence.csv": (hdr, rows)}


def run_stability(cfg, K):
    trials = opt(cfg, "trials")
    rep = analysis.stability_constant(K, trials=trials, seed=cfg.seed)
    checks = [("d_hat_at_least_one", rep.d_hat >= 1.0 - 1e-12,
               f"d_hat = {rep.d_hat:.4f}")]
    return {"stability": rep}, checks, {}


@dataclass(frozen=True)
class Command:
    """A subcommand: its handler, which of ``partition``, ``function`` and
    ``levels`` it reads, and its options as ``key: (type, default)``; a
    default of None leaves the option off.

    The handler only computes: ``handler(cfg, *values)``, with one resolved
    value per entry of ``inputs`` (a ``KnotSequence``, a ``TestFunction``, the
    ``(ladder, levels)`` pair), returns ``(payload, checks, tables)``, and
    ``run_experiment`` writes ``tables = {filename: (header, rows)}`` in order
    and then the report only after it returns."""

    handler: Callable
    inputs: tuple[str, ...] = ()
    options: dict = field(default_factory=dict)


#: Every subcommand.  The parser, validation, input resolution and handlers
#: read this table, so each command's inputs and option defaults are declared
#: here only.
COMMANDS = {
    "basis-eval": Command(run_basis_eval, ("partition",), {"eval_grid": (int, 256)}),
    "gram": Command(run_gram, ("partition",)),
    "invert": Command(run_invert, ("partition",)),
    "kernel": Command(run_kernel, ("partition",),
                      {"eval_grid": (int, 32), "probes": (int, 20)}),
    "project": Command(run_project, ("partition", "function"),
                       {"eval_grid": (int, 256)}),
    "verify-decay": Command(run_verify_decay, ("partition",)),
    "verify-kernel-bound": Command(run_verify_kernel_bound, ("partition",),
                                   {"samples_per_cell": (int, 3)}),
    "verify-lemma": Command(run_verify_lemma, ("partition",)),
    "maximal": Command(run_maximal, ("function",),
                       {"eval_grid": (int, 256), "grid": (int, 4096)}),
    "dominate": Command(run_dominate, ("function", "levels"),
                        {"eval_grid": (int, 512), "grid": (int, 4096)}),
    "weak11": Command(run_weak11, ("function", "levels"),
                      {"eval_grid": (int, 4096), "grid": (int, 4096)}),
    "converge": Command(run_converge, ("function", "levels"),
                        {"eval_grid": (int, 1024), "probes": (str, None),
                         "expect_order": (float, None)}),
    "stability": Command(run_stability, ("partition",), {"trials": (int, 64)}),
}


def run_experiment(cfg: ExperimentConfig) -> int:
    """Run one experiment and return its exit status; files are written only
    once the handler has returned, so a failed run leaves them as they were."""
    command = COMMANDS[cfg.command]
    resolve = {"partition": resolve_partition, "function": resolve_function,
               "levels": resolve_ladder}
    try:
        values = [resolve[name](cfg) for name in command.inputs]
        payload, checks, tables = command.handler(cfg, *values)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so it is caught here first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (SplineProjError, FileNotFoundError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
        for name, (header, rows) in tables.items():
            write_csv(os.path.join(cfg.output_dir, name), header, rows)
        path = write_report(cfg, payload, checks)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    print(f"report: {path}")
    return 0 if all(ok for _, ok, _ in checks) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

#: Flag and help text of each input and option, by config name.
FLAGS = {
    "partition": ("--partition", "family spec like uniform:16, geometric:16:2.0, "
                  "random:16:7, or a knot file"),
    "function": ("--function", "test function, e.g. sin, step:0.5, abspow:0:-0.5"),
    "levels": ("--levels", "dyadic ladder goes over levels MIN_LEVEL..LEVELS"),
    "eval_grid": ("--eval-grid", "evaluation grid size"),
    "grid": ("--grid", "maximal-function grid size"),
    "probes": ("--probes", "probe count (kernel) or ';'-separated points (converge)"),
    "trials": ("--trials", "random trials"),
    "samples_per_cell": ("--samples", "samples per interval pair"),
    "expect_order": ("--expect-order", "fail unless the observed order reaches this"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with only the flags that command reads;
    a flag left out is absent from the namespace, so its default applies.
    Built once per process: ``parse_args`` keeps no state between calls, and
    ``run_experiment`` looks each handler up in ``COMMANDS`` when it runs."""
    ap = argparse.ArgumentParser(
        prog="splineproj",
        description="Orthogonal spline projection experiments",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="JSON config file, given alone")
        p.add_argument("--k", type=int, help="spline order")
        p.add_argument("--interval", type=float, nargs=2, metavar=("A", "B"))
        p.add_argument("--seed", type=int)
        p.add_argument("--output", "-o", dest="output_dir", metavar="DIR",
                       help="output directory")
        for key in command.inputs:
            flag, text = FLAGS[key]
            p.add_argument(flag, type=int if key == "levels" else str, help=text)
        if "levels" in command.inputs:
            p.add_argument("--min-level", type=int, help="first ladder level")
        for key, (typ, default) in command.options.items():
            flag, text = FLAGS[key]
            p.add_argument(flag, dest=key, type=typ,
                           help=text if default is None else f"{text} (default {default})")
    return ap


def config_from_args(args) -> ExperimentConfig:
    """Config from ``--config`` or from the flags, through ``config_from_doc``."""
    doc = dict(vars(args))
    if "config" in doc:
        if doc.keys() - {"command", "config"}:
            raise ValidationError("config", "no other flag is read with --config")
        with open(doc["config"]) as fh:
            cfg = parse_config(fh.read())
        if cfg.command != args.command:
            raise ValidationError("command",
                                  f"config says {cfg.command!r}, invoked {args.command!r}")
        return cfg
    if "levels" in doc:
        doc["levels"] = tuple(range(doc.pop("min_level", 1), doc["levels"] + 1))
    elif "min_level" in doc:
        raise ValidationError("levels", "--min-level needs --levels")
    doc["options"] = {key: doc.pop(key) for key in COMMANDS[args.command].options
                      if key in doc}
    return config_from_doc(doc)


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
