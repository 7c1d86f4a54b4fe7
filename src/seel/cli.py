"""Batch command-line front end.

Subcommands: fit (point estimation), select (penalized variable selection),
sweep (BIC tuning-parameter scan) and simulate (Monte Carlo cells).  All
reports are JSON on stdout; --out additionally writes files.  Exit codes:
0 success, 2 input or schema error, 3 numerical failure.

Dataset CSV schema: header row "y,delta,x1,...,xp"; a missing response is an
empty y cell with delta = 0; UTF-8, '.' decimal, comma separator.  Blank
lines are skipped, cells may be padded or double-quoted, and covariates are
parsed by numpy, which takes no digit underscores.  A file in the writer's
form is parsed in one pass over the open file; other accepted forms, and a
file that breaks a rule, take a line-by-line path that names the first bad
line.
"""

import argparse
import csv
import json
import math
import sys
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .el import lambda_approx
from .errors import CsvSchemaError, EstimationError
from .estimators import (expectile_fit, fit_a1, fit_a2, fit_l1, fit_l2,
                         pilot_estimate)
from .inference import (bic_sweep, check_alpha, el_ratio, empirical_tau,
                        wilks_test)
from .kernels import KERNEL_NAMES, Kernel
from .model import Dataset, ModelConfig, PenaltyConfig
from .simulate import (DESIGNS, ERROR_LAWS, MISSING_MECHANISMS, PRESETS,
                       SCHEMA_VERSION, SimConfig, _generate_dataset,
                       preset_config, run_monte_carlo)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
# a sweep grid of more cells is rejected before the read
MAX_GRID_CELLS = 1000


# ---------------------------------------------------------------------------
# dataset CSV

def read_dataset(path):
    """Parse a dataset CSV; raises CsvSchemaError on any schema violation.

    A file in the writer's form is parsed in one pass (_read_bulk).  Any
    other file takes the line path (_read_lines), which also accepts quoted
    cells and whitespace-only lines and names the first bad line of a bad
    file.  Both give the same arrays, bit for bit, where both accept.
    """
    ds = _read_bulk(path)
    return _read_lines(path) if ds is None else ds


def _read_bulk(path):
    """The dataset of a CSV in the writer's form, or None for any other file.

    One np.loadtxt call reads the body from the open file, so no copy of the
    text is made.  A covariate goes through numpy's float parser, delta
    through int and y through float, as on the line path.  Anything this
    pass does not take (quotes, whitespace-only lines, a broken rule, a
    file that cannot be read) is left to the line path to read or reject.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            p = _header_p(fh.readline().rstrip("\n"))
            with warnings.catch_warnings():
                # a body without rows is for the line path to name
                warnings.filterwarnings("ignore", "loadtxt: input contained "
                                        "no data", UserWarning)
                numbers = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                                     converters={0: _y_cell, 1: int})
    except (OSError, ValueError):
        return None
    if numbers.shape[1] != p + 2 or not len(numbers):
        return None
    y, delta, X = numbers[:, 0], numbers[:, 1], numbers[:, 2:]
    if (((delta != 0) & (delta != 1)).any()
            or not np.isfinite(X).all()
            or (np.isnan(y) != (delta == 0)).any()):
        return None
    return Dataset(X, y, delta)


def _y_cell(cell):
    # NaN marks an empty cell, so an observed y must be finite
    if not cell:
        return np.nan
    y = float(cell)
    if not math.isfinite(y):
        raise ValueError("y must be finite")
    return y


def _read_lines(path):
    """Parse a dataset CSV line by line; raises CsvSchemaError naming the
    first line in the file that breaks any rule.

    The header is checked with csv.  Blank and whitespace-only lines are
    skipped.  delta and x1..xp of every other line are parsed in one
    np.loadtxt call; the y cells stay text, so an empty cell and a literal
    "nan" differ, and only those with delta = 1 are converted.
    """
    lines = _read(path).split("\n")
    p = _header_p(lines[0])
    linenos = [k for k in range(2, len(lines) + 1) if lines[k - 1].strip()]
    if not linenos:
        raise CsvSchemaError("no data rows")
    body = [lines[k - 1] for k in linenos]
    try:
        X, y, delta = _parse_rows(body, p)
    except ValueError:
        # each rule is per line, so a block fails iff it holds a bad line;
        # bisect body[lo:hi], which holds the first one, in two bulk parses
        lo, hi = 0, len(body)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                _parse_rows(body[lo:mid], p)
                lo = mid
            except ValueError:
                hi = mid
        try:
            _parse_rows(body[lo:hi], p)
        except ValueError as exc:
            raise CsvSchemaError(f"line {linenos[lo]}: {exc}") from None
        raise
    return Dataset(X, y, delta)


def _read(path, header_only=False):
    """The text of a dataset CSV, or its first line only; raises
    CsvSchemaError if it cannot be read or is empty."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.readline() if header_only else fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CsvSchemaError(f"cannot read {path}: {exc}") from None
    if not text:
        raise CsvSchemaError("empty file")
    return text


def _header_p(line):
    """p of a header line; raises CsvSchemaError unless it names
    y,delta,x1,...,xp (cells may be padded or double-quoted)."""
    header = [c.strip() for c in next(csv.reader([line]), [])]
    if len(header) < 3 or header[0] != "y" or header[1] != "delta":
        raise CsvSchemaError("header must be y,delta,x1,...,xp")
    p = len(header) - 2
    if header[2:] != [f"x{j}" for j in range(1, p + 1)]:
        raise CsvSchemaError("covariate columns must be named x1..xp in order")
    return p


def _parse_rows(body, p):
    """(X, y, delta) of data lines; raises ValueError naming the first rule
    in this order that some line breaks.  delta and x1..xp go through one
    np.loadtxt call, delta through int, so "1.0" is rejected."""
    if (np.array([ln.count(",") for ln in body]) != p + 1).any():
        raise ValueError(f"expected {p + 2} fields")
    try:
        numbers = np.loadtxt(body, delimiter=",", quotechar='"', comments=None,
                             ndmin=2, usecols=range(1, p + 2),
                             converters={1: int})
    except ValueError:
        raise ValueError("malformed number") from None
    delta, X = numbers[:, 0], numbers[:, 1:]
    if ((delta != 0) & (delta != 1)).any():
        raise ValueError("delta must be 0 or 1")
    if not np.isfinite(X).all():
        raise ValueError("covariates must be finite")
    # a quoted y cell is unquoted by csv, as in the header
    y_cells = [(next(csv.reader([ln]))[0] if ln.startswith('"')
                else ln.partition(",")[0]).strip() for ln in body]
    empty = np.array([not c for c in y_cells])
    observed = delta == 1
    if (observed & empty).any():
        raise ValueError("delta=1 needs a y value")
    if (~observed & ~empty).any():
        raise ValueError("delta=0 needs an empty y")
    y = np.full(len(body), np.nan)
    try:
        y[observed] = [float(y_cells[i]) for i in np.flatnonzero(observed)]
    except ValueError:
        raise ValueError("malformed y") from None
    if (observed & ~np.isfinite(y)).any():
        raise ValueError("y must be finite")
    return X, y, delta


def write_dataset(path, ds):
    """Write a dataset CSV, streamed row by row: an unquoted header, CRLF
    line ends (as csv.writer writes them), floats as repr (round-trip
    precision) and an empty y cell where delta = 0."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        header = ["y", "delta"] + [f"x{j}" for j in range(1, ds.p + 1)]
        fh.write(",".join(header) + "\r\n")
        fh.writelines((f"{y!r},1," if d else ",0,") + ",".join(map(repr, x))
                      + "\r\n" for x, y, d in zip(ds.X.tolist(), ds.y.tolist(),
                                                  ds.delta.tolist()))


# ---------------------------------------------------------------------------
# shared option plumbing

def _floats(text):
    values = [float(v) for v in text.split(",")]
    if not np.isfinite(values).all():
        raise ValueError(f"expected finite numbers, not {text!r}")
    return values


def _sim_tau(text):
    # 'default' leaves tau to SimConfig's error-law rule; simulate has no
    # empirical rule, so 'auto' is not a valid value here
    if text.lower() == "default":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number or 'default', not {text!r}") from None


def _add_dataset_flags(sub):
    sub.add_argument("data", help="dataset CSV path")
    sub.add_argument("--tau", default=str(ModelConfig.tau),
                     help="expectile level in (0,1), or 'auto' for the "
                          "empirical rule (default %(default)s)")
    sub.add_argument("--standardize", action="store_true",
                     help="center and scale covariates before fitting")


def _add_solver_flags(sub, alpha=True):
    sub.add_argument("--h", type=float, default=None,
                     help="bandwidth (default n^(-1/4))")
    sub.add_argument("--kernel", default=Kernel().name, choices=KERNEL_NAMES)
    sub.add_argument("--nu", type=float, default=ModelConfig.nu,
                     help="outer stopping tolerance")
    sub.add_argument("--eps-zero", type=float, default=ModelConfig.eps_zero,
                     help="coefficient-zeroing threshold")
    sub.add_argument("--max-iter", type=int, default=ModelConfig.max_iter)
    if alpha:
        sub.add_argument("--alpha", type=float, default=SimConfig.alpha)
    sub.add_argument("--out", default=None, help="directory for report files")
    sub.add_argument("--config", default=None,
                     help="flat key=value file; flags override its values")


def _add_penalty_flags(sub, pilot, eta=True):
    if eta:
        sub.add_argument("--eta", type=float, default=None,
                         help="penalty level (default n^(-5/6))")
    sub.add_argument("--gamma", type=float, default=PenaltyConfig.gamma,
                     help="adaptive weight power")
    sub.add_argument("--pilot", dest="pilot_mode", default=pilot,
                     choices=("same", "split"),
                     help="pilot estimate from the same data or a half split")


def _parse_args(parser, argv):
    """Parse argv; the entries of a --config file become flags right after
    the subcommand, so explicit flags (parsed later) override them."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    injected = []
    try:
        for raw in Path(args.config).read_text(encoding="utf-8").splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CsvSchemaError(f"config line without '=': {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            # only the store_true switches parse to a bool
            if not isinstance(getattr(args, key.replace("-", "_"), None), bool):
                injected.extend([flag, value])
            elif value.lower() in ("true", "yes"):
                injected.append(flag)
            elif value.lower() not in ("false", "no"):
                raise CsvSchemaError(
                    f"config key {key!r} takes true/yes or false/no, not {value!r}")
    except OSError as exc:
        raise CsvSchemaError(f"cannot read config {args.config}: {exc}") from None
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + injected + argv[at:])


def _prepare(args):
    """Build the ModelConfig from the flags, then read the dataset,
    optionally standardize it and resolve tau.  A bad setting is rejected
    before the read: with --tau auto a placeholder tau stands in until the
    responses give the real one.  Returns (ds, cfg, report head,
    standardizing transform)."""
    tau_auto = args.tau.lower() == "auto"
    cfg = ModelConfig(tau=0.5 if tau_auto else float(args.tau), h=args.h,
                      kernel=args.kernel, nu=args.nu, eps_zero=args.eps_zero,
                      max_iter=args.max_iter)
    ds = read_dataset(args.data)
    transform = None
    if args.standardize:
        X = ds.X
        center, scale = X.mean(axis=0), X.std(axis=0)
        if np.any(scale == 0.0):
            raise CsvSchemaError("constant covariate cannot be standardized")
        ds = Dataset((X - center) / scale, ds.y, ds.delta)
        transform = {"center": center.tolist(), "scale": scale.tolist()}
    if tau_auto:
        cfg = replace(cfg, tau=float(empirical_tau(ds.y[ds.delta == 1])))
    report = {
        "schema_version": SCHEMA_VERSION,
        "n": ds.n, "p": ds.p, "n_complete": ds.n_complete,
        "tau": cfg.tau, "tau_auto": tau_auto,
        "h": cfg.bandwidth(ds.n),
        "kernel": cfg.kernel.name,
    }
    return ds, cfg, report, transform


def _emit(report, out_dir, name):
    text = json.dumps(report, indent=2)
    print(text)
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text + "\n", encoding="utf-8")


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands

def cmd_fit(args):
    # --alpha and --test-beta are checked before any data row is parsed,
    # the length of --test-beta against the p of the CSV header
    check_alpha(args.alpha)
    hyp = None if args.test_beta is None else np.array(_floats(args.test_beta))
    if (hyp is not None
            and len(hyp) != _header_p(_read(args.data, header_only=True))):
        raise CsvSchemaError("--test-beta needs p comma-separated values")
    ds, cfg, report, transform = _prepare(args)
    fit = {"a1": fit_a1, "a2": fit_a2}[args.algorithm](ds, cfg)
    report.update({
        "command": "fit",
        "algorithm": args.algorithm,
        "beta": fit.beta.tolist(),
        "lambda": lambda_approx(ds, cfg, fit.beta).tolist(),
        "iterations": fit.iterations,
        "converged": True,  # a fit that does not converge raises
        "ratio_at_beta": el_ratio(ds, cfg, fit.beta)[0],
        "standardized": transform,
    })
    if hyp is not None:
        t = wilks_test(ds, cfg, hyp, alpha=args.alpha)
        report["wilks_test"] = _test_dict(t, hyp)
    _emit(report, args.out, "fit_report.json")
    return EXIT_OK


def _test_dict(t, hyp):
    return {"hypothesis": np.asarray(hyp, dtype=float).tolist(), **asdict(t)}


def cmd_select(args):
    # the default eta waits for n; any other setting is checked before the read
    PenaltyConfig(eta=0.0 if args.eta is None else args.eta, gamma=args.gamma)
    check_alpha(args.alpha)
    ds, cfg, report, transform = _prepare(args)
    eta = PenaltyConfig.default_eta(ds.n) if args.eta is None else args.eta
    start = expectile_fit(ds, cfg.tau)  # shared by a same-mode pilot and the fit
    pilot = pilot_estimate(ds, cfg, mode=args.pilot_mode, beta0=start)
    pen = PenaltyConfig(eta=eta, gamma=args.gamma, pilot=pilot)
    fit = {"l1": fit_l1, "l2": fit_l2}[args.algorithm](ds, cfg, pen, start)
    active = fit.active_set
    report.update({
        "command": "select",
        "algorithm": args.algorithm,
        "eta": eta, "gamma": args.gamma, "pilot_mode": args.pilot_mode,
        "pilot": pilot.tolist(),
        "beta": fit.beta.tolist(),
        "active_set": (active + 1).tolist(),  # 1-based, matching x1..xp
        "iterations": fit.iterations,
        "converged": True,  # a fit that does not converge raises
        "standardized": transform,
    })
    if len(active):
        t = wilks_test(ds, cfg, fit.beta, alpha=args.alpha, support=active)
        report["submodel_wilks_test"] = _test_dict(t, fit.beta)
        report["submodel_wilks_test"]["df_note"] = "df = |active set|"
    _emit(report, args.out, "select_report.json")
    return EXIT_OK


def _bic_dict(rec):
    # 1-based active set, matching x1..xp
    return {**asdict(rec), "active_set": (rec.active_set + 1).tolist(),
            "beta": rec.beta.tolist()}


def cmd_sweep(args):
    if args.a_values:
        a_values = _floats(args.a_values)
        cells = len(a_values)
    elif not 0.0 < args.a_step < np.inf:
        raise ValueError("--a-step must be positive and finite")
    elif not args.a_min <= args.a_max:
        raise ValueError("--a-min must not exceed --a-max")
    else:
        # the length np.arange gives the range, known before it runs
        stop = args.a_max + 0.5 * args.a_step
        cells = np.ceil((stop - args.a_min) / args.a_step)
    if cells > MAX_GRID_CELLS:
        raise ValueError(f"the sweep grid has {cells:.15g} cells; at most "
                         f"{MAX_GRID_CELLS} are allowed")
    if not args.a_values:
        a_values = [float(a) for a in np.arange(args.a_min, stop, args.a_step)]
    # eta = a * scale with a scale in (0, 1]: a finite nonnegative a gives
    # a valid eta, and any other a is rejected here, before the read
    for a in a_values:
        PenaltyConfig(eta=a, gamma=args.gamma)
    ds, cfg, report, transform = _prepare(args)
    scale = {"n56": PenaltyConfig.default_eta(ds.n),
             "n67": float(ds.n) ** (-6.0 / 7.0)}[args.grid_form]
    grid = [a * scale for a in a_values]
    a_of_eta = dict(zip(grid, a_values))
    # failed grid cells are dropped, so each record is labelled by its own eta
    failures, error = [], None
    try:
        best, fitted = bic_sweep(ds, cfg, args.gamma, grid,
                                 pilot_mode=args.pilot_mode, failures=failures)
    except EstimationError as exc:
        if len(failures) < len(grid):  # failed before the grid: no report
            raise
        best, fitted, error = None, [], exc  # the report lists every cell
    records = [{"a": a_of_eta[rec.eta], **_bic_dict(rec)} for rec in fitted]
    failed_cells = [{"a": a_of_eta[eta], "eta": eta,
                     "error": type(exc).__name__, "message": str(exc)}
                    for eta, exc in failures]
    report.update({
        "command": "sweep",
        "grid_form": args.grid_form,
        "a_values": a_values,
        "gamma": args.gamma,
        "records": records,
        "failed_cells": failed_cells,
        "best": None if best is None else _bic_dict(best),
        "standardized": transform,
    })
    _emit(report, args.out, "sweep_report.json")
    if args.out:
        _write_csv(Path(args.out) / "sweep_records.csv",
                   ["a", "eta", "bic", "active_set", "beta", "ratio_method",
                    "multiplier_iterations"],
                   [[repr(float(r[k])) for k in ("a", "eta", "bic")]
                    + [" ".join(str(j) for j in r["active_set"]),
                       " ".join(repr(float(v)) for v in r["beta"]),
                       r["ratio_method"], str(r["multiplier_iterations"])]
                    for r in records])
    if error is not None:
        raise error
    return EXIT_OK


def cmd_simulate(args):
    # every SimConfig field the user set; flags left unset parse to None
    overrides = {f.name: getattr(args, f.name) for f in fields(SimConfig)
                 if getattr(args, f.name) is not None}
    if "beta0" in overrides:
        overrides.setdefault("p", len(overrides["beta0"]))
    if args.preset:
        sc = preset_config(args.preset, **overrides)
    else:
        if not {"n", "p", "beta0"} <= set(overrides):
            raise CsvSchemaError("without --preset, --n, --p and --beta0 "
                                 "are required")
        sc = SimConfig(**overrides)

    report = run_monte_carlo(sc, workers=args.workers)
    _emit(report.to_json_dict(), args.out, "sim_report.json")
    if args.out:
        out = Path(args.out)
        header, row = report.csv_record()
        _write_csv(out / "sim_cells.csv", header, [row])
        if args.dump:
            write_dataset(out / "sim_dump.csv", _generate_dataset(sc, 0))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

def build_parser():
    parser = argparse.ArgumentParser(
        prog="seel",
        description="Smoothed expectile empirical-likelihood estimation, "
                    "variable selection, inference and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the unpenalized estimator")
    _add_dataset_flags(p_fit)
    p_fit.add_argument("--algorithm", default="a2", choices=("a1", "a2"))
    p_fit.add_argument("--test-beta", default=None,
                       help="comma-separated hypothesis vector for a Wilks test")
    _add_solver_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_sel = sub.add_parser("select", help="penalized variable selection")
    _add_dataset_flags(p_sel)
    p_sel.add_argument("--algorithm", default="l2", choices=("l1", "l2"))
    _add_penalty_flags(p_sel, pilot="same")
    _add_solver_flags(p_sel)
    p_sel.set_defaults(func=cmd_select)

    p_sw = sub.add_parser("sweep", help="BIC scan over the tuning parameter")
    _add_dataset_flags(p_sw)
    p_sw.add_argument("--grid-form", default="n56", choices=("n56", "n67"),
                      help="eta = a*n^(-5/6) or a*n^(-6/7)")
    p_sw.add_argument("--a-min", type=float, default=1.0)
    p_sw.add_argument("--a-max", type=float, default=8.0)
    p_sw.add_argument("--a-step", type=float, default=1.0)
    p_sw.add_argument("--a-values", default=None,
                      help="explicit comma-separated multipliers (overrides range)")
    _add_penalty_flags(p_sw, pilot="same", eta=False)
    _add_solver_flags(p_sw, alpha=False)
    p_sw.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo cell")
    p_sim.add_argument("--preset", default=None, choices=tuple(PRESETS))
    p_sim.add_argument("--n", type=int, default=None)
    p_sim.add_argument("--p", type=int, default=None)
    p_sim.add_argument("--beta0", type=_floats, default=None,
                       help="comma-separated true coefficients")
    p_sim.add_argument("--design", default=None, choices=DESIGNS)
    p_sim.add_argument("--errors", default=None, choices=ERROR_LAWS)
    p_sim.add_argument("--missing", default=None, choices=MISSING_MECHANISMS)
    p_sim.add_argument("--pi", type=float, default=None)
    p_sim.add_argument("--reps", dest="replications", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=SimConfig.seed)
    p_sim.add_argument("--algorithms", type=lambda text: text.split(","),
                       default=None,
                       help="comma-separated subset of a1,a2,l1,l2")
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--dump", action="store_true",
                       help="also write replication 0 as a dataset CSV")
    p_sim.add_argument("--tau", type=_sim_tau, default="default",
                       help="expectile level as a number, or 'default' for "
                            "the error-law rule (no 'auto' here)")
    _add_penalty_flags(p_sim, pilot=SimConfig.pilot_mode)
    _add_solver_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None):
    try:
        args = _parse_args(build_parser(), argv)
        return args.func(args)
    except ValueError as exc:  # CsvSchemaError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EstimationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
