"""Batch command-line front end.

Subcommands: fit (point estimation), select (penalized variable selection),
sweep (BIC tuning-parameter scan) and simulate (Monte Carlo cells).  All
reports are JSON on stdout; --out additionally writes files.  Exit codes:
0 success, 2 input or schema error, 3 numerical failure.

Dataset CSV schema: header row "y,delta,x1,...,xp"; a missing response is an
empty y cell with delta = 0; UTF-8, '.' decimal, comma separator.  Blank
lines are skipped, cells may be padded or double-quoted, and covariates are
parsed by numpy, which takes no digit underscores.  Every file is parsed in
one pass over the open file; a file that breaks a rule is then bisected
with the same parse to name its first bad line.
"""

import argparse
import csv
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .el import lambda_approx
from .errors import CsvSchemaError, EstimationError
from .estimators import (expectile_fit, fit_a1, fit_a2, fit_l1, fit_l2,
                         pilot_estimate)
from .inference import (bic_sweep, check_alpha, el_ratio, empirical_tau,
                        wilks_test)
from .kernels import KERNEL_NAMES
from .model import SOLVER_FIELDS, Dataset, ModelConfig, PenaltyConfig
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
    """Parse a dataset CSV; raises CsvSchemaError on any schema violation,
    naming the first line in the file that breaks a rule.

    One _parse reads the body from the open file, with whitespace-only
    lines filtered out, so no copy of the text is made.  A file it rejects
    is read again and its lines are bisected with the same _parse.
    """
    with _opened(path) as fh:
        p = _header_p(fh.readline())
        try:
            X, y, delta = _parse(filter(str.strip, fh), p)
        except ValueError:
            fh.seek(0)
            _raise_first_bad_line(fh.read().split("\n"), p)
            raise  # unreachable: a block fails only if one of its lines does
    if not len(y):
        raise CsvSchemaError("no data rows")
    return Dataset(X, y, delta)


@contextmanager
def _opened(path):
    """The dataset CSV at path, open as UTF-8 text; raises CsvSchemaError
    if it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise CsvSchemaError(f"cannot read {path}: {exc}") from None


def _header_p(line):
    """p of a header line; raises CsvSchemaError unless it names
    y,delta,x1,...,xp (cells may be padded or double-quoted)."""
    if not line:
        raise CsvSchemaError("empty file")
    header = [c.strip() for c in next(csv.reader([line]), [])]
    if len(header) < 3 or header[0] != "y" or header[1] != "delta":
        raise CsvSchemaError("header must be y,delta,x1,...,xp")
    p = len(header) - 2
    if header[2:] != [f"x{j}" for j in range(1, p + 1)]:
        raise CsvSchemaError("covariate columns must be named x1..xp in order")
    return p


def _raise_first_bad_line(lines, p):
    """Raise the CsvSchemaError of the first data line of a file's lines
    (the header first) that _parse rejects on its own, if there is one."""
    rows = [k for k, line in enumerate(lines) if k and line.strip()]
    # each rule is per line, so a block fails iff it holds a bad line;
    # bisect rows[lo:hi], which holds the first one, parsing lower halves
    lo, hi = 0, len(rows)
    while lo < hi:
        mid = lo + max(1, (hi - lo) // 2)
        try:
            _parse([lines[k] for k in rows[lo:mid]], p)
            lo = mid
        except ValueError as exc:
            if mid - lo == 1:
                raise CsvSchemaError(f"line {rows[lo] + 1}: {exc}") from None
            hi = mid


def _parse(lines, p):
    """(X, y, delta) of data lines; raises ValueError naming the first rule
    that some line breaks, in this order: the field count, the numbers,
    delta, the covariates' range, then the rules of y.

    One np.loadtxt call parses every cell: x1..xp with numpy's float
    parser and delta with int, so "1.0" is rejected.  A first row of p + 2
    cells makes numpy check each line's field count before its numbers.
    The y converter never raises, so the y rules come last.
    """
    try:
        numbers = np.loadtxt(chain([",0" * (p + 1)], lines), delimiter=",",
                             quotechar='"', comments=None, ndmin=2,
                             converters={0: _y_code, 1: int})[1:]
    except ValueError as exc:
        # numpy's message for a line whose field count differs from the
        # first row's; any other is a cell it could not convert
        raise ValueError(f"expected {p + 2} fields"
                         if str(exc).startswith("the number of columns")
                         else "malformed number") from None
    y, delta, X = numbers[:, 0], numbers[:, 1], numbers[:, 2:]
    observed = delta == 1
    for broken, rule in (
            ((delta != 0) & ~observed, "delta must be 0 or 1"),
            (~np.isfinite(X).all(axis=1), "covariates must be finite"),
            (observed & np.isnan(y), "delta=1 needs a y value"),
            (~observed & ~np.isnan(y), "delta=0 needs an empty y"),
            (observed & (y == -np.inf), "malformed y"),
            (observed & (y == np.inf), "y must be finite")):
        if broken.any():
            raise ValueError(rule)
    return X, y, delta


def _y_code(cell):
    # NaN for an empty cell, -inf for a malformed one and +inf for one that
    # is not finite, so that y breaks no rule before the y rules run
    if not cell.strip():
        return math.nan
    try:
        y = float(cell)
    except ValueError:
        return -math.inf
    return y if math.isfinite(y) else math.inf


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


def _tau(word):
    """The argparse type of a --tau that takes a number, or word for a rule
    that sets tau later, which parses to None: 'auto' (the empirical rule)
    for the dataset commands, 'default' (the error-law rule) for simulate."""
    def tau(text):
        try:
            return None if text.lower() == word else float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a number or {word!r}, not {text!r}") from None
    return tau


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
            # only the store_true switches parse to a bool; any other entry
            # is one --flag=value token, so a value such as -1,0,2 is not
            # taken for an option
            if not isinstance(getattr(args, key.replace("-", "_"), None), bool):
                injected.append(f"{flag}={value}")
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
    tau_auto = args.tau is None
    cfg = ModelConfig(tau=0.5 if tau_auto else args.tau,
                      **{k: getattr(args, k) for k in SOLVER_FIELDS})
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
    if hyp is not None:
        with _opened(args.data) as fh:
            if len(hyp) != _header_p(fh.readline()):
                raise CsvSchemaError("--test-beta needs p comma-separated "
                                     "values")
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
    if args.dump and not args.out:
        raise ValueError("--dump needs --out")
    # every setting the user set; flags left unset parse to None
    overrides = {name: getattr(args, name) for name in _SETTINGS
                 if getattr(args, name) is not None}
    if "beta0" in overrides:
        overrides.setdefault("p", len(overrides["beta0"]))
    if not args.preset and not {"n", "p", "beta0"} <= set(overrides):
        raise CsvSchemaError("without --preset, --n, --p and --beta0 "
                             "are required")
    sc = (preset_config(args.preset, **overrides) if args.preset
          else SimConfig(**overrides))

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

# The flag of every setting, keyed by the SimConfig field it sets (SimConfig
# holds every ModelConfig and PenaltyConfig setting): what argparse needs,
# and the flag where it is not the field's name.  build_parser adds the
# named settings to each subcommand; an unset flag parses to None.
_SETTINGS = {
    "n": dict(type=int),
    "p": dict(type=int),
    "beta0": dict(type=_floats, help="comma-separated true coefficients; "
                  "write -1,0,2 as --beta0=-1,0,2"),
    "design": dict(choices=DESIGNS),
    "errors": dict(choices=ERROR_LAWS),
    "missing": dict(choices=MISSING_MECHANISMS),
    "pi": dict(type=float),
    "tau": dict(type=_tau("default"), help="expectile level as a number, "
                "or 'default' for the error-law rule (no 'auto' here)"),
    "h": dict(type=float, help="bandwidth (default n^(-1/4))"),
    "eta": dict(type=float, help="penalty level (default n^(-5/6))"),
    "gamma": dict(type=float, help="adaptive weight power"),
    "alpha": dict(type=float),
    "replications": dict(flag="--reps", type=int),
    "algorithms": dict(type=lambda text: text.split(","),
                       help="comma-separated subset of a1,a2,l1,l2"),
    "seed": dict(type=int),
    "kernel": dict(choices=KERNEL_NAMES),
    "nu": dict(type=float, help="outer stopping tolerance"),
    "eps_zero": dict(type=float, help="coefficient-zeroing threshold"),
    "max_iter": dict(type=int),
    "pilot_mode": dict(flag="--pilot", choices=("same", "split"),
                       help="pilot estimate from the same data or a half split"),
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser (and subparsers) that raises ValueError with its
    message on a rejected flag, so main returns 2 as for any other input
    error; --help still exits 0."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = _Parser(
        prog="seel",
        description="Smoothed expectile empirical-likelihood estimation, "
                    "variable selection, inference and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the unpenalized estimator")
    p_fit.add_argument("--algorithm", default="a2", choices=("a1", "a2"))
    p_fit.add_argument("--test-beta", help="comma-separated hypothesis vector "
                       "for a Wilks test; write -1,2 as --test-beta=-1,2")

    p_sel = sub.add_parser("select", help="penalized variable selection")
    p_sel.add_argument("--algorithm", default="l2", choices=("l1", "l2"))

    p_sw = sub.add_parser("sweep", help="BIC scan over the tuning parameter")
    p_sw.add_argument("--grid-form", default="n56", choices=("n56", "n67"),
                      help="eta = a*n^(-5/6) or a*n^(-6/7)")
    p_sw.add_argument("--a-min", type=float, default=1.0)
    p_sw.add_argument("--a-max", type=float, default=8.0)
    p_sw.add_argument("--a-step", type=float, default=1.0)
    p_sw.add_argument("--a-values", default=None,
                      help="explicit comma-separated multipliers (overrides range)")

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo cell")
    p_sim.add_argument("--preset", default=None, choices=tuple(PRESETS))
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--dump", action="store_true",
                       help="also write replication 0 as a dataset CSV "
                            "(needs --out)")

    # the dataset commands take SimConfig's defaults (its class attributes),
    # but their pilot shares the data; simulate's settings stay None when
    # unset, so its preset's values hold
    defaults = {**vars(SimConfig), "pilot_mode": "same"}
    for p, func, names in (
            (p_fit, cmd_fit, (*SOLVER_FIELDS, "alpha")),
            (p_sel, cmd_select,
             ("eta", "gamma", "pilot_mode", *SOLVER_FIELDS, "alpha")),
            (p_sw, cmd_sweep, ("gamma", "pilot_mode", *SOLVER_FIELDS)),
            (p_sim, cmd_simulate, tuple(_SETTINGS))):
        if p is not p_sim:
            p.add_argument("data", help="dataset CSV path")
            p.add_argument("--tau", type=_tau("auto"), default=ModelConfig.tau,
                           help="expectile level in (0,1), or 'auto' for the "
                                "empirical rule (default %(default)s)")
            p.add_argument("--standardize", action="store_true",
                           help="center and scale covariates before fitting")
            p.set_defaults(**{name: defaults[name] for name in names})
        for name in names:
            spec = dict(_SETTINGS[name])
            p.add_argument(spec.pop("flag", "--" + name.replace("_", "-")),
                           dest=name, **spec)
        p.add_argument("--out", default=None, help="directory for report files")
        p.add_argument("--config", default=None,
                       help="flat key=value file; flags override its values")
        p.set_defaults(func=func)

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
