"""Reference forms that the tests check the package's faster paths against.

The package computes g_i(beta) = (tau + (1 - 2 tau) G((x_i'beta - y_i)/h))
(y_i - x_i'beta) x_i for all rows at once (seel.model.moments, and
g_matrix, which returns the factors (Xo, a) of g_i = a_i x_i).
The per-row functions here evaluate one row at a time, straight from the
formula, so the tests can check the vectorized path and its derivatives
against them; mean_jacobian forms the mean Jacobian, which the package
needs only as the Newton matrix of its fits and never forms as such; implied_probabilities gives the empirical likelihood
probabilities of a multiplier, which seel.el does not form, and dense_g
stacks the g_i of the observed rows as the matrix G, which seel.el never
forms either.  FullGram
computes every weighted Gram matrix in full, where seel.model.WeightedGram
corrects a reference product, and NoTermsMemo is a row-pass memo that
never holds an entry, so every pass is computed where seel.model reads
through the memo each Dataset owns.  kernel_cdf_full evaluates the kernel
CDF's polynomial on every element, clipped, where seel.kernels evaluates it
on the band |u| < 1 only.  design_d1_rows draws the d1 design one row at
a time, where seel.simulate.gen_design draws it in one call, and
design_d2_loop draws the d2 design one column at a time, where gen_design
draws it in batches of columns.
read_dataset_rows parses a dataset CSV one row at a time with csv and
float()/int(), where seel.cli.read_dataset parses the whole body in one
np.loadtxt pass; write_dataset_rows writes one through csv.writer, where
seel.cli.write_dataset formats each line itself; and parse_lines_alone
and first_row_error parse a CSV's lines one at a time, where read_dataset
parses them all at once and bisects a bad file.  OneShotStream
hashes all counters of a draw in one array, and normal_quantile_masked and
zero_expectile_tau_masked split their input with boolean indexing, where
seel.numkit and seel.inference work block by block, with np.compress and
np.place, in place.  resolved_tau_one_shot draws the tau calibration
sample in one call, where seel.simulate.SimConfig.resolved_tau streams it
in blocks.  dataset_alone draws one Monte Carlo replication's dataset
from its own RngStream, one generator call each for the design, errors and
missingness, where seel.simulate draws a block of replications in one hash
pass.  expectile_fit_confirming runs the expectile fit's
loop until a step falls below tol, with the confirming solve that
seel.estimators.expectile_fit skips once the weights repeat.
"""

import csv

import numpy as np

from seel.errors import CsvSchemaError, NoConvergenceError, OneSidedSampleError
from seel.inference import zero_expectile_tau
from seel.model import Dataset, WeightedGram, evaluate
from seel.numkit import (_A, _B, _C, _D, _E, _F, _GOLDEN, RngStream, _mix64,
                         solve_spd)
from seel.simulate import _TAU_STREAM, gen_design, gen_errors, gen_missing


def expectile_loss(tau, x):
    """Asymmetric squared loss |tau - 1{x<0}| x^2."""
    x = np.asarray(x, dtype=float)
    out = np.where(x >= 0.0, tau, 1.0 - tau) * x * x
    return out if out.ndim else float(out)


def pdf_prime(kernel, u):
    """Derivative of the kernel density, zero outside the open support."""
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) < 1.0
    t = 1.0 - u * u
    if kernel.name == "epanechnikov":
        val = -1.5 * u
    elif kernel.name == "quartic":
        val = -3.75 * u * t
    else:
        val = -(105.0 / 16.0) * u * t * t
    out = np.where(inside, val, 0.0)
    return out if out.ndim else float(out)


def kernel_cdf_full(kernel, u):
    """The kernel CDF with its polynomial evaluated on every element of u
    clipped to [-1, 1], and the result clipped to [0, 1]."""
    u = np.asarray(u, dtype=float)
    v = np.clip(u, -1.0, 1.0)
    if kernel.name == "epanechnikov":
        out = 0.25 * (2.0 + 3.0 * v - v ** 3)
    elif kernel.name == "quartic":
        out = 0.5 + (15.0 / 16.0) * (v - (2.0 / 3.0) * v ** 3 + 0.2 * v ** 5)
    else:
        out = 0.5 + (35.0 / 32.0) * (v - v ** 3 + 0.6 * v ** 5 - v ** 7 / 7.0)
    out = np.clip(out, 0.0, 1.0)
    return out if out.ndim else float(out)


def psi_h(cfg, xrow, yval, beta, h=None):
    """Smoothed expectile weight tau + (1-2 tau) G((x'beta - y)/h)."""
    if h is None:
        h = cfg.h
        if h is None:
            raise ValueError("psi_h needs an explicit bandwidth when cfg.h is unset")
    arg = float(np.dot(xrow, beta) - yval)
    return cfg.tau + (1.0 - 2.0 * cfg.tau) * cfg.kernel.cdf(arg / h)


def g_raw(ds, i, tau, beta):
    """Raw estimating function of row i (indicator version)."""
    if ds.delta[i] == 0:
        return np.zeros(ds.p)
    r = ds.y[i] - float(ds.X[i] @ beta)
    weight = tau + (1.0 - 2.0 * tau) * (1.0 if r < 0.0 else 0.0)
    return weight * r * ds.X[i]


def g_smooth(ds, i, cfg, beta):
    """Smoothed estimating function of row i."""
    if ds.delta[i] == 0:
        return np.zeros(ds.p)
    h = cfg.bandwidth(ds.n)
    r = ds.y[i] - float(ds.X[i] @ beta)
    w = cfg.tau + (1.0 - 2.0 * cfg.tau) * cfg.kernel.cdf(-r / h)
    return w * r * ds.X[i]


def g_smooth_jacobian(ds, i, cfg, beta):
    """d g_smooth_i / d beta, a symmetric scaling of x_i x_i'."""
    if ds.delta[i] == 0:
        return np.zeros((ds.p, ds.p))
    h = cfg.bandwidth(ds.n)
    x = ds.X[i]
    r = ds.y[i] - float(x @ beta)
    u = -r / h
    w = cfg.tau + (1.0 - 2.0 * cfg.tau) * cfg.kernel.cdf(u)
    scal = (1.0 - 2.0 * cfg.tau) / h * cfg.kernel.pdf(u) * r - w
    return scal * np.outer(x, x)


def mean_jacobian(ds, cfg, beta):
    """Mean Jacobian J = Xo' diag(c) Xo / n of the smoothed estimating
    functions, from the per-row scalars c of seel.model.evaluate (so
    d g_i / d beta = c_i x_i x_i').  At lambda = 0 the Newton matrix of
    seel.estimators' fits is -J."""
    c = evaluate(ds, cfg, beta).c
    return ds.Xo.T @ (ds.Xo * c[:, None]) / ds.n


def g_smooth_hessian_slice(ds, i, j, cfg, beta):
    """Second derivative in beta of component j of g_smooth_i."""
    if ds.delta[i] == 0:
        return np.zeros((ds.p, ds.p))
    h = cfg.bandwidth(ds.n)
    x = ds.X[i]
    r = ds.y[i] - float(x @ beta)
    u = -r / h
    one_m2t = 1.0 - 2.0 * cfg.tau
    scal = one_m2t / h ** 2 * pdf_prime(cfg.kernel, u) * r \
        - 2.0 * one_m2t / h * cfg.kernel.pdf(u)
    return x[j] * scal * np.outer(x, x)


def implied_probabilities(ds, cfg, beta, lam):
    """Empirical likelihood probabilities 1 / (n (1 + lam'g_i)) of every
    row, row by row; a row with a missing response has g_i = 0, so 1/n."""
    lam = np.asarray(lam, dtype=float)
    w = [1.0 + float(lam @ g_smooth(ds, i, cfg, beta)) for i in range(ds.n)]
    return 1.0 / (ds.n * np.array(w))


def dense_g(ds, cfg, beta):
    """The (n_complete, p) matrix G of the observed rows' g_i = a_i x_i, in
    row order, formed as a product; rows left out have g_i = 0."""
    return ds.Xo * evaluate(ds, cfg, beta).a[:, None]


class NoTermsMemo:
    """Row-pass memo that never holds an entry."""

    @property
    def entries(self):
        return ()

    @entries.setter
    def entries(self, value):
        pass


class FullGram:
    """Stand-in for seel.model.WeightedGram: X' diag(v) X in full each call,
    or its [cols, cols] block taken from the full product."""

    def __init__(self, X):
        self.X = X

    def __call__(self, v, cols=None):
        K = self.X.T @ (self.X * np.asarray(v, dtype=float)[:, None])
        return K if cols is None else K[np.ix_(cols, cols)]


def design_d1_rows(n, p, rng):
    """The d1 design drawn row by row: p standard normals per row."""
    X = np.empty((n, p))
    for i in range(n):
        X[i] = rng.normals(p)
    return X


def design_d2_loop(n, p, rng):
    """The d2 design drawn column by column: chi-square(1) + j^2/n for every
    1-based column j except column 3, which is standard normal."""
    X = np.empty((n, p))
    for j in range(p):
        if j == 2:
            X[:, j] = rng.normals(n)
        else:
            X[:, j] = rng.chi2_1(n) + (j + 1) ** 2 / n
    return X


def write_dataset_rows(path, ds):
    """Write a dataset CSV one row at a time through csv.writer."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "delta"] + [f"x{j}" for j in range(1, ds.p + 1)])
        X = ds.X
        for i in range(ds.n):
            y_cell = repr(float(ds.y[i])) if ds.delta[i] == 1 else ""
            writer.writerow([y_cell, int(ds.delta[i])]
                            + [repr(float(v)) for v in X[i]])


def read_dataset_rows(path):
    """Parse a dataset CSV; raises CsvSchemaError on any schema violation."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CsvSchemaError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise CsvSchemaError("empty file")
    header = [c.strip() for c in rows[0]]
    if len(header) < 3 or header[0] != "y" or header[1] != "delta":
        raise CsvSchemaError("header must be y,delta,x1,...,xp")
    p = len(header) - 2
    expected = [f"x{j}" for j in range(1, p + 1)]
    if header[2:] != expected:
        raise CsvSchemaError("covariate columns must be named x1..xp in order")
    ys, deltas, xs = [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != p + 2:
            raise CsvSchemaError(f"line {lineno}: expected {p + 2} fields")
        y_cell = row[0].strip()
        try:
            delta = int(row[1])
            x = [float(v) for v in row[2:]]
        except ValueError:
            raise CsvSchemaError(f"line {lineno}: malformed number") from None
        if delta not in (0, 1):
            raise CsvSchemaError(f"line {lineno}: delta must be 0 or 1")
        if delta == 1:
            if not y_cell:
                raise CsvSchemaError(f"line {lineno}: delta=1 needs a y value")
            try:
                y = float(y_cell)
            except ValueError:
                raise CsvSchemaError(f"line {lineno}: malformed y") from None
            if not np.isfinite(y):
                raise CsvSchemaError(f"line {lineno}: y must be finite")
        else:
            if y_cell:
                raise CsvSchemaError(f"line {lineno}: delta=0 needs an empty y")
            y = np.nan
        ys.append(y)
        deltas.append(delta)
        xs.append(x)
    if not xs:
        raise CsvSchemaError("no data rows")
    try:
        return Dataset(np.array(xs), np.array(ys), np.array(deltas))
    except ValueError as exc:
        raise CsvSchemaError(str(exc)) from None


def parse_lines_alone(path, parse_rows):
    """The dataset CSV at path parsed one data line at a time by
    parse_rows(lines, p): "line N: message" for the first line it rejects,
    or else the (X, y, delta) of every line, stacked."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    p = len(next(csv.reader(lines[:1]))) - 2
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line.strip():
            try:
                rows.append(parse_rows([line], p))
            except ValueError as exc:
                return f"line {lineno}: {exc}"
    return tuple(np.concatenate(arrays) for arrays in zip(*rows))


def first_row_error(path, parse_rows):
    """The row error of the dataset CSV at path, "line N: message" for the
    first data line that parse_rows(lines, p) rejects on its own, or None
    when every line passes."""
    outcome = parse_lines_alone(path, parse_rows)
    return outcome if isinstance(outcome, str) else None


class OneShotStream(RngStream):
    """RngStream whose draws hash every counter of a draw in one array."""

    def _next_words(self, size):
        with np.errstate(over="ignore"):
            idx = np.arange(self._counter, self._counter + size, dtype=np.uint64)
            words = _mix64(self._key + idx * _GOLDEN)
        self._counter += size
        return words

    def uniforms(self, size):
        """size draws from the open interval (0, 1), 53-bit resolution."""
        bits = self._next_words(size) >> np.uint64(11)
        return (bits.astype(np.float64) + 0.5) * 2.0 ** -53

    def normals(self, size):
        return normal_quantile_masked(self.uniforms(size))

    def exponentials(self, mean, size):
        return -mean * np.log(self.uniforms(size))


def _poly(coefs, r):
    # Horner evaluation; coefs listed from the constant term upward
    acc = np.zeros_like(r) + coefs[-1]
    for c in coefs[-2::-1]:
        acc = acc * r + c
    return acc


def normal_quantile_masked(u):
    """Inverse standard normal CDF, vectorized; u must lie strictly in (0, 1)."""
    u = np.asarray(u, dtype=float)
    q = u - 0.5
    out = np.empty_like(u)

    central = np.abs(q) <= 0.425
    if np.any(central):
        r = 0.180625 - q[central] ** 2
        out[central] = _poly(_A, r) * q[central] / _poly((1.0,) + _B, r)

    tail = ~central
    if np.any(tail):
        qt = q[tail]
        r = np.where(qt < 0.0, u[tail], 1.0 - u[tail])
        r = np.sqrt(-np.log(r))
        near = r <= 5.0
        z = np.empty_like(r)
        if np.any(near):
            rn = r[near] - 1.6
            z[near] = _poly(_C, rn) / _poly((1.0,) + _D, rn)
        if np.any(~near):
            rf = r[~near] - 5.0
            z[~near] = _poly(_E, rf) / _poly((1.0,) + _F, rf)
        out[tail] = np.where(qt < 0.0, -z, z)
    return out if out.ndim else float(out)


def zero_expectile_tau_masked(residuals):
    """The tau whose sample expectile equation the residuals satisfy at zero."""
    r = np.asarray(residuals, dtype=float)
    s_pos = float(np.sum(r[r > 0.0]))
    s_neg = float(-np.sum(r[r < 0.0]))
    if s_pos == 0.0 or s_neg == 0.0:
        raise OneSidedSampleError("residuals must take both signs")
    return s_neg / (s_pos + s_neg)


def resolved_tau_one_shot(seed):
    """The shifted-exponential calibration tau of seed: 10^6 errors of the
    calibration stream in one draw, then their zero-expectile level."""
    sample = gen_errors("shifted_exp", 10 ** 6, RngStream(seed, _TAU_STREAM))
    return zero_expectile_tau(sample)


def dataset_alone(sc, stream_id):
    """The dataset of replication stream_id of the Monte Carlo cell sc,
    drawn alone: design, errors and missingness flags from
    RngStream(sc.seed, stream_id), in that order."""
    rng = RngStream(sc.seed, stream_id)
    X = gen_design(sc.design, sc.n, sc.p, rng)
    eps = gen_errors(sc.errors, sc.n, rng)
    delta = gen_missing(sc.missing, X, rng, sc.pi)
    y = X @ sc.beta0 + eps
    y = np.where(delta == 1, y, np.nan)
    return Dataset(X, y, delta)


def expectile_fit_confirming(ds, tau, tol=1e-8, max_iter=500, gram=None):
    """(beta, solves): the expectile fit of a full-rank complete-case
    design, stopping only on a step below tol, and the number of reweighted
    solves it made.  gram is the WeightedGram to use (a new one if None)."""
    Xc, yc = ds.complete_cases()
    beta = solve_spd(Xc.T @ Xc, Xc.T @ yc)
    gram = WeightedGram(Xc) if gram is None else gram
    for solves in range(1, max_iter + 1):
        r = yc - Xc @ beta
        w = np.where(r >= 0.0, tau, 1.0 - tau)
        beta_new = solve_spd(gram(w), Xc.T @ (w * yc))
        step = np.linalg.norm(beta_new - beta)
        beta = beta_new
        if step < tol:
            return beta, solves
    raise NoConvergenceError("expectile fit not converged")
