"""Reference forms that the tests check the package's faster paths against.

The package computes g_i(beta) = (tau + (1 - 2 tau) G((x_i'beta - y_i)/h))
(y_i - x_i'beta) x_i for all rows at once (seel.model.moments and g_matrix).
The per-row functions here evaluate one row at a time, straight from the
formula, so the tests can check the vectorized path and its derivatives
against them.  FullGram computes every weighted Gram matrix in full, where
seel.model.WeightedGram corrects a reference product.  design_d1_one_draw
draws the d1 design in one call and design_d2_loop draws the d2 design one
column at a time, where seel.simulate.gen_design draws both in batches.
read_dataset_rows parses a dataset CSV one row at a time with csv and
float()/int(), where seel.cli.read_dataset parses it in bulk.  OneShotStream
hashes all counters of a draw in one array, and normal_quantile_masked and
zero_expectile_tau_masked split their input with boolean indexing, where
seel.numkit and seel.inference work block by block, with np.compress and
np.place, in place.
"""

import csv

import numpy as np

from seel.errors import CsvSchemaError, OneSidedSampleError
from seel.model import Dataset
from seel.numkit import _A, _B, _C, _D, _E, _F, _GOLDEN, RngStream, _mix64


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


class FullGram:
    """Stand-in for seel.model.WeightedGram: X' diag(v) X in full each call."""

    def __init__(self, X):
        self.X = X

    def __call__(self, v):
        return self.X.T @ (self.X * np.asarray(v, dtype=float)[:, None])


def design_d1_one_draw(n, p, rng):
    """The d1 design drawn at once: n * p standard normals in row order."""
    return rng.normals(n * p).reshape(n, p)


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
