"""Data model and the smoothed expectile estimating function.

The estimating function of observation i applies the asymmetric expectile
weight to its residual, with the residual-sign indicator replaced by a
kernel CDF evaluated at (x'beta - y)/h so that everything is differentiable
in beta.  Missing responses are guarded by the delta flags and never read.
"""

from dataclasses import dataclass, field

import numpy as np

from .kernels import Kernel


@dataclass(frozen=True)
class Dataset:
    """Observations (y_i, x_i, delta_i); y_i is undefined where delta_i = 0.

    Parameters
    ----------
    X : (n, p) array of covariates, all entries finite.
    y : (n,) array of responses; entries with delta = 0 may be NaN and are
        never used.
    delta : (n,) array of 0/1 missingness flags (1 = response observed).
    """

    X: np.ndarray
    y: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        delta = np.asarray(self.delta).ravel().astype(np.uint8)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "delta", delta)
        n, p = X.shape
        if n < 1 or p < 1:
            raise ValueError("dataset needs at least one row and one column")
        if y.shape != (n,) or delta.shape != (n,):
            raise ValueError("y and delta must have one entry per row of X")
        if not np.all(np.isfinite(X)):
            raise ValueError("covariates must be finite")
        if not np.all((delta == 0) | (delta == 1)):
            raise ValueError("delta entries must be 0 or 1")
        if not np.all(np.isfinite(y[delta == 1])):
            raise ValueError("observed responses (delta = 1) must be finite")
        y_safe = np.where(delta == 1, np.where(np.isfinite(y), y, 0.0), 0.0)
        y_safe.flags.writeable = False
        object.__setattr__(self, "_y_safe", y_safe)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def p(self):
        return self.X.shape[1]

    @property
    def n_complete(self):
        return int(self.delta.sum())

    def y_safe(self):
        """Responses with unobserved entries replaced by 0 (never used bare);
        computed once per dataset and read-only."""
        return self._y_safe

    def complete_cases(self):
        """(X, y) restricted to rows with observed responses."""
        mask = self.delta == 1
        return self.X[mask], self.y[mask]

    def select_columns(self, idx):
        """Dataset using only the covariate columns in idx (submodel view)."""
        idx = np.asarray(idx, dtype=int)
        return Dataset(self.X[:, idx], self.y, self.delta)


@dataclass
class ModelConfig:
    """Expectile level, smoothing bandwidth and solver tolerances.

    h = None resolves to the default bandwidth n**(-1/4) at fit time.
    """

    tau: float = 0.5
    h: float | None = None
    kernel: Kernel = field(default_factory=Kernel)
    nu: float = 1e-2
    eps_zero: float = 1e-4
    max_iter: int = 200

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if self.h is not None and self.h <= 0.0:
            raise ValueError("bandwidth h must be positive")
        if self.nu <= 0.0 or self.eps_zero <= 0.0:
            raise ValueError("tolerances must be positive")

    def bandwidth(self, n):
        return self.h if self.h is not None else float(n) ** -0.25


@dataclass
class PenaltyConfig:
    """Adaptive-LASSO tuning: level eta, weight power gamma and the pilot."""

    eta: float
    gamma: float = 2.5
    pilot: np.ndarray | None = None

    def __post_init__(self):
        if self.eta < 0.0:
            raise ValueError("eta must be nonnegative")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.pilot is not None:
            self.pilot = np.asarray(self.pilot, dtype=float).ravel()

    @staticmethod
    def default_eta(n):
        """The default penalty level n**(-5/6)."""
        return float(n) ** (-5.0 / 6.0)


class WeightedGram:
    """X' diag(v) X for a sequence of weight vectors v over one design X.

    The first call computes the product in full and keeps it, with a copy of
    v, as the reference.  A later call corrects the reference on the rows D
    whose weight differs from it, K_ref + X_D' diag(v_D - v_ref,D) X_D, and
    rebuilds the reference when more than half of the rows differ.  The
    half is a chosen bound, not a cost crossover: a correction over k rows
    costs about k/n of a full product plus the gather of X_D, which on a
    50 000 x 50 design (one BLAS thread) stays cheaper than the full
    product up to about three quarters of the rows.  Rebuilding at half
    caps a correction at about two thirds of a full product, moves the
    reference to the current weights once they have drifted from it, and
    puts fits whose weights change on every used row straight on full
    products.  Every result is one correction away from a full product, so
    rounding does not accumulate along a sequence.  Each call returns a new
    array.

    Smoothed expectile weights are constant outside the kernel band, so
    between nearby iterates only the rows in or crossing the band change.
    """

    def __init__(self, X):
        self.X = X
        self._v_ref = None
        self._K_ref = None

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        if self._v_ref is not None:
            rows = np.flatnonzero(v != self._v_ref)
            if 2 * rows.size <= v.size:
                X_D = self.X[rows]
                dv = v[rows] - self._v_ref[rows]
                return self._K_ref + X_D.T @ (X_D * dv[:, None])
        self._rebuild(v)
        return self._K_ref.copy()

    def _rebuild(self, v):
        self._v_ref = v.copy()
        self._K_ref = self.X.T @ (self.X * v[:, None])


def _row_terms(ds, cfg, beta):
    """Per-row scalars shared by the sample moments and the fit updates.

    Returns (a, c) with g_i = a_i x_i and d g_i / d beta = c_i x_i x_i'.
    """
    h = cfg.bandwidth(ds.n)
    used = ds.delta == 1
    r = np.where(used, ds.y_safe() - ds.X @ beta, 0.0)
    u = -r / h
    w = cfg.tau + (1.0 - 2.0 * cfg.tau) * cfg.kernel.cdf(u)
    a = np.where(used, w * r, 0.0)
    c = np.where(used, (1.0 - 2.0 * cfg.tau) / h * cfg.kernel.pdf(u) * r - w, 0.0)
    return a, c


def moments(ds, cfg, beta):
    """Sample moments (gbar, S, J) of the smoothed estimating functions.

    gbar is the mean of g_i, S the mean of g_i g_i' (second-moment matrix)
    and J the mean Jacobian; all averages run over the full sample size n,
    rows with missing responses contributing zero.
    """
    a, c = _row_terms(ds, cfg, beta)
    n = ds.n
    gbar = ds.X.T @ a / n
    S = ds.X.T @ (ds.X * (a * a)[:, None]) / n
    J = ds.X.T @ (ds.X * c[:, None]) / n
    return gbar, S, J


def g_matrix(ds, cfg, beta):
    """All smoothed estimating functions stacked as an (n, p) matrix."""
    a, _ = _row_terms(ds, cfg, beta)
    return ds.X * a[:, None]
