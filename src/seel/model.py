"""Data model and the smoothed expectile estimating function.

The estimating function of observation i applies the asymmetric expectile
weight to its residual, with the residual-sign indicator replaced by a
kernel CDF evaluated at (x'beta - y)/h so that everything is differentiable
in beta.  A row whose response is missing (delta_i = 0) has g_i = 0, so
every row pass runs on the observed rows only: each Dataset keeps their
design and responses as Xo/yo, and every mean still divides by the full
sample size n.
"""

from dataclasses import FrozenInstanceError, dataclass, field

import numpy as np

from .kernels import Kernel


class Dataset:
    """Observations (y_i, x_i, delta_i); y_i is undefined where delta_i = 0.

    Parameters
    ----------
    X : (n, p) array of covariates, all entries finite.
    y : (n,) array of responses; entries with delta = 0 may be NaN and are
        never used.
    delta : (n,) array of 0/1 missingness flags (1 = response observed).

    The dataset keeps read-only copies of y and delta and stores the design
    once, read-only, observed rows first, so editing the arrays passed in
    changes nothing here.  Xo and yo are the observed rows, contiguous (Xo
    is the whole design when no response is missing), and gram is the
    WeightedGram over Xo that every fit on this dataset shares.  X is the
    design in the original row order, assembled on every read as a new
    read-only array when a response is missing: a loop should bind it once.
    """

    def __init__(self, X, y, delta):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.array(y, dtype=float).ravel()
        delta = np.asarray(delta).ravel().astype(np.uint8)
        n, p = X.shape
        if n < 1 or p < 1:
            raise ValueError("dataset needs at least one row and one column")
        if y.shape != (n,) or delta.shape != (n,):
            raise ValueError("y and delta must have one entry per row of X")
        if not np.all(np.isfinite(X)):
            raise ValueError("covariates must be finite")
        if not np.all((delta == 0) | (delta == 1)):
            raise ValueError("delta entries must be 0 or 1")
        observed = delta == 1
        if observed.all():
            rows = Xo = np.array(X)
            yo = y
        else:
            order = np.concatenate([np.flatnonzero(observed),
                                    np.flatnonzero(~observed)])
            rows = X[order]
            Xo, yo = rows[:np.count_nonzero(observed)], y[observed]
        if not np.all(np.isfinite(yo)):
            raise ValueError("observed responses (delta = 1) must be finite")
        for name, value in (("_rows", rows), ("y", y), ("delta", delta),
                            ("Xo", Xo), ("yo", yo)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "gram", WeightedGram(Xo))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def X(self):
        """The (n, p) design in the original row order, read-only."""
        if self.n_complete == self.n:
            return self.Xo
        X = np.empty_like(self._rows)
        observed = self.delta == 1
        X[observed] = self.Xo
        X[~observed] = self._rows[self.n_complete:]
        X.flags.writeable = False
        return X

    @property
    def n(self):
        return self.delta.shape[0]

    @property
    def p(self):
        return self._rows.shape[1]

    @property
    def n_complete(self):
        return self.Xo.shape[0]

    def complete_cases(self):
        """(Xo, yo): the rows with observed responses, read-only."""
        return self.Xo, self.yo

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
    costs about k/n of a full product plus the gather of X_D.  Rebuilding
    at half caps a correction at half of the rows, moves the reference to
    the current weights once they have drifted from it, and puts fits whose
    weights change on every used row straight on full products.  Every
    result is one correction away from a full product, so rounding does not
    accumulate along a sequence.  Each call returns a new array.

    Smoothed expectile weights are constant outside the kernel band, so
    between nearby iterates only the rows in or crossing the band change.
    Fits that start at the same beta share the reference through the one
    instance their Dataset owns, and the first product of each later fit is
    a correction over no rows.  The reference is one (v_ref, K_ref) tuple,
    read once per call and replaced whole, so two threads sharing an
    instance can cause an extra rebuild but never mix two references.
    """

    def __init__(self, X):
        self.X = X
        self._ref = None

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        ref = self._ref
        if ref is not None:
            v_ref, K_ref = ref
            rows = np.flatnonzero(v != v_ref)
            if 2 * rows.size <= v.size:
                X_D = self.X[rows]
                dv = v[rows] - v_ref[rows]
                return K_ref + X_D.T @ (X_D * dv[:, None])
        return self._rebuild(v).copy()

    def _rebuild(self, v):
        """Compute X' diag(v) X in full, store it as the reference, return it."""
        K = self.X.T @ (self.X * v[:, None])
        self._ref = (v.copy(), K)
        return K


def _row_terms(ds, cfg, beta):
    """Per-row scalars of the observed rows, shared by the sample moments
    and the fit updates.

    Returns (a, c), each of length n_complete, with g_i = a_i x_i and
    d g_i / d beta = c_i x_i x_i' for the observed rows (ds.Xo, ds.yo); the
    bandwidth is set by the full sample size n.
    """
    h = cfg.bandwidth(ds.n)
    r = ds.yo - ds.Xo @ beta
    u = -r / h
    w = cfg.tau + (1.0 - 2.0 * cfg.tau) * cfg.kernel.cdf(u)
    a = w * r
    c = (1.0 - 2.0 * cfg.tau) / h * cfg.kernel.pdf(u) * r - w
    return a, c


def moments(ds, cfg, beta):
    """Sample moments (gbar, S, J) of the smoothed estimating functions.

    gbar is the mean of g_i, S the mean of g_i g_i' (second-moment matrix)
    and J the mean Jacobian.  The sums run over the observed rows and every
    average divides by the full sample size n: rows with missing responses
    contribute zero.
    """
    a, c = _row_terms(ds, cfg, beta)
    Xo, n = ds.Xo, ds.n
    gbar = Xo.T @ a / n
    S = Xo.T @ (Xo * (a * a)[:, None]) / n
    J = Xo.T @ (Xo * c[:, None]) / n
    return gbar, S, J


def g_matrix(ds, cfg, beta):
    """The smoothed estimating functions of the observed rows, stacked as an
    (n_complete, p) matrix in row order; every row left out has g_i = 0."""
    a, _ = _row_terms(ds, cfg, beta)
    return ds.Xo * a[:, None]
