"""Data model and the smoothed expectile estimating function.

The estimating function of observation i applies the asymmetric expectile
weight to its residual, with the residual-sign indicator replaced by a
kernel CDF evaluated at (x'beta - y)/h so that everything is differentiable
in beta.  A row whose response is missing (delta_i = 0) has g_i = 0, so
every row pass runs on the observed rows only: each Dataset keeps their
design and responses as Xo/yo, and every mean still divides by the full
sample size n.

One row pass at (dataset, cfg, beta) gives an Evaluation: the per-row
scalars and, formed once on first use, the moments gbar and S and the
closed-form multiplier S^{-1} gbar.  Each Dataset keeps its two most
recent evaluations (see evaluate), so the fits that share a start and the
ratios after a fit read one evaluation instead of repeating it.
"""

from dataclasses import FrozenInstanceError, dataclass, field, fields

import numpy as np

from .errors import NonFiniteError
from .kernels import Kernel
from .numkit import solve_spd


class Dataset:
    """Observations (y_i, x_i, delta_i); y_i is undefined where delta_i = 0.

    Parameters
    ----------
    X : (n, p) array of covariates, all entries finite.
    y : (n,) array of responses; entries with delta = 0 may be NaN and are
        never used.
    delta : (n,) array of 0/1 (or boolean) missingness flags (1 = response
        observed).

    The dataset keeps read-only copies of y and delta and stores the design
    once, read-only, observed rows first, so editing the arrays passed in
    changes nothing here.  Xo and yo are the observed rows, contiguous (Xo
    is the whole design when no response is missing), gram is the
    WeightedGram over Xo that every fit on this dataset shares, and terms is
    the memo of its evaluations (see evaluate).  X is the
    design in the original row order, assembled on every read as a new
    read-only array when a response is missing: a loop should bind it once.
    select_columns and head cut their datasets from these validated rows.
    """

    def __init__(self, X, y, delta):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.array(y, dtype=float).ravel()
        delta = np.asarray(delta).ravel()
        n = X.shape[0]
        if y.shape != (n,) or delta.shape != (n,):
            raise ValueError("y and delta must have one entry per row of X")
        if not np.all(np.isfinite(X)):
            raise ValueError("covariates must be finite")
        # checked before the cast, which would turn 0.5 into 0 and 257 into 1
        if not np.all((delta == 0) | (delta == 1)):
            raise ValueError("delta entries must be 0 or 1")
        delta = delta.astype(np.uint8)
        observed = delta == 1
        if observed.all():
            rows, yo = np.array(X), y
        else:
            order = np.concatenate([np.flatnonzero(observed),
                                    np.flatnonzero(~observed)])
            rows, yo = X[order], y[observed]
        if not np.all(np.isfinite(yo)):
            raise ValueError("observed responses (delta = 1) must be finite")
        self._store(rows, y, delta, yo)

    def _store(self, rows, y, delta, yo):
        """Set every field from validated rows (observed first, yo their
        responses); the one constructor behind __init__ and the datasets
        cut from another one."""
        if rows.shape[0] < 1 or rows.shape[1] < 1:
            raise ValueError("dataset needs at least one row and one column")
        for name, value in (("_rows", rows), ("y", y), ("delta", delta),
                            ("Xo", rows[:yo.shape[0]]), ("yo", yo)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "gram", WeightedGram(self.Xo))
        object.__setattr__(self, "terms", _TermsMemo())

    @classmethod
    def _cut(cls, rows, y, delta, yo):
        """A dataset of rows cut from a validated one, not validated again."""
        ds = cls.__new__(cls)
        ds._store(rows, y, delta, yo)
        return ds

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
        """Dataset using only the covariate columns in idx (submodel view).

        The column gather keeps the F order that Dataset(X[:, idx], ...)
        keeps when every response is observed; otherwise that constructor
        reorders the rows into a C-ordered array, and take does the same.
        """
        idx = np.asarray(idx, dtype=int)
        rows = self._rows[:, idx] if self.n_complete == self.n \
            else self._rows.take(idx, axis=1)
        return self._cut(rows, self.y, self.delta, self.yo)

    def head(self, m):
        """Dataset of the first m rows (all of them when m >= n).

        Its observed rows are a prefix of Xo and its missing ones a prefix
        of the missing block, gathered in one C-ordered row gather, as
        Dataset(X[:m], ...) orders them; with no response missing among
        them, it copies them as that constructor copies its X.
        """
        delta = self.delta[:m]
        k = np.count_nonzero(delta)
        if k == delta.shape[0]:
            rows = np.array(self._rows[:k])
        else:
            nc = self.n_complete
            rows = self._rows[np.r_[0:k, nc:nc + delta.shape[0] - k]]
        return self._cut(rows, self.y[:m], delta, self.yo[:k])


@dataclass
class ModelConfig:
    """Expectile level, smoothing bandwidth and solver tolerances.

    h = None resolves to the default bandwidth n**(-1/4) at fit time, and a
    kernel given by name becomes its Kernel.
    """

    tau: float = 0.5
    h: float | None = None
    kernel: Kernel = field(default_factory=Kernel)
    nu: float = 1e-2
    eps_zero: float = 1e-4
    max_iter: int = 200

    def __post_init__(self):
        if not isinstance(self.kernel, Kernel):
            self.kernel = Kernel(self.kernel)
        # each check is written to fail on NaN as well
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if self.h is not None and not 0.0 < self.h < np.inf:
            raise ValueError("bandwidth h must be finite and positive")
        if not (0.0 < self.nu < np.inf and 0.0 < self.eps_zero < np.inf):
            raise ValueError("tolerances must be finite and positive")
        if not self.max_iter >= 1:
            raise ValueError("max_iter must be at least 1")

    def bandwidth(self, n):
        return self.h if self.h is not None else float(n) ** -0.25


# the ModelConfig settings other than tau, which SimConfig and the CLI's
# flags hold under the same names
SOLVER_FIELDS = tuple(f.name for f in fields(ModelConfig) if f.name != "tau")


@dataclass
class PenaltyConfig:
    """Adaptive-LASSO tuning: level eta, weight power gamma and the pilot."""

    eta: float
    gamma: float = 2.5
    pilot: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 <= self.eta < np.inf:
            raise ValueError("eta must be finite and nonnegative")
        if not 0.0 < self.gamma < np.inf:
            raise ValueError("gamma must be finite and positive")
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

    With a column index cols a call returns only the [cols, cols] block: a
    correction gathers only those columns of X_D, and a rebuild still
    stores the full product, so the reference is always the whole matrix.

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

    def __call__(self, v, cols=None):
        v = np.asarray(v, dtype=float)
        block = slice(None) if cols is None else np.ix_(cols, cols)
        ref = self._ref
        if ref is not None:
            v_ref, K_ref = ref
            rows = (v != v_ref).nonzero()[0]
            if 2 * rows.size <= v.size:
                X_D = (self.X[rows] if cols is None
                       else self.X[np.ix_(rows, cols)])
                dv = v[rows] - v_ref[rows]
                return K_ref[block] + X_D.T @ (X_D * dv[:, None])
        return self._rebuild(v)[block].copy()

    def _rebuild(self, v):
        """Compute X' diag(v) X in full, store it as the reference, return it."""
        K = self.X.T @ (self.X * v[:, None])
        self._ref = (v.copy(), K)
        return K


class _TermsMemo:
    """The two most recently used (key, Evaluation) entries of evaluate on
    one dataset, most recent first, in one tuple that is replaced whole."""

    entries = ()


class _kept:
    """functools.cached_property without the lock that Python 3.11 takes on
    every first read: the value goes into the instance dict under the
    method's name, where later reads find it first."""

    def __init__(self, method):
        self.method, self.name = method, method.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.method(obj)
        return value


class Evaluation:
    """The closed-form quantities of one dataset at one (cfg, beta).

    a and c are the per-row scalars of the observed rows Xo, with
    g_i = a_i x_i and d g_i / d beta = c_i x_i x_i'.  gbar (the mean of
    g_i), S (the mean of g_i g_i') and the closed-form multiplier
    lam = S^{-1} gbar are formed on first use and kept; each mean divides
    by the full sample size n, and each raises NonFiniteError when it is
    not finite, as when a response near the float maximum overflows S.
    Every array is read-only.  It holds Xo and
    n, not the dataset, so a dataset and the evaluations in its memo form no
    reference cycle.
    """

    def __init__(self, Xo, n, a, c):
        self.Xo, self.n, self.a, self.c = Xo, n, a, c
        a.flags.writeable = c.flags.writeable = False

    # a read that raises keeps nothing, so the next read raises again
    @_kept
    def gbar(self):
        return _finite(self.Xo.T @ self.a / self.n, "gbar")

    @_kept
    def S(self):
        return _finite(self.Xo.T @ (self.Xo * (self.a * self.a)[:, None])
                       / self.n, "S")

    @_kept
    def lam(self):
        return _finite(solve_spd(self.S, self.gbar), "the multiplier")


def _finite(x, name):
    """x, read-only, or NonFiniteError when an entry is not finite."""
    if not np.isfinite(x).all():
        raise NonFiniteError(f"{name} is not finite: the data overflow the "
                             f"float range")
    x.flags.writeable = False
    return x


def evaluate(ds, cfg, beta, memo=True):
    """The Evaluation of ds at (cfg, beta): one pass over the observed rows
    (ds.Xo, ds.yo), with the bandwidth set by the full sample size n.

    With memo, it reads through ds.terms, keyed by tau, h, the kernel and
    the bytes of beta.  Two entries hold both the start that several fits
    share (a sweep's pilot and cells, the fits of a replication) and the
    fitted beta whose ratio follows each fit.
    """
    beta = np.asarray(beta, dtype=float)
    h = cfg.bandwidth(ds.n)
    if memo:
        key = (cfg.tau, h, cfg.kernel.name, beta.tobytes())
        entries = ds.terms.entries
        for i, entry in enumerate(entries):
            if entry[0] == key:
                ds.terms.entries = (entry,) + entries[:i] + entries[i + 1:]
                return entry[1]
    r = ds.yo - ds.Xo @ beta
    u = -r / h
    w = cfg.tau + (1.0 - 2.0 * cfg.tau) * cfg.kernel.cdf(u)
    ev = Evaluation(ds.Xo, ds.n, w * r,
                    (1.0 - 2.0 * cfg.tau) / h * cfg.kernel.pdf(u) * r - w)
    if memo:
        ds.terms.entries = ((key, ev),) + entries[:1]
    return ev


def moments(ds, cfg, beta):
    """Sample moments (gbar, S) of the smoothed estimating functions: the
    mean of g_i and of g_i g_i' over all n rows (see Evaluation)."""
    ev = evaluate(ds, cfg, beta)
    return ev.gbar, ev.S


def g_matrix(ds, cfg, beta):
    """The smoothed estimating functions of the observed rows as their
    factors (Xo, a): g_i = a_i x_i, so the matrix G of the g_i is
    a[:, None] * Xo, which is never formed.  Both arrays are read-only and
    shared, not copied; every row left out has g_i = 0."""
    return ds.Xo, evaluate(ds, cfg, beta).a
