"""Wilks-type chi-square tests, the penalized ratio and its BIC, and the two
data-driven rules for choosing the expectile level tau."""

import warnings
from dataclasses import dataclass

import numpy as np

from .el import el_ratio_approx, el_ratio_exact, lambda_approx, solve_lambda_exact
from .errors import (
    DegenerateSampleError,
    EstimationError,
    HullViolationError,
    LogDomainError,
    NoConvergenceError,
    OneSidedSampleError,
    SingularMatrixError,
)
from .estimators import adaptive_weights, expectile_fit, fit_l2, pilot_estimate
from .model import PenaltyConfig
from .numkit import chi2_quantile, chi2_sf


@dataclass
class TestReport:
    """Chi-square test of a hypothesized coefficient vector."""

    statistic: float
    df: int
    critical: float
    pvalue: float
    reject: bool
    alpha: float


@dataclass
class BicRecord:
    """One cell of a tuning-parameter sweep."""

    eta: float
    bic: float
    active_set: np.ndarray
    beta: np.ndarray


def el_ratio(ds, cfg, beta):
    """Log-likelihood ratio at beta with the closed-form multiplier.

    Evaluates 2 sum(log(1 + lambda'g_i)) at lambda = S^{-1} gbar, falling
    back to the quadratic form when a log factor leaves its domain.  This is
    the statistic the Monte Carlo coverage probabilities are built on.
    """
    lam = lambda_approx(ds, cfg, beta)
    try:
        return el_ratio_exact(ds, cfg, beta, lam)
    except LogDomainError:
        return el_ratio_approx(ds, cfg, beta)


def wilks_test(ds, cfg, beta_hypothesis, alpha=0.05, support=None):
    """Chi-square test of H0: beta = beta_hypothesis.

    The statistic is the quadratic approximation of the log-likelihood
    ratio, compared against the (1 - alpha) quantile of chi-square(df).
    When `support` is given, the ratio is evaluated on the submodel spanned
    by those covariate columns (coordinates outside it are fixed at zero)
    and df is their number; otherwise df is p.
    """
    beta_hypothesis = np.asarray(beta_hypothesis, dtype=float)
    if support is not None:
        support = np.asarray(support, dtype=int)
        ds, beta_hypothesis = ds.select_columns(support), beta_hypothesis[support]
    df = ds.p
    stat = el_ratio_approx(ds, cfg, beta_hypothesis)
    critical = chi2_quantile(1.0 - alpha, df)
    pvalue = chi2_sf(stat, df)
    return TestReport(statistic=stat, df=df, critical=critical,
                      pvalue=pvalue, reject=bool(stat > critical), alpha=alpha)


def penalized_ratio(ds, cfg, pen, beta, lam=None):
    """Ratio plus the adaptive-LASSO penalty n eta sum(w_j |beta_j|).

    The ratio part prefers the exact multiplier; when the multiplier
    equation is not solvable it falls back to the closed-form multiplier and
    finally to the quadratic approximation.  Coordinates at exactly zero
    contribute nothing, so frozen coordinates (infinite weight, zero
    coefficient) are well defined.

    lam is an optional multiplier array of length p that calls at nearby
    betas share: the exact solve starts from it (see solve_lambda_exact)
    and writes its solution back into it; a fallback leaves it unchanged.
    """
    beta = np.asarray(beta, dtype=float)
    try:
        state = solve_lambda_exact(ds, cfg, beta, lam0=lam)
    except (HullViolationError, NoConvergenceError, SingularMatrixError):
        ratio = el_ratio(ds, cfg, beta)
    else:
        ratio = state.ratio
        if lam is not None:
            lam[:] = state.lam
    if pen.eta == 0.0:
        return ratio
    w = adaptive_weights(pen.pilot, pen.gamma, cfg.eps_zero)
    nonzero = beta != 0.0
    penalty = ds.n * pen.eta * float(np.sum(w[nonzero] * np.abs(beta[nonzero])))
    return ratio + penalty


def bic(ds, cfg, pen, fit, lam=None):
    """Schwarz-type criterion: penalized ratio + log(n) * |active set|.

    lam is passed to penalized_ratio as its shared multiplier array."""
    value = penalized_ratio(ds, cfg, pen, fit.beta, lam=lam) \
        + np.log(ds.n) * len(fit.active_set)
    return BicRecord(eta=pen.eta, bic=float(value),
                     active_set=np.asarray(fit.active_set, dtype=int),
                     beta=np.asarray(fit.beta, dtype=float))


def bic_sweep(ds, cfg, gamma, eta_grid, pilot_mode="same", failures=None):
    """Fit the penalized estimator on each eta and rank by BIC.

    One pilot is shared across the grid, and so is one starting point: the
    expectile fit of the dataset, computed once and passed as beta0 to the
    "same"-mode pilot and to the fit of every cell.  Neighbouring cells have
    nearly the same fit, so the exact multiplier of each cell's ratio starts
    from the last one solved along the grid (zero for the first cell); the
    start changes the multiplier only within the solver's tolerance.  Ties
    in the criterion break toward the larger eta (the sparser model).  Grid
    cells whose fit raises an EstimationError are reported through a
    warning, appended as (eta, exception) to the `failures` list when one is
    given, and excluded; any other exception propagates.

    Returns
    -------
    (best, records) : the argmin BicRecord and the list of all successful
    records in grid order.
    """
    etas = list(eta_grid)
    if not etas or any(e < 0 for e in etas):
        raise ValueError("eta grid must be nonempty and nonnegative")
    start = expectile_fit(ds, cfg.tau)
    pilot = pilot_estimate(ds, cfg, mode=pilot_mode, beta0=start)
    lam = np.zeros(ds.p)
    records = []
    failed = [] if failures is None else failures
    for eta in etas:
        pen = PenaltyConfig(eta=float(eta), gamma=gamma, pilot=pilot)
        try:
            fit = fit_l2(ds, cfg, pen, start)
            records.append(bic(ds, cfg, pen, fit, lam=lam))
        except EstimationError as exc:
            failed.append((eta, exc))
            warnings.warn(f"BIC sweep cell eta={eta:g} failed: {exc}")
    if not records:
        raise failed[-1][1]
    best = records[0]
    for rec in records[1:]:
        if rec.bic < best.bic or (rec.bic == best.bic and rec.eta > best.eta):
            best = rec
    return best, records


def empirical_tau(y):
    """Expectile level estimated from the observed responses.

    The responses are centered at their median and scaled by the mean
    absolute deviation about the median; tau is the share of the negative
    mass in the total absolute mass of the rescaled values.
    """
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("empty sample")
    med = np.median(y)
    mad = np.mean(np.abs(y - med))
    if mad == 0.0:
        raise DegenerateSampleError("all responses equal; tau undefined")
    yt = (y - med) / mad
    neg = float(np.sum(yt[yt < 0.0]))
    pos = float(np.sum(yt[yt > 0.0]))
    denom = neg - pos
    if denom == 0.0:
        raise DegenerateSampleError("rescaled responses carry no mass")
    return neg / denom


def zero_expectile_tau(residuals):
    """The tau whose sample expectile equation the residuals satisfy at zero.

    Closed form S- / (S+ + S-) with S+ the positive mass and S- the negative
    mass; plugging it back makes mean(r * (tau 1{r>0} + (1-tau) 1{r<0}))
    vanish identically.
    """
    r = np.asarray(residuals, dtype=float)
    s_pos = float(np.sum(r[r > 0.0]))
    s_neg = float(-np.sum(r[r < 0.0]))
    if s_pos == 0.0 or s_neg == 0.0:
        raise OneSidedSampleError("residuals must take both signs")
    return s_neg / (s_pos + s_neg)
