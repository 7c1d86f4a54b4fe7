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
    """One cell of a tuning-parameter sweep.  ratio_method says how its
    ratio was obtained ("exact", "closed_form" or "quadratic", see
    penalized_ratio) and multiplier_iterations how many multiplier Newton
    iterations the exact solve took (0 for the other two methods)."""

    eta: float
    bic: float
    active_set: np.ndarray
    beta: np.ndarray
    ratio_method: str
    multiplier_iterations: int


@dataclass
class CarriedMultiplier:
    """Exact-multiplier state that ratios at nearby betas share, and how the
    last ratio was obtained.

    lam and hessian are the multiplier of the last exact solve that
    succeeded and the last Hessian that solve formed (both None before one
    has); penalized_ratio starts its exact solve from them (lam0 and
    hessian0 of solve_lambda_exact) and replaces them with its own.  method
    ("exact", "closed_form" or "quadratic") and iterations (the multiplier
    Newton iterations of an exact solve, else 0) describe the last ratio.
    """

    lam: np.ndarray | None = None
    hessian: np.ndarray | None = None
    method: str | None = None
    iterations: int = 0


def el_ratio(ds, cfg, beta):
    """Log-likelihood ratio at beta with the closed-form multiplier, and the
    method that gave it.

    Evaluates 2 sum(log(1 + lambda'g_i)) at lambda = S^{-1} gbar (method
    "closed_form"), falling back to the quadratic form ("quadratic") when a
    log factor leaves its domain.  This is the statistic the Monte Carlo
    coverage probabilities are built on.  Returns (ratio, method).
    """
    lam = lambda_approx(ds, cfg, beta)
    try:
        return el_ratio_exact(ds, cfg, beta, lam), "closed_form"
    except LogDomainError:
        return el_ratio_approx(ds, cfg, beta), "quadratic"


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


def penalized_ratio(ds, cfg, pen, beta, carry=None):
    """Ratio plus the adaptive-LASSO penalty n eta sum(w_j |beta_j|).

    The ratio part prefers the exact multiplier; when the multiplier
    equation is not solvable it falls back to the closed-form multiplier and
    finally to the quadratic approximation (see el_ratio).  Coordinates at
    exactly zero contribute nothing, so frozen coordinates (infinite weight,
    zero coefficient) are well defined.

    carry is an optional CarriedMultiplier that calls at nearby betas
    share: the exact solve starts from its multiplier and Hessian and
    writes its own back; a fallback leaves them unchanged.  Either way the
    call records its ratio method and multiplier iterations in it.
    """
    beta = np.asarray(beta, dtype=float)
    carry = CarriedMultiplier() if carry is None else carry
    try:
        state = solve_lambda_exact(ds, cfg, beta, lam0=carry.lam,
                                   hessian0=carry.hessian)
    except (HullViolationError, NoConvergenceError, SingularMatrixError):
        ratio, carry.method = el_ratio(ds, cfg, beta)
        carry.iterations = 0
    else:
        ratio = state.ratio
        carry.lam, carry.hessian = state.lam, state.hessian
        carry.method, carry.iterations = "exact", state.iterations
    if pen.eta == 0.0:
        return ratio
    w = adaptive_weights(pen.pilot, pen.gamma, cfg.eps_zero)
    nonzero = beta != 0.0
    penalty = ds.n * pen.eta * float(np.sum(w[nonzero] * np.abs(beta[nonzero])))
    return ratio + penalty


def bic(ds, cfg, pen, fit, carry=None):
    """Schwarz-type criterion: penalized ratio + log(n) * |active set|.

    carry is passed to penalized_ratio as its CarriedMultiplier (a fresh one
    when omitted); the record takes its ratio method and iterations."""
    carry = CarriedMultiplier() if carry is None else carry
    value = penalized_ratio(ds, cfg, pen, fit.beta, carry=carry) \
        + np.log(ds.n) * len(fit.active_set)
    return BicRecord(eta=pen.eta, bic=float(value),
                     active_set=np.asarray(fit.active_set, dtype=int),
                     beta=np.asarray(fit.beta, dtype=float),
                     ratio_method=carry.method,
                     multiplier_iterations=carry.iterations)


def bic_sweep(ds, cfg, gamma, eta_grid, pilot_mode="same", failures=None):
    """Fit the penalized estimator on each eta and rank by BIC.

    One pilot is shared across the grid, and so is one starting point: the
    expectile fit of the dataset, computed once and passed as beta0 to the
    "same"-mode pilot and to the fit of every cell.  Neighbouring cells have
    nearly the same fit, so the exact multiplier of each cell's ratio starts
    from the last one solved along the grid, with that solve's last Hessian
    for its first Newton step (the first cell starts from zero); the start
    changes the multiplier only within the solver's tolerance.  Ties
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
    carry = CarriedMultiplier()
    records = []
    failed = [] if failures is None else failures
    for eta in etas:
        pen = PenaltyConfig(eta=float(eta), gamma=gamma, pilot=pilot)
        try:
            fit = fit_l2(ds, cfg, pen, start)
            records.append(bic(ds, cfg, pen, fit, carry=carry))
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
    y = np.asarray(y, dtype=float).ravel()
    if y.size == 0:
        raise ValueError("empty sample")
    if not np.isfinite(y).all():
        raise ValueError("responses must be finite")
    med = np.median(y)
    mad = np.mean(np.abs(y - med))
    if mad == 0.0:
        raise DegenerateSampleError("all responses equal; tau undefined")
    yt = (y - med) / mad
    neg = float(np.sum(np.compress(yt < 0.0, yt)))
    pos = float(np.sum(np.compress(yt > 0.0, yt)))
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
    r = np.asarray(residuals, dtype=float).ravel()
    if not np.isfinite(r).all():
        raise ValueError("residuals must be finite")
    s_pos = float(np.sum(np.compress(r > 0.0, r)))
    s_neg = float(-np.sum(np.compress(r < 0.0, r)))
    if s_pos == 0.0 or s_neg == 0.0:
        raise OneSidedSampleError("residuals must take both signs")
    return s_neg / (s_pos + s_neg)
