"""Wilks-type chi-square tests, the penalized ratio and its BIC sweep, and
the two data-driven rules for choosing the expectile level tau."""

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

_PATH_POINTS = 3  # exact cells through which bic_sweep predicts a multiplier


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


def check_alpha(alpha):
    """Reject a test level outside (0, 1), NaN included."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")


def wilks_test(ds, cfg, beta_hypothesis, alpha=0.05, support=None):
    """Chi-square test of H0: beta = beta_hypothesis.

    The statistic is the quadratic approximation of the log-likelihood
    ratio, compared against the (1 - alpha) quantile of chi-square(df).
    When `support` is given, the ratio is evaluated on the submodel spanned
    by those covariate columns (coordinates outside it are fixed at zero)
    and df is their number; otherwise df is p.
    """
    check_alpha(alpha)
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


def penalized_ratio(ds, cfg, pen, beta, warm=None, predicted=None):
    """Ratio plus the adaptive-LASSO penalty n eta sum(w_j |beta_j|).

    The ratio part prefers the exact multiplier; when the multiplier
    equation is not solvable it falls back to the closed-form multiplier and
    finally to the quadratic approximation (see el_ratio).  Coordinates at
    exactly zero contribute nothing, so frozen coordinates (infinite weight,
    zero coefficient) are well defined.

    warm is an optional ELState of an exact solve at a nearby beta, the
    start of this one, and predicted an optional multiplier predicted for
    beta, which the start moves toward (see solve_lambda_exact).  Returns
    (value, method, state): method is "exact", "closed_form" or
    "quadratic", and state is the ELState of the exact solve, None after a
    fallback.
    """
    beta = np.asarray(beta, dtype=float)
    try:
        state = solve_lambda_exact(ds, cfg, beta, warm=warm,
                                   predicted=predicted)
    except (HullViolationError, NoConvergenceError, SingularMatrixError):
        state = None
        ratio, method = el_ratio(ds, cfg, beta)
    else:
        ratio, method = state.ratio, "exact"
    if pen.eta != 0.0:
        w = adaptive_weights(pen.pilot, pen.gamma, cfg.eps_zero)
        nonzero = beta != 0.0
        ratio = ratio + ds.n * pen.eta * float(
            np.sum(w[nonzero] * np.abs(beta[nonzero])))
    return ratio, method, state


def bic_sweep(ds, cfg, gamma, eta_grid, pilot_mode="same", failures=None):
    """Fit the penalized estimator on each eta and rank by BIC.

    One pilot is shared across the grid, and so is one starting point: the
    expectile fit of the dataset, computed once and passed as beta0 to the
    "same"-mode pilot and to the fit of every cell.  A cell's criterion is
    its penalized ratio plus log(n) times the size of its active set.
    Neighbouring cells have nearly the same fit, so the exact multiplier
    solve of each cell's ratio is warm-started from the ELState of the last
    exact solve along the grid (the first cell starts from zero), and from
    a predicted multiplier: the Lagrange polynomial in eta through the
    multipliers of the last (up to) three exact cells of distinct eta,
    evaluated at the cell's eta (at an eta already on that path, the
    multiplier of its cell; with one exact cell before it there is no
    prediction).  Cells that fall back or fail add nothing to that path.
    The start changes the multiplier only within the solver's tolerance.
    Ties in the criterion break toward the larger eta (the sparser model),
    and ties in both toward the first record.  Grid cells whose fit raises an
    EstimationError are reported through a warning, appended as (eta,
    exception) to the `failures` list when one is given, and excluded; any
    other exception propagates.  A grid or gamma that PenaltyConfig rejects
    raises ValueError before any fit.

    Returns
    -------
    (best, records) : the argmin BicRecord and the list of all successful
    records in grid order.
    """
    etas = list(eta_grid)
    if not etas:
        raise ValueError("eta grid must be nonempty")
    for eta in etas:  # every cell's settings are checked before any fit
        PenaltyConfig(eta=float(eta), gamma=gamma)
    start = expectile_fit(ds, cfg.tau)
    pilot = pilot_estimate(ds, cfg, mode=pilot_mode, beta0=start)
    warm, path = None, []  # path: (eta, lam) of the last exact cells
    records = []
    failed = [] if failures is None else failures
    for eta in etas:
        pen = PenaltyConfig(eta=float(eta), gamma=gamma, pilot=pilot)
        try:
            fit = fit_l2(ds, cfg, pen, start)
            value, method, state = penalized_ratio(
                ds, cfg, pen, fit.beta, warm=warm,
                predicted=_extrapolate(path, pen.eta))
        except EstimationError as exc:
            failed.append((eta, exc))
            warnings.warn(f"BIC sweep cell eta={eta:g} failed: {exc}")
            continue
        if state is not None:
            warm = state
            path = [pt for pt in path if pt[0] != pen.eta][1 - _PATH_POINTS:]
            path.append((pen.eta, state.lam))
        records.append(BicRecord(
            eta=pen.eta, bic=float(value + np.log(ds.n) * len(fit.active_set)),
            active_set=np.asarray(fit.active_set, dtype=int),
            beta=np.asarray(fit.beta, dtype=float), ratio_method=method,
            multiplier_iterations=0 if state is None else state.iterations))
    if not records:
        raise failed[-1][1]
    return min(records, key=lambda r: (r.bic, -r.eta)), records


def _extrapolate(path, eta):
    """The Lagrange polynomial through the (eta_k, lam_k) of path, whose
    eta_k are distinct, evaluated at eta; None for fewer than two points.
    At eta = eta_k the weights are exactly 1 and 0, so it returns lam_k."""
    if len(path) < 2:
        return None
    lam = 0.0
    # a weight that overflows gives a non-finite prediction, which the
    # solver drops
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (eta_k, lam_k) in enumerate(path):
            weight = 1.0
            for j, (eta_j, _) in enumerate(path):
                if j != k:
                    weight *= (eta - eta_j) / (eta_k - eta_j)
            lam = lam + weight * lam_k
    return lam


def empirical_tau(y):
    """Expectile level estimated from the observed responses: the
    zero-expectile level (zero_expectile_tau) of the responses centered at
    their median and scaled by the mean absolute deviation about it.
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.size == 0:
        raise ValueError("empty sample")
    if not np.isfinite(y).all():
        raise ValueError("responses must be finite")
    # scaling by 2^-k changes no bit of the rule while no value turns
    # subnormal; k > 0 only where the sum of |y - median| could overflow
    k = int(np.frexp(np.max(np.abs(y)))[1]) + y.size.bit_length() + 1 - 1023
    y = np.ldexp(y, -k) if k > 0 else y
    med = np.median(y)
    mad = np.mean(np.abs(y - med))
    if mad == 0.0:
        raise DegenerateSampleError("all responses equal; tau undefined")
    return zero_expectile_tau((y - med) / mad)


def zero_expectile_tau(residuals):
    """The tau whose sample expectile equation the residuals satisfy at zero.

    Closed form S- / (S+ + S-) with S+ the positive mass and S- the negative
    mass; plugging it back makes mean(r * (tau 1{r>0} + (1-tau) 1{r<0}))
    vanish identically.  OneSidedSampleError is raised when that ratio is
    not inside (0, 1): one mass is zero, or lost to rounding beside the other.
    """
    r = np.asarray(residuals, dtype=float).ravel()
    if not np.isfinite(r).all():
        raise ValueError("residuals must be finite")
    return _tau_of_masses(float(np.sum(np.compress(r > 0.0, r))),
                          float(-np.sum(np.compress(r < 0.0, r))))


def _tau_of_masses(s_pos, s_neg):
    """S- / (S+ + S-), or OneSidedSampleError when it is not inside (0, 1)."""
    tau = s_neg / (s_pos + s_neg) if s_pos + s_neg > 0.0 else 0.0
    if not 0.0 < tau < 1.0:
        raise OneSidedSampleError(
            "sample must take both signs, neither negligible beside the other")
    return tau
