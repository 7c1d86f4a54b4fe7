"""Iterative fitting algorithms for the smoothed expectile MEL estimator and
its adaptive-LASSO variant, plus the pilot expectile fit.

All four algorithms share one Newton-type engine.  With M(beta, lam) the
mean of (d g_i / d beta)(lam'g_i - 1) and D the diagonal penalty matrix
diag(eta * w_j / |beta_j|), the update solves

    beta  <-  beta + (M + D)^{-1} (gbar - D beta)

restricted to the active coordinates, so that at tau = 1/2 the penalized
fixpoint is the soft-thresholded ridge solution.  The unpenalized algorithms
use D = 0; the "1" variants refresh lam from the closed form S^{-1} gbar once
per outer iteration while the "2" variants keep lam = 0.  Penalized runs
freeze any coordinate whose magnitude falls below eps_zero at zero for all
later steps and stop once every coordinate is frozen; convergence is not
declared while a coordinate below the stopping resolution is still
collapsing toward the freeze threshold.  A fit returns beta, its iteration
count and the norm of each iteration's step; non-convergence raises.

Every row pass runs on the observed rows (Dataset.Xo, yo) and divides by
the full sample size n; rows with a missing response add nothing to gbar,
S or M.  Each iteration reads gbar, and in the "1" variants the closed-form
multiplier, from a model.Evaluation; the one at the start comes through the
dataset's memo, so fits that share a start form them once.  Since
d g_i / d beta = c_i x_i x_i', M is the weighted Gram matrix
Xo' diag(c * t) Xo / n with t_i = lam'g_i - 1.  Every fit on a dataset forms
it through the one model.WeightedGram the dataset owns (Dataset.gram), which
corrects its reference product on the rows whose weight changed: at lam = 0
(t = -1, so M = -J with J the mean Jacobian) a few rows near the kernel
band, when lam is refreshed every row.  Once a penalized fit has frozen a
coordinate it asks only for the active block of M; until then, as in every
unpenalized fit, for the whole matrix.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InsufficientCompleteCasesError,
    NoConvergenceError,
    RankDeficientError,
    SingularMatrixError,
)
from .model import WeightedGram, evaluate
from .numkit import solve_linear, solve_spd

_DIVERGENCE_FACTOR = 1e6
_EXPECTILE_TOL = 1e-8  # step norm at which the expectile fit stops
_EXPECTILE_MAX_ITER = 500
_RANK_CERTIFICATE = 4.0  # Gram eigenvalue ratio bound, in units of m p eps


@dataclass
class FitResult:
    """Outcome of one converged fitting run (non-convergence raises): the
    coefficients, the number of Newton iterations and the norm of each
    iteration's step, one trace entry per iteration."""

    beta: np.ndarray
    iterations: int
    trace: list = field(default_factory=list)

    @property
    def active_set(self):
        """Indices of the nonzero coefficients."""
        return np.flatnonzero(self.beta)


def expectile_fit(ds, tau):
    """Expectile regression on the complete cases, by reweighted least squares.

    The weights are tau for nonnegative residuals and 1 - tau otherwise; at
    tau = 1/2 the first solve is already the least-squares solution.  The
    fit stops when a step falls below _EXPECTILE_TOL or when the weights
    repeat those of the step before: their system is the one just solved
    (the shared WeightedGram returns it bit for bit), so a further solve
    would give the same beta and a zero step.

    Raises
    ------
    InsufficientCompleteCasesError
        Fewer complete rows than parameters.
    RankDeficientError
        Complete-case design without full column rank.
    NoConvergenceError
        If neither happens within _EXPECTILE_MAX_ITER iterations.
    """
    Xc, yc = ds.complete_cases()
    if Xc.shape[0] < ds.p:
        raise InsufficientCompleteCasesError(
            f"{Xc.shape[0]} complete rows but {ds.p} parameters"
        )
    K = Xc.T @ Xc
    if not _full_rank(Xc, K):
        raise RankDeficientError("complete-case design is rank deficient")
    try:
        beta = solve_spd(K, Xc.T @ yc)
    except SingularMatrixError:
        raise RankDeficientError("complete-case design is rank deficient") from None
    gram = WeightedGram(Xc)
    w_prev = None
    for _ in range(_EXPECTILE_MAX_ITER):
        r = yc - Xc @ beta
        w = np.where(r >= 0.0, tau, 1.0 - tau)
        if w_prev is not None and (w == w_prev).all():
            return beta
        w_prev = w
        try:
            beta_new = solve_spd(gram(w), Xc.T @ (w * yc))
        except SingularMatrixError:
            raise RankDeficientError("weighted design is rank deficient") from None
        d = beta_new - beta
        step = np.sqrt(d.dot(d))
        beta = beta_new
        if step < _EXPECTILE_TOL:
            return beta
    raise NoConvergenceError(
        f"expectile fit not converged to {_EXPECTILE_TOL:g} in "
        f"{_EXPECTILE_MAX_ITER} iterations")


def _full_rank(Xc, K):
    """Whether the m x p design Xc (m >= p) has full column rank as
    np.linalg.matrix_rank decides it, given its Gram matrix K = Xc'Xc.

    matrix_rank computes the singular values s of Xc (a full SVD) and counts
    those above m eps s_max.  The eigenvalues e of K are s^2 and cost a
    p x p eigen-solve, but rounding blurs the small ones, so they are used
    only to prove full rank, when e_min > _RANK_CERTIFICATE m p eps e_max;
    otherwise matrix_rank decides, and the answer is always its answer.

    Why the bound is safe: forming K adds an error E with
    |E| <= gamma_m |Xc|'|Xc| entrywise for any summation order
    (gamma_m = m eps / (1 - m eps)), so ||E|| <= gamma_m p s_max^2; eigvalsh
    is backward stable and adds at most c p eps ||K|| per eigenvalue, with
    c a small constant (c <= m is all that is needed).  Together they move
    each e by at most about 2 m p eps s_max^2, so the certificate leaves
    s_min^2 > (4 - 2 - rounding) m p eps s_max^2 > m p eps s_max^2, that is
    s_min > sqrt(m p eps) s_max.  That is a factor sqrt(p / (m eps)) above
    matrix_rank's m eps s_max threshold, more than 10^5 for any m below
    10^5 p (the SVD's own rounding, a few m eps s_max, is far inside it),
    so matrix_rank would also report full rank.
    """
    m, p = Xc.shape
    e = np.linalg.eigvalsh(K)
    if e[0] > _RANK_CERTIFICATE * m * p * np.finfo(float).eps * e[-1]:
        return True
    return np.linalg.matrix_rank(Xc) == p


def adaptive_weights(pilot, gamma, eps_zero=1e-4):
    """Componentwise |pilot_j|**(-gamma); entries below eps_zero become inf,
    meaning the coordinate is frozen at zero.  A weight that overflows to
    inf (a small pilot under a large gamma) freezes its coordinate the same
    way, and raises no floating-point warning."""
    pilot = np.abs(np.asarray(pilot, dtype=float))
    out = np.full(pilot.shape, np.inf)
    live = pilot >= eps_zero
    with np.errstate(over="ignore"):
        out[live] = pilot[live] ** -gamma
    return out


def pilot_estimate(ds, cfg, mode="same", beta0=None):
    """Pilot coefficients for the adaptive weights, from an unpenalized fit.

    mode "same" fits on the full dataset; "split" fits on the first half of
    the rows only, approximating the independent pilot sample.  beta0 is a
    starting point for the full dataset (typically its expectile fit, shared
    with the penalized fits that follow); it is used only in "same" mode,
    and the fit starts from the expectile fit of its own rows when omitted.
    """
    if mode == "same":
        return fit_a2(ds, cfg, beta0).beta
    if mode == "split":
        half = max(ds.n // 2, ds.p + 1)
        return fit_a2(ds.head(half), cfg).beta
    raise ValueError("pilot mode must be 'same' or 'split'")


def _fit_engine(ds, cfg, beta0, refresh_lambda, pen=None):
    if ds.n_complete < ds.p:
        raise InsufficientCompleteCasesError(
            f"{ds.n_complete} complete rows but {ds.p} parameters"
        )
    n, p = ds.n, ds.p
    beta = np.array(expectile_fit(ds, cfg.tau) if beta0 is None else beta0,
                    dtype=float).ravel()
    if beta.shape != (p,):
        raise ValueError("starting point has wrong dimension")

    penalized = pen is not None and pen.eta > 0.0
    active = np.ones(p, dtype=bool)
    if penalized:
        weights = adaptive_weights(pen.pilot, pen.gamma, cfg.eps_zero)
        # a start at exactly zero would give the penalty eta w_j / 0 = inf;
        # such coordinates begin frozen, as the steps below freeze them
        active = np.isfinite(weights) & (beta != 0.0)
        beta[~active] = 0.0

    # math.hypot scales as it sums, so no norm here overflows on the way
    guard = _DIVERGENCE_FACTOR * (1.0 + math.hypot(*beta))
    Xo = ds.Xo
    trace = []
    while active.any():
        if len(trace) == cfg.max_iter:
            raise NoConvergenceError(f"no convergence in {cfg.max_iter} iterations")
        # only the start, which other fits may share, goes through the memo
        ev = evaluate(ds, cfg, beta, memo=not trace)
        gbar = ev.gbar
        t = ev.a * (Xo @ ev.lam) - 1.0 if refresh_lambda else -1.0
        idx = active.nonzero()[0]
        # once a coordinate is frozen, only the active block of M is formed
        v = ev.c * t
        M_act = (ds.gram(v) if idx.size == p else ds.gram(v, idx)) / n
        rhs = gbar[idx]
        if penalized:
            # penalty gradient enters the score equation with the sign that
            # makes the tau = 1/2 fixpoint the soft-thresholded ridge solve
            d = pen.eta * weights[idx] / np.abs(beta[idx])
            M_act += np.diag(d)
            rhs -= d * beta[idx]

        beta_new = beta.copy()
        beta_new[idx] = beta[idx] + solve_linear(M_act, rhs)
        collapsing = False
        if penalized:
            freeze = active & (np.abs(beta_new) < cfg.eps_zero)
            beta_new[freeze] = 0.0
            active &= ~freeze
            # a coordinate below the stopping resolution that is still falling
            # geometrically is on its way to the freeze threshold; convergence
            # waits until it freezes or stabilizes
            live = active & (np.abs(beta) > 0.0)
            collapsing = bool((
                (np.abs(beta_new[live]) < cfg.nu)
                & (np.abs(beta_new[live]) < 0.5 * np.abs(beta[live]))
            ).any())

        # np.linalg.norm's own form for a real vector, without its wrapper
        d = beta_new - beta
        step = np.sqrt(d.dot(d))
        trace.append(step)
        beta = beta_new
        if math.hypot(*beta) > guard or not np.isfinite(beta).all():
            raise NoConvergenceError("iterates diverged")
        if step < cfg.nu and not collapsing:
            break
    return FitResult(beta, len(trace), trace)


def fit_a1(ds, cfg, beta0=None):
    """Smoothed expectile MEL fit with the multiplier refreshed each step."""
    return _fit_engine(ds, cfg, beta0, refresh_lambda=True)


def fit_a2(ds, cfg, beta0=None):
    """Newton-Raphson smoothed expectile MEL fit (multiplier held at zero)."""
    return _fit_engine(ds, cfg, beta0, refresh_lambda=False)


def fit_l1(ds, cfg, pen, beta0=None):
    """Adaptive-LASSO penalized fit, multiplier refreshed each step."""
    return _fit_engine(ds, cfg, beta0, refresh_lambda=True, pen=pen)


def fit_l2(ds, cfg, pen, beta0=None):
    """Adaptive-LASSO penalized fit with the multiplier held at zero."""
    return _fit_engine(ds, cfg, beta0, refresh_lambda=False, pen=pen)
