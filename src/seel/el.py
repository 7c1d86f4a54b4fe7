"""Empirical likelihood core: multiplier solver and the exact and
approximate log-likelihood ratios.

The exact multiplier maximizes the concave dual sum(log(1 + lambda'g_i))
over the region where every factor stays positive; the approximate one is
the closed form S^{-1} gbar that the iterative algorithms use.

A row with a missing response has g_i = 0: it adds log(1) = 0 to the dual
and nothing to its gradient or Hessian.  The solver and the ratio therefore
run on the observed rows, while every mean, the probability floor 1/n and
the implied probabilities keep the full sample size n.

The matrix G of the g_i is never formed.  g_i = a_i x_i, so model.g_matrix
returns its factors (Xo, a), the observed design and the per-row scalars,
and every product over G is one over Xo: G lambda = a (Xo lambda), the
gradient mean(g_i / w_i) is Xo'(a / w) / n, and the Hessian
mean(g_i g_i' / w_i^2) is that of the rows of Xo scaled by a / w.

The solver is Newton's method on the dual (Owen, Empirical Likelihood,
2001, section 3.14).  Its Hessian is the one O(n p^2) cost of a step; it
changes on every row with lambda, so no rows of it can be reused.  A step
forms the factors 1 + lambda'g_i at full length as one product over Xo; a
trial that the 1/n floor halves reads G step off them,
w + size (w_full - w), so halving costs no further product.  The solves
along nearby betas (the cells of a BIC sweep) can each start from the
ELState of the one before, and from a multiplier predicted along the path
of those solves: the start moves from the carried multiplier toward the
prediction as a Newton step would, halved until every factor clears the
floor, and the carried Hessian serves its first step (see
solve_lambda_exact).  Any start ends at a root within the same gradient
tolerance.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    EstimationError,
    HullViolationError,
    LogDomainError,
    NoConvergenceError,
)
from .model import evaluate, g_matrix, moments
from .numkit import solve_spd

_LAMBDA_TOL = 1e-8
_LAMBDA_MIN_ITER = 200  # least Newton budget of an attempt, see solve_lambda_exact
_PROB_SUM_TOL = 1e-6
_HESSIAN_BLOCK_ROWS = 4096  # rows per block of the multiplier Hessian


@dataclass
class ELState:
    """Solution of the inner empirical-likelihood problem at a fixed beta
    (a solve that fails raises instead).  hessian is the last Hessian the
    solve formed, or the warm one it was given when it formed none (None
    when a cold solve took no step)."""

    lam: np.ndarray
    ratio: float
    iterations: int
    hessian: np.ndarray | None


def lambda_approx(ds, cfg, beta):
    """Closed-form multiplier S^{-1} gbar (the iterative algorithms' lambda),
    read-only; the one solve is kept in the evaluation at (ds, cfg, beta)."""
    return evaluate(ds, cfg, beta).lam


def el_ratio_exact(ds, cfg, beta, lam):
    """Log-likelihood ratio 2 sum(log(1 + lambda'g_i)) over all n rows.

    Rows with missing responses have g_i = 0 and contribute log(1) = 0, so
    the sum runs over the observed rows.
    Raises LogDomainError when any factor is nonpositive.
    """
    Xo, a = g_matrix(ds, cfg, beta)
    w = 1.0 + a * (Xo @ np.asarray(lam, dtype=float))
    if np.any(w <= 0.0):
        raise LogDomainError("1 + lambda'g_i must stay positive on every row")
    return float(2.0 * np.log(w).sum())


def el_ratio_approx(ds, cfg, beta):
    """Quadratic approximation n * gbar' S^{-1} gbar of the ratio, with the
    closed-form multiplier S^{-1} gbar of lambda_approx."""
    gbar, _ = moments(ds, cfg, beta)
    val = ds.n * float(gbar @ evaluate(ds, cfg, beta).lam)
    return max(val, 0.0)


def solve_lambda_exact(ds, cfg, beta, warm=None, predicted=None):
    """Solve the multiplier equation mean(g_i / (1 + lambda'g_i)) = 0.

    Damped Newton steps on the dual, halved until every factor satisfies
    1 + lambda'g_i > 1/n on the observed rows.  The implied probabilities
    p_i = 1 / (n (1 + lambda'g_i)), 1/n on a row with a missing response,
    total one over the full sample exactly at an interior solution, which is
    how an exterior (hull-violating) pseudo-solution is recognised.

    warm is an optional ELState of a solve at a nearby beta.  Its
    multiplier is the start only when it is nonzero and every factor
    1 + warm.lam'g_i exceeds 1/n; otherwise the solve starts from zero.
    predicted, used only with such a warm start, is a multiplier predicted
    for this beta (a sweep extrapolates it along its path, see
    inference.bic_sweep).  The start then moves from warm.lam toward it by
    the rule of a Newton step: the largest of size = 1, 1/2, ... (60
    trials) that keeps every factor of warm.lam + size (predicted -
    warm.lam) above 1/n, or warm.lam itself when none does, so an
    infeasible prediction never forces a start from zero.  From the warm
    start, the first Newton step uses warm.hessian (a fresh Hessian when
    that is None); every later step, and every step of a start from zero,
    forms its own.  A cold solve is therefore the same computation whatever
    warm and predicted hold.  Each attempt raises where it fails, and any
    EstimationError of the warm attempt is retried once from zero, so a
    warm start raises only where a cold one does; `iterations` then counts
    both attempts.  Each attempt takes at most
    max(cfg.max_iter, _LAMBDA_MIN_ITER) steps to bring the gradient norm
    to _LAMBDA_TOL.

    Raises
    ------
    HullViolationError
        If no multiplier keeps all factors positive (0 outside the hull).
    NoConvergenceError
        If the residual does not reach _LAMBDA_TOL within the budget.
    SingularMatrixError
        If a Newton system cannot be solved.
    """
    max_iter = max(cfg.max_iter, _LAMBDA_MIN_ITER)
    Xo, a = g_matrix(ds, cfg, beta)
    n = ds.n
    m, p = Xo.shape
    floor = 1.0 / n
    # rows of Xo scaled by a/w, one block at a time, for the Hessian
    block = np.empty((max(1, min(m, _HESSIAN_BLOCK_ROWS)), p))
    iterations = 0

    def attempt(lam, w, H):
        # Newton iteration from lam, with w = 1 + G lam; H, when not None,
        # serves the first step and every other step forms its own
        nonlocal iterations
        for it in range(max_iter):
            iterations += 1
            s = a / w
            grad = s @ Xo / n
            if np.linalg.norm(grad) <= _LAMBDA_TOL:
                break
            if it or H is None:
                H = _scaled_gram(Xo, s, block) / n
            step = solve_spd(H, grad)
            trial = _feasible_step(Xo, a, lam, w, step, floor)
            if trial is None:
                raise HullViolationError(
                    "no multiplier step keeps all probabilities positive")
            lam, w = trial
            if not np.all(np.isfinite(lam)):
                raise NoConvergenceError(
                    "multiplier iteration produced non-finite values")
        else:
            raise NoConvergenceError(f"multiplier equation not solved to "
                                     f"{_LAMBDA_TOL:g} in {max_iter} iterations")
        # each row with a missing response holds probability 1/n
        total = (n - m) / n + (1.0 / (n * w)).sum()
        if abs(total - 1.0) > _PROB_SUM_TOL:
            # residual vanished only because lambda ran off to infinity
            raise HullViolationError("zero lies outside the convex hull of the g_i")
        return ELState(lam=lam, ratio=float(2.0 * np.log(w).sum()),
                       iterations=iterations, hessian=H)

    if warm is not None and np.any(warm.lam):
        lam, w = warm.lam, 1.0 + a * (Xo @ warm.lam)
        if np.all(w > floor):
            if predicted is not None:
                # a prediction that overflows the factors fails every trial
                # (0 inside the hull leaves some factor at -inf or NaN)
                with np.errstate(over="ignore", invalid="ignore"):
                    trial = _feasible_step(Xo, a, lam, w, predicted - lam,
                                           floor)
                if trial is not None:
                    lam, w = trial
            try:
                return attempt(lam, w, warm.hessian)
            except EstimationError:
                pass
    return attempt(np.zeros(p), np.ones(m), None)


def _feasible_step(Xo, a, lam, w, step, floor):
    """(lam + size step, its factors) for the largest size = 1, 1/2, ...
    (60 trials) that keeps every factor 1 + (lam + size step)'g_i above
    floor, or None when no trial does; w holds the factors of lam.  A
    halved trial reads G step off the full step's factors,
    w + size (w_full - w), so halving costs no further product."""
    w_full = 1.0 + a * (Xo @ (lam + step))
    size = 1.0
    for _ in range(60):
        w_cand = w_full if size == 1.0 else w + size * (w_full - w)
        if np.all(w_cand > floor):
            return lam + size * step, w_cand
        size *= 0.5
    return None


def _scaled_gram(Xo, s, block):
    """(Xo s)'(Xo s), the Gram matrix of the rows of Xo each scaled by its
    entry of s, summed over row blocks scaled in place in block."""
    H = np.zeros((Xo.shape[1], Xo.shape[1]))
    for start in range(0, Xo.shape[0], block.shape[0]):
        stop = min(start + block.shape[0], Xo.shape[0])
        B = block[:stop - start]
        np.einsum("ij,i->ij", Xo[start:stop], s[start:stop], out=B)
        H += B.T @ B
    return H
