import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import expectile_fit_confirming, expectile_loss, mean_jacobian
from seel import estimators
from seel.errors import (
    InsufficientCompleteCasesError,
    NoConvergenceError,
    RankDeficientError,
    SingularMatrixError,
)
from seel.estimators import (
    adaptive_weights,
    expectile_fit,
    fit_a1,
    fit_a2,
    fit_l1,
    fit_l2,
    pilot_estimate,
)
from seel.model import (Dataset, ModelConfig, PenaltyConfig, WeightedGram,
                        moments)
from seel.numkit import RngStream
from seel.simulate import gen_design


def simulated(n=300, p=4, seed=13, beta0=None, sigma=1.0, missing=0.0):
    rng = RngStream(seed, 0)
    X = rng.normals(n * p).reshape(n, p)
    if beta0 is None:
        beta0 = np.linspace(1.0, -1.0, p)
    eps = sigma * rng.normals(n)
    y = X @ beta0 + eps
    delta = np.ones(n, dtype=np.uint8)
    if missing > 0:
        delta = (rng.uniforms(n) > missing).astype(np.uint8)
        y = np.where(delta == 1, y, np.nan)
    return Dataset(X, y, delta), np.asarray(beta0, dtype=float)


# ---------------------------------------------------------------------------
# expectile pilot fit

def test_expectile_half_equals_least_squares():
    ds, _ = simulated()
    beta = expectile_fit(ds, 0.5)
    Xc, yc = ds.complete_cases()
    ls = np.linalg.solve(Xc.T @ Xc, Xc.T @ yc)
    assert np.linalg.norm(beta - ls) < 1e-8


class _RecordingGram(WeightedGram):
    """WeightedGram that records, per call, whether it rebuilt."""

    def __init__(self, X):
        super().__init__(X)
        self.rebuilt = []

    def __call__(self, v, cols=None):
        self.rebuilt.append(False)
        return super().__call__(v, cols)

    def _rebuild(self, v):
        self.rebuilt[-1] = True
        return super()._rebuild(v)


def _early_stop_case(ds, tau):
    """The fit's beta and its Gram calls, and the reference's beta and
    solves; the reference reuses no state of the fit."""
    grams = []

    def recording(X):
        grams.append(_RecordingGram(X))
        return grams[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(estimators, "WeightedGram", recording)
        beta = expectile_fit(ds, tau)
    ref, solves = expectile_fit_confirming(ds, tau)
    return beta, grams[0].rebuilt, ref, solves


def test_expectile_fit_stops_at_repeated_weights_after_a_rebuild():
    # residuals -5, -5, 5, 5 from the mean keep their signs at the
    # 0.3-expectile 3: the second weights repeat those that the first
    # (rebuilding) Gram call took
    ds = Dataset(np.ones((4, 1)), [0.0, 0.0, 10.0, 10.0], np.ones(4))
    beta, rebuilt, ref, solves = _early_stop_case(ds, 0.3)
    assert beta.tobytes() == ref.tobytes() and beta.tolist() == [3.0]
    assert rebuilt == [True] and solves == 2


def test_expectile_fit_stops_at_repeated_weights_after_a_correction():
    ds, _ = simulated(n=400, p=4, seed=3, missing=0.2)
    beta, rebuilt, ref, solves = _early_stop_case(ds, 0.2)
    assert beta.tobytes() == ref.tobytes()
    assert len(rebuilt) == solves - 1 >= 2 and not rebuilt[-1]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 60), p=st.integers(1, 4),
       tau=st.floats(0.05, 0.95), seed=st.integers(0, 2 ** 16),
       missing=st.sampled_from([0.0, 0.3]))
def test_expectile_early_stop_matches_the_confirming_solve(n, p, tau, seed,
                                                         missing):
    ds, _ = simulated(n=n + p, p=p, seed=seed, missing=missing)
    assume(ds.n_complete >= p)
    beta, rebuilt, ref, solves = _early_stop_case(ds, tau)
    assert beta.tobytes() == ref.tobytes()
    # the confirming solve is skipped exactly when the weights repeated
    assert len(rebuilt) in (solves, solves - 1)


def test_expectile_fit_minimizes_the_expectile_loss():
    ds, _ = simulated(missing=0.2)
    Xc, yc = ds.complete_cases()
    for tau in (0.2, 0.7):
        beta = expectile_fit(ds, tau)
        best = expectile_loss(tau, yc - Xc @ beta).sum()
        for k in range(ds.p):
            for step in (1e-4, -1e-4):
                moved = beta.copy()
                moved[k] += step
                assert expectile_loss(tau, yc - Xc @ moved).sum() > best


def test_expectile_noiseless_recovery():
    ds, beta0 = simulated(sigma=0.0)
    for tau in (0.2, 0.5, 0.8):
        assert np.allclose(expectile_fit(ds, tau), beta0, atol=1e-10)


def test_expectile_intercept_only():
    # scalar expectile root: 0.75 (3 - b) = 0.25 (b - 1) -> b = 2.5
    ds = Dataset(np.ones((2, 1)), np.array([1.0, 3.0]), np.ones(2))
    assert expectile_fit(ds, 0.75)[0] == pytest.approx(2.5, abs=1e-10)


def test_expectile_errors():
    ds = Dataset(np.ones((1, 2)), np.array([1.0]), np.ones(1))
    with pytest.raises(InsufficientCompleteCasesError):
        expectile_fit(ds, 0.5)
    X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # rank 1
    ds = Dataset(X, np.array([1.0, 2.0, 3.0]), np.ones(3))
    with pytest.raises(RankDeficientError):
        expectile_fit(ds, 0.5)


@settings(deadline=None, max_examples=200)
@given(m=st.integers(8, 80), p=st.integers(2, 6), col=st.integers(0, 5),
       k=st.integers(0, 15),
       log_scales=st.lists(st.floats(-6.0, 6.0), min_size=6, max_size=6),
       seed=st.integers(0, 2 ** 16))
def test_expectile_rank_error_matches_matrix_rank(m, p, col, k, log_scales,
                                                  seed):
    # column j is a combination of the others plus noise of relative size
    # 10^-k, and every column is rescaled by up to 1e+-6; the Gram
    # eigenvalue certificate may only skip the SVD where it agrees with it
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((m, p))
    j = col % p
    coef = gen.standard_normal(p)
    coef[j] = 0.0
    combo = X @ coef
    X[:, j] = combo + 10.0 ** -k * np.linalg.norm(combo) / np.sqrt(m) \
        * gen.standard_normal(m)
    X *= 10.0 ** np.array(log_scales[:p])
    ds = Dataset(X, gen.standard_normal(m), np.ones(m))
    deficient = np.linalg.matrix_rank(ds.Xo) < p
    try:
        expectile_fit(ds, 0.5)
    except RankDeficientError:
        raised = True
    else:
        raised = False
    assert raised == deficient


def count_matrix_rank(monkeypatch):
    calls = []
    real = np.linalg.matrix_rank

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "matrix_rank", counting)
    return calls


def test_rank_certificate_skips_the_svd_only_when_it_proves_full_rank(
        monkeypatch):
    rng = RngStream(3, 0)
    n, p = 2000, 10
    X = gen_design("d2", n, p, rng)
    y = X @ np.linspace(1.0, -1.0, p) + rng.normals(n)
    calls = count_matrix_rank(monkeypatch)
    expectile_fit(Dataset(X, y, np.ones(n)), 0.3)
    assert calls == []
    # column 3 is nearly a combination of columns 1 and 2: full rank for
    # matrix_rank, but no certificate from the Gram eigenvalues
    X[:, 3] = X[:, 1] - X[:, 2] + 1e-9 * rng.normals(n)
    assert np.linalg.matrix_rank(X) == p
    calls.clear()
    expectile_fit(Dataset(X, y, np.ones(n)), 0.5)
    assert calls == [1]
    X[:, 3] = X[:, 1] - X[:, 2]
    with pytest.raises(RankDeficientError):
        expectile_fit(Dataset(X, y, np.ones(n)), 0.5)


def test_expectile_raises_when_iterations_run_out(monkeypatch):
    # off tau = 1/2 the reweighted solve moves the least-squares start, so
    # one iteration cannot meet the step tolerance
    ds, _ = simulated(missing=0.2)
    beta = expectile_fit(ds, 0.25)
    monkeypatch.setattr(estimators, "_EXPECTILE_MAX_ITER", 1)
    with pytest.raises(NoConvergenceError):
        expectile_fit(ds, 0.25)
    monkeypatch.setattr(estimators, "_EXPECTILE_MAX_ITER", 50)
    assert np.array_equal(expectile_fit(ds, 0.25), beta)


# ---------------------------------------------------------------------------
# unpenalized algorithms

def test_fit_starts_at_root_converges_immediately():
    ds, beta0 = simulated(sigma=0.0)
    cfg = ModelConfig(tau=0.5)
    for fitter in (fit_a1, fit_a2):
        res = fitter(ds, cfg, beta0=beta0)
        assert res.iterations == 1
        assert np.allclose(res.beta, beta0, atol=1e-12)


def test_fit_noiseless_recovery():
    ds, beta0 = simulated(sigma=0.0)
    cfg = ModelConfig(tau=0.5)
    for fitter in (fit_a1, fit_a2):
        assert np.linalg.norm(fitter(ds, cfg).beta - beta0) < 1e-6


def test_fit_all_missing_rejected():
    ds = Dataset(np.ones((5, 2)), np.full(5, np.nan), np.zeros(5))
    with pytest.raises(InsufficientCompleteCasesError):
        fit_a2(ds, ModelConfig(tau=0.5))


def test_a2_one_newton_step_at_half_tau():
    # the smoothed score is linear in beta at tau = 1/2, so the first Newton
    # step lands exactly on the weighted least-squares root
    ds, _ = simulated(seed=29)
    cfg = ModelConfig(tau=0.5)
    res = fit_a2(ds, cfg)
    assert res.iterations <= 2
    Xc, yc = ds.complete_cases()
    ls = np.linalg.solve(Xc.T @ Xc, Xc.T @ yc)
    assert np.linalg.norm(res.beta - ls) < 1e-10


def test_a1_a2_agreement():
    for seed in range(5):
        ds, _ = simulated(n=500, p=5, seed=seed)
        cfg = ModelConfig(tau=0.5)
        b1 = fit_a1(ds, cfg).beta
        b2 = fit_a2(ds, cfg).beta
        assert np.linalg.norm(b1 - b2) <= 10 * cfg.nu


def test_fit_with_missing_responses():
    ds, beta0 = simulated(n=600, p=3, seed=5, missing=0.2)
    res = fit_a2(ds, ModelConfig(tau=0.5))
    assert np.linalg.norm(res.beta - beta0) < 0.3


def test_translation_consistency():
    ds, _ = simulated(n=400, p=3, seed=7)
    cfg = ModelConfig(tau=0.5)
    shift = np.array([0.5, -1.0, 2.0])
    ds_shift = Dataset(ds.X, ds.y + ds.X @ shift, ds.delta)
    pen = PenaltyConfig(eta=0.0, gamma=2.5, pilot=np.ones(3))
    for fitter in (fit_a1, fit_a2):
        base = fitter(ds, cfg).beta
        moved = fitter(ds_shift, cfg).beta
        assert np.allclose(moved, base + shift, atol=1e-6)
    for fitter in (fit_l1, fit_l2):
        base = fitter(ds, cfg, pen).beta
        moved = fitter(ds_shift, cfg, pen).beta
        assert np.allclose(moved, base + shift, atol=1e-6)


def test_score_zeroed_within_first_order_bound():
    ds, _ = simulated(n=500, p=4, seed=11)
    cfg = ModelConfig(tau=0.5)
    res = fit_a2(ds, cfg)
    gbar, _ = moments(ds, cfg, res.beta)
    J = mean_jacobian(ds, cfg, res.beta)
    bound = np.linalg.norm(J, 2) * cfg.nu
    assert np.linalg.norm(gbar) <= bound + 1e-12


def test_no_convergence_at_iteration_cap():
    ds, _ = simulated(n=120, p=3, seed=3)
    cfg = ModelConfig(tau=0.2, h=0.05, nu=1e-13, max_iter=2)
    with pytest.raises(NoConvergenceError):
        fit_a2(ds, cfg)


@pytest.mark.parametrize("fit", [fit_a1, fit_a2])
def test_duplicated_covariate_makes_the_newton_system_singular(fit):
    # an explicit start skips the expectile fit and its rank check, so the
    # singular Newton matrix of a duplicated column reaches the solve
    ds, beta0 = simulated(n=200, p=3, seed=5)
    X = np.column_stack([ds.X, ds.X[:, 1]])
    dup = Dataset(X, ds.y, ds.delta)
    with pytest.raises(RankDeficientError):
        expectile_fit(dup, 0.5)
    for start in (np.zeros(4), np.append(beta0, 0.0)):
        with pytest.raises(SingularMatrixError,
                           match="^linear system is singular$"):
            fit(dup, ModelConfig(tau=0.5), start)


def test_determinism():
    ds, _ = simulated(n=250, p=4, seed=17)
    cfg = ModelConfig(tau=0.6)
    r1, r2 = fit_a2(ds, cfg), fit_a2(ds, cfg)
    assert np.array_equal(r1.beta, r2.beta)
    assert r1.iterations == r2.iterations
    assert r1.trace == r2.trace


# ---------------------------------------------------------------------------
# adaptive weights and penalized algorithms

def test_adaptive_weights_values():
    w = adaptive_weights(np.array([2.0, 0.1, 0.0]), 1.0)
    assert w[0] == pytest.approx(0.5)
    w = adaptive_weights(np.array([0.1]), 2.5)
    assert w[0] == pytest.approx(10 ** 2.5, rel=1e-12)
    assert np.isinf(adaptive_weights(np.array([0.0]), 2.5))[0]
    assert np.isinf(adaptive_weights(np.array([5e-5]), 2.5))[0]


def test_eta_zero_reduces_to_unpenalized_bitwise():
    ds, _ = simulated(n=350, p=5, seed=19)
    cfg = ModelConfig(tau=0.5)
    pilot = fit_a2(ds, cfg).beta
    pen0 = PenaltyConfig(eta=0.0, gamma=2.5, pilot=pilot)
    assert np.array_equal(fit_l1(ds, cfg, pen0).beta, fit_a1(ds, cfg).beta)
    assert np.array_equal(fit_l2(ds, cfg, pen0).beta, fit_a2(ds, cfg).beta)


def test_strong_eta_selects_true_support():
    rng = RngStream(31, 0)
    n = 500
    X = rng.normals(2 * n).reshape(n, 2)
    y = X @ np.array([2.0, 0.0]) + rng.normals(n)
    ds = Dataset(X, y, np.ones(n))
    cfg = ModelConfig(tau=0.5)
    pilot = fit_a2(ds, cfg).beta
    pen = PenaltyConfig(eta=0.05, gamma=2.5, pilot=pilot)
    res = fit_l1(ds, cfg, pen)
    assert res.active_set.tolist() == [0]
    res2 = fit_l2(ds, cfg, pen)
    assert res2.active_set.tolist() == [0]


def test_all_frozen_pilot_returns_zero():
    ds, _ = simulated(n=100, p=3, seed=23)
    cfg = ModelConfig(tau=0.5)
    pen = PenaltyConfig(eta=0.01, gamma=2.5, pilot=np.full(3, 1e-6))
    res = fit_l2(ds, cfg, pen)
    assert not res.beta.any()
    assert res.iterations == 0
    assert len(res.active_set) == 0


@pytest.mark.parametrize("fit", [fit_l1, fit_l2])
def test_freezing_on_the_last_allowed_iteration_returns(fit):
    # eta = 50 freezes every coordinate at iteration 2, whose step is above
    # nu: the fit ends by freezing, not by convergence
    ds, _ = simulated(n=200, p=3, seed=23)
    pen = PenaltyConfig(eta=50.0, pilot=np.ones(3))
    res = fit(ds, ModelConfig(tau=0.5, max_iter=2), pen)
    assert res.iterations == 2 and not res.beta.any()
    assert res.trace[1] > ModelConfig.nu
    with pytest.raises(NoConvergenceError):
        fit(ds, ModelConfig(tau=0.5, max_iter=1), pen)


def test_one_trace_entry_per_iteration():
    ds, _ = simulated(n=200, p=3, seed=23)
    cfg = ModelConfig(tau=0.5)
    converged = [fit_a1(ds, cfg), fit_a2(ds, cfg, np.zeros(3)),
                 fit_l2(ds, cfg, PenaltyConfig(eta=0.01, pilot=np.ones(3)))]
    frozen_at_start = fit_l2(ds, cfg, PenaltyConfig(eta=0.01, pilot=np.full(3, 1e-6)))
    frozen_mid_run = fit_l1(ds, cfg, PenaltyConfig(eta=50.0, pilot=np.ones(3)))
    assert [frozen_at_start.iterations, frozen_mid_run.iterations] == [0, 2]
    for res in converged + [frozen_at_start, frozen_mid_run]:
        assert len(res.trace) == res.iterations
    for res in converged:
        assert res.trace[-1] < cfg.nu


def test_frozen_coordinates_stay_zero():
    ds, _ = simulated(n=400, p=4, seed=37, beta0=[1.5, 0.0, -1.0, 0.0])
    cfg = ModelConfig(tau=0.5)
    pilot = fit_a2(ds, cfg).beta
    pilot[1] = 0.0  # force an infinite weight
    pen = PenaltyConfig(eta=1e-3, gamma=2.5, pilot=pilot)
    res = fit_l2(ds, cfg, pen)
    assert res.beta[1] == 0.0
    assert 1 not in res.active_set.tolist()
    assert np.array_equal(res.active_set, np.flatnonzero(res.beta))


def test_penalized_fit_from_previous_cell():
    # a penalized fit has exact zeros where the weight is finite; starting
    # the next cell there keeps those coordinates frozen at zero
    ds, _ = simulated(n=400, p=4, seed=37, beta0=[1.5, 0.0, -1.0, 0.0])
    cfg = ModelConfig(tau=0.5)
    pilot = fit_a2(ds, cfg).beta
    assert np.all(np.isfinite(adaptive_weights(pilot, 2.5, cfg.eps_zero)))
    eta = 400.0 ** (-5.0 / 6.0)
    prev = fit_l2(ds, cfg, PenaltyConfig(eta=4 * eta, gamma=2.5, pilot=pilot))
    assert prev.active_set.tolist() == [0, 2]
    for fit in (fit_l1, fit_l2):
        res = fit(ds, cfg, PenaltyConfig(eta=2 * eta, gamma=2.5, pilot=pilot),
                  beta0=prev.beta)
        assert res.beta[1] == 0.0 and res.beta[3] == 0.0
        assert res.active_set.tolist() == [0, 2]


def test_shared_start_is_the_default_start():
    ds, _ = simulated(n=300, p=4, seed=29, missing=0.2)
    cfg = ModelConfig(tau=0.3)
    start = expectile_fit(ds, cfg.tau)
    pen = PenaltyConfig(eta=300.0 ** (-5.0 / 6.0), gamma=2.5,
                        pilot=pilot_estimate(ds, cfg, beta0=start))
    assert np.array_equal(pen.pilot, pilot_estimate(ds, cfg))
    for fit, args in ((fit_a1, ()), (fit_a2, ()), (fit_l1, (pen,)), (fit_l2, (pen,))):
        assert np.array_equal(fit(ds, cfg, *args).beta,
                              fit(ds, cfg, *args, beta0=start).beta)
    assert np.array_equal(start, expectile_fit(ds, cfg.tau))  # not modified


def test_pilot_modes():
    ds, beta0 = simulated(n=400, p=3, seed=41)
    cfg = ModelConfig(tau=0.5)
    same = pilot_estimate(ds, cfg, mode="same")
    split = pilot_estimate(ds, cfg, mode="split")
    assert np.linalg.norm(same - beta0) < 0.3
    assert np.linalg.norm(split - beta0) < 0.5
    assert not np.array_equal(same, split)
    with pytest.raises(ValueError):
        pilot_estimate(ds, cfg, mode="bogus")


def test_offcenter_tau_fit_engages_each_kernel():
    # at tau != 1/2 the smoothing path is active; with centered covariates
    # the moment condition still has its root at the true coefficients
    from seel.kernels import Kernel

    rng = RngStream(55, 0)
    n, p = 2000, 4
    X = rng.normals(n * p).reshape(n, p)
    beta0 = np.array([1.0, 0.0, -0.5, 2.0])
    y = X @ beta0 + rng.normals(n)
    ds = Dataset(X, y, np.ones(n))
    for name in ("epanechnikov", "quartic", "triweight"):
        cfg = ModelConfig(tau=0.7, kernel=Kernel(name), nu=1e-8, max_iter=500)
        res = fit_a2(ds, cfg)
        assert np.linalg.norm(res.beta - beta0) < 0.1
        gbar, _ = moments(ds, cfg, res.beta)
        assert np.linalg.norm(gbar) < 1e-10
        pen = PenaltyConfig(eta=n ** (-5.0 / 6.0), gamma=2.5,
                            pilot=pilot_estimate(ds, cfg, mode="split"))
        sel = fit_l2(ds, ModelConfig(tau=0.7, kernel=Kernel(name)), pen)
        assert sel.active_set.tolist() == [0, 2, 3]
