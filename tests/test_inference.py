import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import zero_expectile_tau_masked
from seel import inference
from seel.errors import DegenerateSampleError, OneSidedSampleError
from seel.estimators import expectile_fit, fit_a2, fit_l2, pilot_estimate
from seel.inference import (
    CarriedMultiplier,
    bic,
    bic_sweep,
    empirical_tau,
    penalized_ratio,
    wilks_test,
    zero_expectile_tau,
)
from seel.model import Dataset, ModelConfig, PenaltyConfig
from seel.numkit import RngStream, chi2_quantile, chi2_sf
from seel.simulate import gen_design, gen_errors, gen_missing


def simulated(n=300, p=4, seed=13, beta0=None, sigma=1.0):
    rng = RngStream(seed, 0)
    X = rng.normals(n * p).reshape(n, p)
    if beta0 is None:
        beta0 = np.linspace(1.0, -1.0, p)
    y = X @ np.asarray(beta0, dtype=float) + sigma * rng.normals(n)
    return Dataset(X, y, np.ones(n, dtype=np.uint8)), np.asarray(beta0, dtype=float)


# ---------------------------------------------------------------------------
# Wilks test

def test_wilks_wiring_reference_values():
    # the reference statistic/df pairs pin down critical value and p-value
    assert chi2_quantile(0.95, 3) == pytest.approx(7.8, abs=0.05)
    assert chi2_sf(11.5, 3) == pytest.approx(0.009, abs=0.001)
    assert 11.5 > chi2_quantile(0.95, 3)  # reject
    assert chi2_quantile(0.95, 2) == pytest.approx(5.99, abs=0.01)
    assert chi2_sf(1.45, 2) == pytest.approx(0.48, abs=0.01)
    assert 1.45 < chi2_quantile(0.95, 2)  # accept


def test_wilks_accepts_at_exact_root():
    ds, beta0 = simulated(sigma=0.0)
    rep = wilks_test(ds, ModelConfig(tau=0.5), beta0, alpha=0.05)
    assert rep.statistic == pytest.approx(0.0, abs=1e-16)
    assert not rep.reject
    assert rep.df == ds.p
    assert rep.critical == pytest.approx(chi2_quantile(0.95, ds.p))
    assert rep.pvalue == pytest.approx(1.0)


def test_wilks_report_consistency():
    ds, beta0 = simulated(seed=3)
    rep = wilks_test(ds, ModelConfig(tau=0.5), beta0 + 0.3, alpha=0.05)
    assert rep.reject == (rep.statistic > rep.critical)
    assert rep.pvalue == pytest.approx(chi2_sf(rep.statistic, rep.df))


def test_wilks_invariance_permutation_and_scale():
    ds, beta0 = simulated(seed=5)
    cfg = ModelConfig(tau=0.5)
    hyp = beta0 + 0.1
    base = wilks_test(ds, cfg, hyp).statistic
    perm = np.random.default_rng(0).permutation(ds.n)
    stat_perm = wilks_test(Dataset(ds.X[perm], ds.y[perm], ds.delta[perm]),
                           cfg, hyp).statistic
    assert stat_perm == pytest.approx(base, rel=1e-9)
    c = 3.0
    stat_scaled = wilks_test(Dataset(c * ds.X, ds.y, ds.delta), cfg,
                             hyp / c).statistic
    assert stat_scaled == pytest.approx(base, rel=1e-9)


def test_wilks_submodel_support():
    ds, beta0 = simulated(seed=7, beta0=[1.0, 0.0, -1.0, 0.0])
    cfg = ModelConfig(tau=0.5)
    rep = wilks_test(ds, cfg, beta0, support=np.array([0, 2]))
    assert rep.df == 2
    assert rep.critical == pytest.approx(chi2_quantile(0.95, 2))


# ---------------------------------------------------------------------------
# penalized ratio and BIC

def hand_ds_at_one():
    # x = 1, tau = 1/2: ghat at beta = 1 equals {-1, 2}
    return Dataset(np.ones((2, 1)), np.array([-1.0, 5.0]), np.ones(2))


def test_penalized_ratio_hand_example():
    ds = hand_ds_at_one()
    cfg = ModelConfig(tau=0.5, h=0.1)
    # weight 2 at gamma = 1 comes from pilot 0.5
    pen = PenaltyConfig(eta=0.1, gamma=1.0, pilot=np.array([0.5]))
    val = penalized_ratio(ds, cfg, pen, np.array([1.0]))
    assert val == pytest.approx(0.23556607131276697 + 2 * 0.1 * 2 * 1.0, abs=1e-6)


def test_penalized_ratio_eta_zero_and_zero_beta():
    ds = hand_ds_at_one()
    cfg = ModelConfig(tau=0.5, h=0.1)
    pen0 = PenaltyConfig(eta=0.0, gamma=2.5, pilot=np.array([0.5]))
    pen = PenaltyConfig(eta=0.1, gamma=2.5, pilot=np.array([0.5]))
    base = penalized_ratio(ds, cfg, pen0, np.array([1.0]))
    assert base == pytest.approx(0.23556607131276697, abs=1e-6)
    # at beta = 0 the penalty term vanishes even with eta > 0
    r_pen = penalized_ratio(ds, cfg, pen, np.array([0.0]))
    r_unpen = penalized_ratio(ds, cfg, pen0, np.array([0.0]))
    assert r_pen == pytest.approx(r_unpen, abs=1e-12)


def test_penalized_ratio_carries_the_exact_multiplier():
    cfg = ModelConfig(tau=0.5, h=0.1)
    pen = PenaltyConfig(eta=0.0, gamma=1.0, pilot=np.array([0.5]))
    carry = CarriedMultiplier(lam=np.array([0.1]))
    val = penalized_ratio(hand_ds_at_one(), cfg, pen, np.array([1.0]),
                          carry=carry)
    assert val == pytest.approx(0.23556607131276697, abs=1e-6)
    assert carry.lam[0] == pytest.approx(0.25, abs=1e-9)
    assert carry.method == "exact" and carry.iterations > 0
    hessian = carry.hessian
    assert hessian.shape == (1, 1) and hessian[0, 0] > 0.0
    # zero outside the hull: the fallback ratio leaves the multiplier alone
    ds = Dataset(np.ones((2, 1)), np.array([2.0, 4.0]), np.ones(2))
    assert np.isfinite(penalized_ratio(ds, cfg, pen, np.zeros(1), carry=carry))
    assert carry.lam[0] == pytest.approx(0.25, abs=1e-9)
    assert carry.hessian is hessian
    assert carry.method == "closed_form" and carry.iterations == 0


def test_penalized_ratio_frozen_coordinate_contributes_nothing():
    ds, _ = simulated(n=60, p=2, seed=9, beta0=[1.0, 0.0])
    cfg = ModelConfig(tau=0.5)
    pen = PenaltyConfig(eta=0.2, gamma=2.5, pilot=np.array([1.0, 0.0]))
    val = penalized_ratio(ds, cfg, pen, np.array([1.0, 0.0]))
    assert np.isfinite(val)


def test_bic_formula(monkeypatch):
    ds, beta0 = simulated(n=100, p=3, seed=11)
    cfg = ModelConfig(tau=0.5)
    pen = PenaltyConfig(eta=0.01, gamma=2.5, pilot=np.ones(3))
    monkeypatch.setattr("seel.inference.penalized_ratio",
                        lambda *a, **k: 10.0)
    fit = fit_a2(ds, cfg)
    rec = bic(ds, cfg, pen, fit)
    assert rec.bic == pytest.approx(10.0 + len(fit.active_set) * np.log(100))
    # empty active set: bic equals the bare ratio
    from seel.estimators import FitResult

    empty = FitResult(beta=np.zeros(3), iterations=1)
    assert bic(ds, cfg, pen, empty).bic == pytest.approx(10.0)


def test_bic_increasing_in_active_set(monkeypatch):
    ds, _ = simulated(n=50, p=3, seed=12)
    cfg = ModelConfig(tau=0.5)
    pen = PenaltyConfig(eta=0.01, gamma=2.5, pilot=np.ones(3))
    monkeypatch.setattr("seel.inference.penalized_ratio", lambda *a, **k: 4.2)
    from seel.estimators import FitResult

    vals = []
    for k in range(4):
        beta = np.zeros(3)
        beta[:k] = 1.0
        fit = FitResult(beta=beta, iterations=1)
        vals.append(bic(ds, cfg, pen, fit).bic)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_bic_sweep_single_and_duplicate_grid():
    ds, beta0 = simulated(n=200, p=3, seed=13, beta0=[1.0, 0.0, -1.0])
    cfg = ModelConfig(tau=0.5)
    best, records = bic_sweep(ds, cfg, 2.5, [0.0])
    assert len(records) == 1
    assert best.eta == 0.0
    assert set(best.active_set.tolist()) == {0, 1, 2}
    eta = 200.0 ** (-5.0 / 6.0)
    best2, records2 = bic_sweep(ds, cfg, 2.5, [eta, eta])
    assert len(records2) == 2
    assert records2[0].bic == records2[1].bic
    assert best2.eta == eta


def test_bic_sweep_recovers_support():
    hits = 0
    for seed in range(10):
        rng = RngStream(seed, 0)
        n, p = 500, 5
        X = rng.normals(n * p).reshape(n, p)
        beta0 = np.array([0.0, 0.0, 1.0, 0.0, 2.0])
        y = X @ beta0 + (rng.exponentials(1.5, n) - 1.5)
        ds = Dataset(X, y, np.ones(n))
        cfg = ModelConfig(tau=0.5)
        grid = [a * n ** (-5.0 / 6.0) for a in (0.25, 0.5, 1, 2, 4, 8)]
        best, _ = bic_sweep(ds, cfg, 2.5, grid)
        if set(best.active_set.tolist()) == {2, 4}:
            hits += 1
    assert hits >= 9


def test_bic_sweep_propagates_non_estimation_errors(monkeypatch):
    ds, _ = simulated(n=200, p=3, seed=13, beta0=[1.0, 0.0, -1.0])
    real_fit_l2 = inference.fit_l2

    def fit_l2(ds, cfg, pen, beta0=None):
        if pen.eta == 0.02:
            raise TypeError("programming error")
        return real_fit_l2(ds, cfg, pen, beta0)

    monkeypatch.setattr(inference, "fit_l2", fit_l2)
    with pytest.raises(TypeError, match="programming error"):
        bic_sweep(ds, ModelConfig(tau=0.5), 2.5, [0.01, 0.02, 0.04])


@pytest.mark.parametrize("mode, sizes", [("same", [200]), ("split", [200, 100])])
def test_bic_sweep_computes_one_start_per_dataset(expectile_calls, mode, sizes):
    # the pilot (in "same" mode) and every cell share one expectile start;
    # a "split" pilot fits its own half of the rows
    ds, _ = simulated(n=200, p=3, seed=13, beta0=[1.0, 0.0, -1.0])
    bic_sweep(ds, ModelConfig(tau=0.5), 2.5, [0.01, 0.02, 0.04], pilot_mode=mode)
    assert expectile_calls == sizes


def test_bic_sweep_never_reads_the_full_design(monkeypatch):
    # with responses missing, ds.X is assembled on every read; a sweep with
    # a "same" pilot runs on the stored observed rows only
    rng = RngStream(5, 0)
    n, p = 400, 4
    X = gen_design("d2", n, p, rng)
    delta = gen_missing("constant", X, rng, 0.8)
    ds = Dataset(X, np.where(delta == 1, X[:, 0] + rng.normals(n), np.nan), delta)
    assert ds.n_complete < n
    reads = []
    design = Dataset.X.fget

    def counted(self):
        reads.append(1)
        return design(self)

    monkeypatch.setattr(Dataset, "X", property(counted))
    _, records = bic_sweep(ds, ModelConfig(tau=0.3), 2.5,
                           [0.01, 0.02, 0.04], pilot_mode="same")
    assert len(records) == 3 and len(reads) == 0
    assert ds.X.tobytes() == X.tobytes() and len(reads) == 1


def test_bic_sweep_warm_multiplier_matches_cold_cells(monkeypatch):
    # d2 design, about 20% of responses missing, tau = 0.3: each cell's
    # record equals a cold bic call on that cell's fit, with fewer
    # multiplier iterations over the grid
    rng = RngStream(7, 0)
    n, p = 2000, 8
    beta0 = np.zeros(p)
    beta0[[0, 2, 4]] = [1.5, -1.0, 2.0]
    X = gen_design("d2", n, p, rng)
    eps = gen_errors("shifted_exp", n, rng)
    delta = gen_missing("constant", X, rng, 0.8)
    ds = Dataset(X, np.where(delta == 1, X @ beta0 + eps, np.nan), delta)
    assert 0.15 < 1.0 - ds.delta.mean() < 0.25
    cfg = ModelConfig(tau=0.3)
    grid = [a * n ** (-5.0 / 6.0) for a in range(1, 9)]
    iterations = []
    real = inference.solve_lambda_exact

    def counting(*args, **kwargs):
        state = real(*args, **kwargs)
        iterations.append(state.iterations)
        return state

    monkeypatch.setattr(inference, "solve_lambda_exact", counting)
    _, records = bic_sweep(ds, cfg, 2.5, grid)
    warm = sum(iterations)
    iterations.clear()
    start = expectile_fit(ds, cfg.tau)
    pilot = pilot_estimate(ds, cfg, mode="same", beta0=start)
    assert [r.eta for r in records] == grid
    for rec in records:
        pen = PenaltyConfig(eta=rec.eta, gamma=2.5, pilot=pilot)
        cold = bic(ds, cfg, pen, fit_l2(ds, cfg, pen, start))
        assert rec.eta == cold.eta
        assert rec.bic == pytest.approx(cold.bic, rel=1e-12)
        assert np.array_equal(rec.beta, cold.beta)
        assert np.array_equal(rec.active_set, cold.active_set)
        assert rec.ratio_method == cold.ratio_method == "exact"
    assert len(iterations) == len(grid)
    assert warm < sum(iterations)
    assert sum(r.multiplier_iterations for r in records) == warm


def test_bic_sweep_rejects_bad_grid():
    ds, _ = simulated(n=50, p=2, seed=1)
    with pytest.raises(ValueError):
        bic_sweep(ds, ModelConfig(tau=0.5), 2.5, [])
    with pytest.raises(ValueError):
        bic_sweep(ds, ModelConfig(tau=0.5), 2.5, [-0.1])


# ---------------------------------------------------------------------------
# tau rules

def test_empirical_tau_symmetric():
    assert empirical_tau(np.array([-2.0, -1.0, 0.0, 1.0, 2.0])) \
        == pytest.approx(0.5)


def test_empirical_tau_hand_example():
    # median 0, mean abs deviation 5/3, rescaled {-0.6, 0, 2.4}
    assert empirical_tau(np.array([-1.0, 0.0, 4.0])) == pytest.approx(0.2)


def test_empirical_tau_degenerate():
    with pytest.raises(DegenerateSampleError):
        empirical_tau(np.full(5, 3.3))


def test_empirical_tau_skew_direction():
    # per the displayed formula, a heavy right tail loads the positive mass
    # and pushes tau below one half (the {-1, 0, 4} example gives 0.2)
    rng = RngStream(77, 0)
    y = rng.exponentials(1.5, 20000)
    assert empirical_tau(y) < 0.5
    assert empirical_tau(-y) > 0.5


@settings(deadline=None, max_examples=80)
@given(st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=60))
def test_empirical_tau_in_unit_interval(vals):
    y = np.asarray(vals)
    if np.all(y == y[0]):
        return
    med = np.median(y)
    if np.mean(np.abs(y - med)) == 0.0:
        return
    tau = empirical_tau(y)
    assert 0.0 <= tau <= 1.0


def test_zero_expectile_tau_values():
    assert zero_expectile_tau(np.array([-3.0, 3.0])) == pytest.approx(0.5)
    assert zero_expectile_tau(np.array([-1.0, 3.0])) == pytest.approx(0.25)
    with pytest.raises(OneSidedSampleError):
        zero_expectile_tau(np.array([1.0, 2.0]))


def test_zero_expectile_tau_matches_masked_oracle():
    for seed in range(4):
        r = gen_errors("shifted_exp", 50_001, RngStream(seed, 5))
        r[::7] = 0.0
        assert zero_expectile_tau(r) == zero_expectile_tau_masked(r)
        block = r[:50_000].reshape(200, 250)
        assert zero_expectile_tau(block) == zero_expectile_tau_masked(block)


@pytest.mark.parametrize("rule,sample", [
    (zero_expectile_tau, [1.0, -1.0, np.nan]),
    (zero_expectile_tau, [1.0, -1.0, np.inf]),
    (zero_expectile_tau, [1.0, -np.inf, 2.0]),
    (empirical_tau, [1.0, 2.0, np.nan, 5.0]),
    (empirical_tau, [1.0, 2.0, -np.inf, 5.0]),
])
def test_tau_rules_reject_non_finite_samples(rule, sample):
    # a NaN used to be dropped (tau 0.5), an infinity to give tau 0
    with pytest.raises(ValueError, match="must be finite"):
        rule(np.array(sample))


@settings(deadline=None, max_examples=80)
@given(st.lists(st.floats(-100, 100), min_size=2, max_size=50))
def test_zero_expectile_tau_zeroes_the_moment(vals):
    r = np.asarray(vals)
    if not ((r > 0).any() and (r < 0).any()):
        return
    tau = zero_expectile_tau(r)
    moment = np.mean(r * np.where(r > 0, tau, np.where(r < 0, 1 - tau, 0.0)))
    assert abs(moment) <= 1e-12 * max(1.0, np.abs(r).max())
