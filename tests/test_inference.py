import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import zero_expectile_tau_masked
from seel import inference
from seel.el import solve_lambda_exact
from seel.errors import (
    DegenerateSampleError,
    HullViolationError,
    OneSidedSampleError,
)
from seel.estimators import (
    FitResult,
    expectile_fit,
    fit_a2,
    fit_l2,
    pilot_estimate,
)
from seel.inference import (
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


@pytest.mark.parametrize("alpha", [1.5, float("nan"), 0.0])
def test_wilks_checks_alpha_before_the_ratio(monkeypatch, alpha):
    def unreachable(*args, **kwargs):
        raise AssertionError("reached")

    monkeypatch.setattr(inference, "el_ratio_approx", unreachable)
    ds, beta0 = simulated()
    with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\)$"):
        wilks_test(ds, ModelConfig(tau=0.5), beta0, alpha=alpha)


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
    val, method, state = penalized_ratio(ds, cfg, pen, np.array([1.0]))
    assert val == pytest.approx(0.23556607131276697 + 2 * 0.1 * 2 * 1.0, abs=1e-6)
    assert method == "exact"
    assert state.ratio == pytest.approx(0.23556607131276697, abs=1e-6)


def test_penalized_ratio_eta_zero_and_zero_beta():
    ds = hand_ds_at_one()
    cfg = ModelConfig(tau=0.5, h=0.1)
    pen0 = PenaltyConfig(eta=0.0, gamma=2.5, pilot=np.array([0.5]))
    pen = PenaltyConfig(eta=0.1, gamma=2.5, pilot=np.array([0.5]))
    base, _, _ = penalized_ratio(ds, cfg, pen0, np.array([1.0]))
    assert base == pytest.approx(0.23556607131276697, abs=1e-6)
    # at beta = 0 the penalty term vanishes even with eta > 0
    r_pen, _, _ = penalized_ratio(ds, cfg, pen, np.array([0.0]))
    r_unpen, _, _ = penalized_ratio(ds, cfg, pen0, np.array([0.0]))
    assert r_pen == pytest.approx(r_unpen, abs=1e-12)


def test_penalized_ratio_carries_the_exact_multiplier():
    cfg = ModelConfig(tau=0.5, h=0.1)
    pen = PenaltyConfig(eta=0.0, gamma=1.0, pilot=np.array([0.5]))
    near = solve_lambda_exact(hand_ds_at_one(), cfg, np.array([0.9]))
    val, method, state = penalized_ratio(hand_ds_at_one(), cfg, pen,
                                         np.array([1.0]), warm=near)
    assert val == pytest.approx(0.23556607131276697, abs=1e-6)
    assert state.lam[0] == pytest.approx(0.25, abs=1e-9)
    assert method == "exact" and state.iterations > 0
    assert state.hessian.shape == (1, 1) and state.hessian[0, 0] > 0.0
    # zero outside the hull: the fallback names its ratio and has no state
    ds = Dataset(np.ones((2, 1)), np.array([2.0, 4.0]), np.ones(2))
    val, method, state = penalized_ratio(ds, cfg, pen, np.zeros(1), warm=state)
    assert np.isfinite(val)
    assert method in ("closed_form", "quadratic") and state is None


def test_penalized_ratio_state_matches_a_direct_warm_solve():
    # the returned state equals the exact solve it ran, warm-started from
    # a nearby beta, bit for bit
    ds, beta0 = simulated(n=400, p=3, seed=4)
    cfg = ModelConfig(tau=0.4)
    pen = PenaltyConfig(eta=0.01, gamma=2.5, pilot=np.ones(3))
    near = solve_lambda_exact(ds, cfg, beta0 + 0.02)
    _, method, state = penalized_ratio(ds, cfg, pen, beta0, warm=near)
    direct = solve_lambda_exact(ds, cfg, beta0, warm=near)
    assert method == "exact"
    assert state.lam.tobytes() == direct.lam.tobytes()
    assert state.hessian.tobytes() == direct.hessian.tobytes()
    assert state.ratio == direct.ratio
    assert state.iterations == direct.iterations


def test_penalized_ratio_frozen_coordinate_contributes_nothing():
    ds, _ = simulated(n=60, p=2, seed=9, beta0=[1.0, 0.0])
    cfg = ModelConfig(tau=0.5)
    pen = PenaltyConfig(eta=0.2, gamma=2.5, pilot=np.array([1.0, 0.0]))
    val, _, _ = penalized_ratio(ds, cfg, pen, np.array([1.0, 0.0]))
    assert np.isfinite(val)


def sweep(monkeypatch, ds, fits, ratio, grid):
    """bic_sweep over grid with each cell's fit taken from fits (one per
    eta) and a constant penalized ratio."""
    cells = iter(fits)
    monkeypatch.setattr(inference, "fit_l2", lambda *a, **k: next(cells))
    monkeypatch.setattr(inference, "penalized_ratio",
                        lambda *a, **k: (ratio, "exact", None))
    return bic_sweep(ds, ModelConfig(tau=0.5), 2.5, grid)


def sweep_records(monkeypatch, ds, fits, ratio):
    grid = [0.01 * (k + 1) for k in range(len(fits))]
    return sweep(monkeypatch, ds, fits, ratio, grid)[1]


def test_bic_formula(monkeypatch):
    ds, beta0 = simulated(n=100, p=3, seed=11)
    fit = fit_a2(ds, ModelConfig(tau=0.5))
    # empty active set: bic equals the bare ratio
    empty = FitResult(beta=np.zeros(3), iterations=1)
    rec, rec_empty = sweep_records(monkeypatch, ds, [fit, empty], 10.0)
    assert rec.bic == pytest.approx(10.0 + len(fit.active_set) * np.log(100))
    assert rec_empty.bic == pytest.approx(10.0)
    assert rec.ratio_method == "exact" and rec.multiplier_iterations == 0


def test_bic_increasing_in_active_set(monkeypatch):
    ds, _ = simulated(n=50, p=3, seed=12)
    fits = []
    for k in range(4):
        beta = np.zeros(3)
        beta[:k] = 1.0
        fits.append(FitResult(beta=beta, iterations=1))
    vals = [rec.bic for rec in sweep_records(monkeypatch, ds, fits, 4.2)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def one_active_fits(p):
    """p fits whose active sets differ but all have size 1."""
    return [FitResult(beta=np.eye(p)[j], iterations=1) for j in range(p)]


@pytest.mark.parametrize("grid", [[0.01, 0.02, 0.03], [0.03, 0.02, 0.01]])
def test_bic_sweep_breaks_a_bic_tie_toward_the_larger_eta(monkeypatch, grid):
    ds, _ = simulated(n=50, p=3, seed=12)
    best, records = sweep(monkeypatch, ds, one_active_fits(3), 4.2, grid)
    assert len({rec.bic for rec in records}) == 1
    assert best is records[grid.index(0.03)]


def test_bic_sweep_breaks_a_bic_and_eta_tie_toward_the_first_record(
        monkeypatch):
    ds, _ = simulated(n=50, p=3, seed=12)
    best, records = sweep(monkeypatch, ds, one_active_fits(3), 4.2,
                          [0.02, 0.02, 0.01])
    assert records[0].eta == records[1].eta
    assert records[0].bic == records[1].bic == records[2].bic
    assert best is records[0]


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
    # record equals a cold penalized ratio at that cell's fit, with fewer
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
        fit = fit_l2(ds, cfg, pen, start)
        value, method, _ = penalized_ratio(ds, cfg, pen, fit.beta)
        cold_bic = value + np.log(n) * len(fit.active_set)
        assert rec.bic == pytest.approx(cold_bic, rel=1e-12)
        assert np.array_equal(rec.beta, fit.beta)
        assert np.array_equal(rec.active_set, fit.active_set)
        assert rec.ratio_method == method == "exact"
    assert len(iterations) == len(grid)
    assert warm < sum(iterations)
    assert sum(r.multiplier_iterations for r in records) == warm


def test_bic_sweep_fallback_cell_keeps_the_last_exact_state(monkeypatch):
    # a hull violation forced in the middle cell: that cell falls back, and
    # the next cell starts from the state of the cell before it
    ds, _ = simulated(n=300, p=3, seed=13, beta0=[1.0, 0.0, -1.0])
    grid = [0.01, 0.02, 0.04, 0.08]
    warms, states = [], []
    real = inference.solve_lambda_exact

    def solve(ds, cfg, beta, warm=None, predicted=None):
        warms.append(warm)
        if len(warms) == 2:
            raise HullViolationError("forced")
        states.append(real(ds, cfg, beta, warm=warm, predicted=predicted))
        return states[-1]

    monkeypatch.setattr(inference, "solve_lambda_exact", solve)
    _, records = bic_sweep(ds, ModelConfig(tau=0.5), 2.5, grid)
    methods = [r.ratio_method for r in records]
    assert methods[0] == methods[2] == methods[3] == "exact"
    assert methods[1] in ("closed_form", "quadratic")
    assert records[1].multiplier_iterations == 0
    assert warms[0] is None
    assert warms[1] is states[0] and warms[2] is states[0]
    assert warms[3] is states[1]
    assert [r.multiplier_iterations for r in records] == \
        [states[0].iterations, 0, states[1].iterations, states[2].iterations]


_PATH_CASE = {}


def path_case():
    # d2 design, about 20% of responses missing, tau = 0.3, with the shared
    # start and pilot of a sweep and a cache of cold cells by (eta, fallback)
    if not _PATH_CASE:
        rng = RngStream(11, 0)
        n, p = 400, 4
        X = gen_design("d2", n, p, rng)
        eps = gen_errors("shifted_exp", n, rng)
        delta = gen_missing("constant", X, rng, 0.8)
        y = np.where(delta == 1, X @ np.array([1.5, 0.0, -1.0, 0.0]) + eps,
                     np.nan)
        ds = Dataset(X, y, delta)
        cfg = ModelConfig(tau=0.3)
        start = expectile_fit(ds, cfg.tau)
        _PATH_CASE.update(ds=ds, cfg=cfg, start=start, cold={},
                          pilot=pilot_estimate(ds, cfg, "same", beta0=start))
    return _PATH_CASE


def cold_cell(eta, fallback):
    # the record of one cell fitted and solved on its own, its multiplier
    # from zero, or from the closed form when fallback forces the chain
    case = path_case()
    key = (eta, fallback)
    if key not in case["cold"]:
        ds, cfg = case["ds"], case["cfg"]
        pen = PenaltyConfig(eta=eta, gamma=2.5, pilot=case["pilot"])
        fit = fit_l2(ds, cfg, pen, case["start"])
        with pytest.MonkeyPatch.context() as m:
            if fallback:
                m.setattr(inference, "solve_lambda_exact", hull_violation)
            value, method, _ = penalized_ratio(ds, cfg, pen, fit.beta)
        case["cold"][key] = (value + np.log(ds.n) * len(fit.active_set),
                             fit.beta, fit.active_set, method)
    return case["cold"][key]


def hull_violation(*args, **kwargs):
    raise HullViolationError("forced")


@settings(max_examples=30, deadline=None)
@given(a_values=st.lists(st.sampled_from([1.0, 2.0, 3.0, 5.0, 8.0]),
                         min_size=2, max_size=7),
       data=st.data())
@example(a_values=[4.0, 1.0, 2.0, 2.0, 8.0], data=None)
@example(a_values=[1.0, 2.0, 3.0, 4.0, 5.0], data=None)
def test_bic_sweep_predicted_start_matches_cold_cells(a_values, data):
    # grids in any order, with repeated etas, and with the exact solve of
    # one middle cell forced to fail: every record equals its cell fitted
    # and solved on its own, whatever multiplier the path predicted for it
    case = path_case()
    ds, cfg = case["ds"], case["cfg"]
    grid = [a * ds.n ** (-5.0 / 6.0) for a in a_values]
    fallback = None
    if len(grid) > 2:
        fallback = (len(grid) // 2 if data is None
                    else data.draw(st.none() | st.integers(1, len(grid) - 2)))
    calls, states = [], []
    real = inference.solve_lambda_exact

    def solve(*args, **kwargs):
        calls.append(kwargs["predicted"])
        if len(calls) - 1 == fallback:
            hull_violation()
        states.append(real(*args, **kwargs))
        return states[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(inference, "solve_lambda_exact", solve)
        _, records = bic_sweep(ds, cfg, 2.5, grid)
    assert [r.eta for r in records] == grid
    # each cell's prediction is the polynomial in eta through the last three
    # exact cells of distinct eta (none before two), a repeated eta's
    # multiplier exactly; a cell that fell back adds nothing
    path = {}
    exact = iter(states)
    for i, (eta, predicted) in enumerate(zip(grid, calls, strict=True)):
        etas = list(path)[-3:]
        if len(etas) < 2:
            assert predicted is None
        elif eta in etas:
            np.testing.assert_array_equal(predicted, path[eta])
        else:
            V = np.vander(etas)
            coef = np.linalg.solve(V, np.array([path[e] for e in etas]))
            np.testing.assert_allclose(
                predicted, np.vander([eta], len(etas))[0] @ coef,
                rtol=1e-9, atol=1e-12)
        if i != fallback:
            path.pop(eta, None)
            path[eta] = next(exact).lam
    for i, rec in enumerate(records):
        bic, beta, active, method = cold_cell(rec.eta, i == fallback)
        assert rec.bic == pytest.approx(bic, rel=1e-12)
        assert np.array_equal(rec.beta, beta)
        assert np.array_equal(rec.active_set, active)
        assert rec.ratio_method == method
        assert (method == "exact") == (i != fallback)


def test_bic_sweep_drops_a_prediction_that_overflows(monkeypatch):
    # etas a subnormal apart give Lagrange weights that overflow to +-inf:
    # the prediction is NaN, no warning escapes, and the cell starts from
    # the last exact multiplier
    case = path_case()
    ds, cfg = case["ds"], case["cfg"]
    scale = ds.n ** (-5.0 / 6.0)
    grid = [0.0, 1e-310 * scale, scale]
    calls = []
    real = inference.solve_lambda_exact

    def solve(*args, **kwargs):
        calls.append(kwargs["predicted"])
        return real(*args, **kwargs)

    monkeypatch.setattr(inference, "solve_lambda_exact", solve)
    _, records = bic_sweep(ds, cfg, 2.5, grid)
    assert np.isnan(calls[2]).all()
    for rec in records:
        bic, beta, _, method = cold_cell(rec.eta, False)
        assert rec.bic == pytest.approx(bic, rel=1e-12)
        assert np.array_equal(rec.beta, beta)
        assert rec.ratio_method == method == "exact"


@pytest.mark.parametrize("gamma, grid", [
    (2.5, [0.01, float("nan")]), (2.5, [0.01, float("inf")]),
    (2.5, [0.01, -0.1]), (float("nan"), [0.01]), (0.0, [0.01]),
])
def test_bic_sweep_checks_every_cell_before_fitting(expectile_calls, gamma,
                                                    grid):
    ds, _ = simulated(n=50, p=2, seed=1)
    with pytest.raises(ValueError, match="must be finite"):
        bic_sweep(ds, ModelConfig(tau=0.5), gamma, grid)
    assert expectile_calls == []


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


def test_empirical_tau_near_the_float_range():
    # |y - median| sums past the largest float; a power-of-two rescale keeps
    # the rule finite and changes no bit of it
    y = np.array([1e308, -1e308, 0.0, 5.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tau = empirical_tau(y)
    assert 0.0 < tau < 1.0
    assert tau == empirical_tau(y * 2.0 ** -10)


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
# more than half of the sample ties at the median, so nothing lies below it
# (or above it): a ratio of the masses would give -0.0 (or 1.0)
@example([0.0, 0.0, 0.0, 5.0, 0.0])
@example([0.0, 0.0, 0.0, -5.0, 0.0])
@example([0.0, 2.5424589951348846e-275, -1.0])  # the ratio rounds to 1
def test_empirical_tau_in_unit_interval(vals):
    y = np.asarray(vals)
    if np.all(y == y[0]):
        return
    med = np.median(y)
    mad = np.mean(np.abs(y - med))
    if mad == 0.0:
        return
    # the zero-expectile level of the rescaled sample
    if two_sided((y - med) / mad):
        assert 0.0 < empirical_tau(y) < 1.0
    else:
        with pytest.raises(OneSidedSampleError):
            empirical_tau(y)


def two_sided(r):
    """Whether r takes both signs with neither mass lost to rounding beside
    the other, so that S- / (S+ + S-) lies inside (0, 1)."""
    s_pos, s_neg = float(np.sum(r[r > 0.0])), float(-np.sum(r[r < 0.0]))
    return s_pos > 0.0 and s_neg > 0.0 and 0.0 < s_neg / (s_pos + s_neg) < 1.0


def test_zero_expectile_tau_values():
    assert zero_expectile_tau(np.array([-3.0, 3.0])) == pytest.approx(0.5)
    assert zero_expectile_tau(np.array([-1.0, 3.0])) == pytest.approx(0.25)
    with pytest.raises(OneSidedSampleError):
        zero_expectile_tau(np.array([1.0, 2.0]))
    # both signs, but 1 + 1e-300 rounds to 1: tau would be exactly 1.0
    with pytest.raises(OneSidedSampleError):
        zero_expectile_tau(np.array([1e-300, -1.0]))


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
    if not two_sided(r):
        with pytest.raises(OneSidedSampleError):
            zero_expectile_tau(r)
        return
    tau = zero_expectile_tau(r)
    moment = np.mean(r * np.where(r > 0, tau, np.where(r < 0, 1 - tau, 0.0)))
    assert abs(moment) <= 1e-12 * max(1.0, np.abs(r).max())
