from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst
from oracles import dense_g, implied_probabilities

from seel import el, inference
from seel.el import (
    ELState,
    el_ratio_approx,
    el_ratio_exact,
    lambda_approx,
    solve_lambda_exact,
)
from seel.errors import (
    EstimationError,
    HullViolationError,
    LogDomainError,
    NoConvergenceError,
    SingularMatrixError,
)
from seel.inference import bic_sweep, penalized_ratio
from seel.model import Dataset, ModelConfig, PenaltyConfig, evaluate, moments
from seel.numkit import RngStream, solve_spd
from seel.simulate import gen_design, gen_errors, gen_missing


def hand_ds(beta_offset=0.0):
    # x = 1, tau = 1/2: ghat at beta = beta_offset equals {-1, 2}
    y = np.array([-2.0, 4.0]) + beta_offset
    return Dataset(np.ones((2, 1)), y, np.ones(2))


CFG = ModelConfig(tau=0.5, h=0.1)


def warm_state(lam, hessian=None):
    # the state of a solve at a nearby beta, as a sweep hands it on
    return ELState(lam=np.asarray(lam, dtype=float), ratio=0.0, iterations=0,
                   hessian=hessian)


@pytest.fixture
def hessians_formed(monkeypatch):
    """Number of multiplier Hessians formed so far, as a one-element list."""
    formed = [0]
    real = el._scaled_gram

    def counting(*args):
        formed[0] += 1
        return real(*args)

    monkeypatch.setattr(el, "_scaled_gram", counting)
    return formed


def test_lambda_zero_for_symmetric_pairs():
    ds = Dataset(np.ones((4, 1)), np.array([-3.0, 3.0, -1.0, 1.0]), np.ones(4))
    st = solve_lambda_exact(ds, CFG, np.zeros(1))
    assert np.allclose(st.lam, 0.0, atol=1e-10)
    assert st.ratio == pytest.approx(0.0, abs=1e-12)


def test_lambda_exact_hand_example():
    st = solve_lambda_exact(hand_ds(), CFG, np.zeros(1))
    assert st.lam[0] == pytest.approx(0.25, abs=1e-9)
    assert st.ratio == pytest.approx(2 * (np.log(0.75) + np.log(1.5)), abs=1e-9)


def test_hull_violation_when_all_positive():
    ds = Dataset(np.ones((2, 1)), np.array([2.0, 4.0]), np.ones(2))
    with pytest.raises(HullViolationError):
        solve_lambda_exact(ds, CFG, np.zeros(1))


def test_probabilities_constraints():
    ds = hand_ds()
    st = solve_lambda_exact(ds, CFG, np.zeros(1))
    probs = implied_probabilities(ds, CFG, np.zeros(1), st.lam)
    assert probs.sum() == pytest.approx(1.0, abs=1e-8)
    # weighted moment constraint sum p_i ghat_i = 0
    ghat = np.array([-1.0, 2.0])
    assert float(probs @ ghat) == pytest.approx(0.0, abs=1e-6)
    assert np.all(probs > 0)


def test_probabilities_with_missing_rows_sum_over_full_sample():
    X = np.ones((4, 1))
    y = np.array([-2.0, 4.0, np.nan, np.nan])
    delta = np.array([1, 1, 0, 0])
    ds = Dataset(X, y, delta)
    st = solve_lambda_exact(ds, CFG, np.zeros(1))
    probs = implied_probabilities(ds, CFG, np.zeros(1), st.lam)
    # unused rows carry probability 1/n each; the full-sample total is one
    assert probs.sum() == pytest.approx(1.0, abs=1e-8)
    assert np.allclose(probs[2:], 0.25)


@pytest.mark.parametrize("lam0, hessian0", [
    pytest.param(None, None, id="None"),
    pytest.param(0.5, None, id="0.5"),
    pytest.param(-0.1, None, id="-0.1"),
    pytest.param(0.5, np.eye(1), id="0.5-hessian"),
    pytest.param(-0.1, np.eye(1), id="-0.1-hessian"),
])
def test_hull_violation_with_missing_rows(lam0, hessian0):
    # both observed g_i are positive, so zero lies outside their hull; the
    # missing rows, 1/n of probability each, must not hide that, from a
    # cold or a warm start
    y = np.array([np.nan, 2.0, np.nan, 4.0])
    ds = Dataset(np.ones((4, 1)), y, np.array([0, 1, 0, 1]))
    G = dense_g(ds, CFG, np.zeros(1))
    assert G.shape == (2, 1) and np.all(G > 0.0)
    warm = None if lam0 is None else warm_state([lam0], hessian0)
    if warm is not None:
        assert np.all(1.0 + G @ warm.lam > 1.0 / ds.n)
    with pytest.raises(HullViolationError):
        solve_lambda_exact(ds, CFG, np.zeros(1), warm=warm)


def test_lambda_approx_values():
    assert np.allclose(lambda_approx(hand_ds(), CFG, np.zeros(1)), [0.2])
    ds_sym = Dataset(np.ones((2, 1)), np.array([-2.0, 2.0]), np.ones(2))
    assert np.allclose(lambda_approx(ds_sym, CFG, np.zeros(1)), [0.0], atol=1e-14)


def test_ratio_exact_values():
    ds = hand_ds()
    assert el_ratio_exact(ds, CFG, np.zeros(1), np.zeros(1)) == 0.0
    assert el_ratio_exact(ds, CFG, np.zeros(1), np.array([0.25])) \
        == pytest.approx(0.23556607131276697, abs=1e-9)
    ds0 = Dataset(np.ones((3, 1)), np.full(3, np.nan), np.zeros(3))
    assert el_ratio_exact(ds0, CFG, np.zeros(1), np.array([5.0])) == 0.0


def test_ratio_exact_log_domain():
    with pytest.raises(LogDomainError):
        el_ratio_exact(hand_ds(), CFG, np.zeros(1), np.array([1.5]))


def test_ratio_approx_values():
    assert el_ratio_approx(hand_ds(), CFG, np.zeros(1)) == pytest.approx(0.2)
    ds_sym = Dataset(np.ones((2, 1)), np.array([-2.0, 2.0]), np.ones(2))
    assert el_ratio_approx(ds_sym, CFG, np.zeros(1)) == pytest.approx(0.0, abs=1e-20)


def test_ratio_row_permutation_invariance():
    rng = RngStream(21, 0)
    n, p = 40, 2
    X = rng.normals(n * p).reshape(n, p)
    y = X @ np.array([1.0, -0.5]) + rng.normals(n)
    ds = Dataset(X, y, np.ones(n))
    cfg = ModelConfig(tau=0.4, h=0.3)
    beta = np.array([0.9, -0.4])
    st = solve_lambda_exact(ds, cfg, beta)
    perm = np.random.default_rng(0).permutation(n)
    ds_p = Dataset(X[perm], y[perm], np.ones(n))
    st_p = solve_lambda_exact(ds_p, cfg, beta)
    assert st_p.ratio == pytest.approx(st.ratio, rel=1e-9)
    assert el_ratio_approx(ds_p, cfg, beta) \
        == pytest.approx(el_ratio_approx(ds, cfg, beta), rel=1e-9)


def test_exact_lambda_maximizes_dual():
    rng = RngStream(22, 0)
    n, p = 30, 2
    X = rng.normals(n * p).reshape(n, p)
    y = X @ np.array([0.5, 1.0]) + rng.normals(n)
    ds = Dataset(X, y, np.ones(n))
    cfg = ModelConfig(tau=0.45, h=0.35)
    beta = np.array([0.4, 0.9])
    st = solve_lambda_exact(ds, cfg, beta)
    base = el_ratio_exact(ds, cfg, beta, st.lam)
    assert base >= -1e-12
    gen = np.random.default_rng(1)
    for _ in range(20):
        d = gen.standard_normal(p)
        d *= 1e-3 / np.linalg.norm(d)
        assert el_ratio_exact(ds, cfg, beta, st.lam + d) <= base + 1e-12


def test_lambda_agreement_quadratic_in_gbar():
    # |lambda_exact - lambda_approx| = O(||gbar||^2) on small random instances
    gen = np.random.default_rng(9)
    ratios = []
    for _ in range(100):
        n = int(gen.integers(8, 21))
        X = gen.uniform(0.5, 2.0, size=(n, 1)) * gen.choice([-1.0, 1.0], size=(n, 1))
        beta0 = gen.uniform(-1, 1, size=1)
        y = X @ beta0 + gen.standard_normal(n)
        ds = Dataset(X, y, np.ones(n))
        cfg = ModelConfig(tau=0.5, h=0.4)
        gbar, _ = moments(ds, cfg, beta0)
        norm2 = float(gbar @ gbar)
        if norm2 < 1e-8:
            continue
        try:
            lam_e = solve_lambda_exact(ds, cfg, beta0).lam
        except HullViolationError:
            continue
        lam_a = lambda_approx(ds, cfg, beta0)
        ratios.append(np.linalg.norm(lam_e - lam_a) / norm2)
    assert len(ratios) >= 60
    # the constant is instance-dependent but stays within a stable band
    assert np.median(ratios) < 5.0
    assert np.quantile(ratios, 0.9) < 25.0
    assert np.max(ratios) < 200.0


def test_ratio_approx_close_to_exact_near_truth():
    rng = RngStream(23, 0)
    n, p = 500, 3
    beta0 = np.array([1.0, -0.5, 0.25])
    X = rng.normals(n * p).reshape(n, p)
    y = X @ beta0 + rng.normals(n)
    ds = Dataset(X, y, np.ones(n))
    cfg = ModelConfig(tau=0.5)
    approx = el_ratio_approx(ds, cfg, beta0)
    exact = solve_lambda_exact(ds, cfg, beta0).ratio
    assert abs(approx - exact) / max(exact, 1e-12) < 0.15


def missing_d2_ds(seed, n, p, beta0):
    # d2 design, shifted-exponential errors, about 20% of responses missing
    rng = RngStream(seed, 0)
    X = gen_design("d2", n, p, rng)
    eps = gen_errors("shifted_exp", n, rng)
    delta = gen_missing("constant", X, rng, 0.8)
    y = np.where(delta == 1, X @ beta0 + eps, np.nan)
    return Dataset(X, y, delta)


def reference_lambda(ds, cfg, beta, tol=1e-8, max_iter=200, start=None,
                     hessians=None):
    # the solver written out on the dense G of oracles.dense_g, with a
    # mean-based gradient and the G / w^2 Hessian, recomputing w from lambda
    # after each accepted step; G holds the observed rows, and the means and
    # the floor 1/n use the full n.  start is an ELState whose multiplier
    # and Hessian begin the iteration, as in a warm attempt of the solver;
    # each Hessian solved with is appended to hessians, and the reference
    # raises where an attempt of the solver raises
    G = dense_g(ds, cfg, beta)
    n, p = ds.n, G.shape[1]
    lam, H = (np.zeros(p), None) if start is None else (start.lam, start.hessian)
    w = 1.0 + G @ lam
    halvings = 0
    for it in range(1, max_iter + 1):
        grad = (G / w[:, None]).sum(axis=0) / n
        if np.linalg.norm(grad) <= tol:
            break
        if it > 1 or H is None:
            H = G.T @ (G / (w * w)[:, None]) / n
        if hessians is not None:
            hessians.append(H)
        step = solve_spd(H, grad)
        size, trials = 1.0, 1
        while not np.all(1.0 + G @ (lam + size * step) > 1.0 / n):
            if trials == 60:
                raise HullViolationError("no step keeps every factor above 1/n")
            size, trials = 0.5 * size, trials + 1
        halvings += trials - 1
        lam = lam + size * step
        if not np.all(np.isfinite(lam)):
            raise NoConvergenceError("non-finite multiplier")
        w = 1.0 + G @ lam
    else:
        raise NoConvergenceError(f"not solved in {max_iter} iterations")
    if abs((n - G.shape[0]) / n + (1.0 / (n * w)).sum() - 1.0) > 1e-6:
        raise HullViolationError("zero lies outside the convex hull")
    return lam, float(2.0 * np.log(w).sum()), it, halvings


def assert_ratio_of_own_multiplier(st, ds, cfg, beta):
    # after a halved step the factors are updated along G step, not formed
    # from lambda again; the ratio must still be that of the multiplier
    w = 1.0 + dense_g(ds, cfg, beta) @ st.lam
    assert st.ratio == pytest.approx(2.0 * np.log(w).sum(), rel=1e-12)


def test_lambda_exact_matches_reference_loop(hessians_formed):
    beta0 = np.array([1.0, 0.0, 1.0, 0.0])
    ds = missing_d2_ds(3, 400, 4, beta0)
    assert 0.15 < 1.0 - ds.delta.mean() < 0.25
    cfg = ModelConfig(tau=0.5)
    beta = beta0 + 0.3
    lam, ratio, iterations, halvings = reference_lambda(ds, cfg, beta)
    assert halvings >= 1
    st = solve_lambda_exact(ds, cfg, beta)
    np.testing.assert_allclose(st.lam, lam, rtol=1e-12)
    assert st.ratio == pytest.approx(ratio, rel=1e-12)
    assert st.iterations == iterations
    assert_ratio_of_own_multiplier(st, ds, cfg, beta)
    # one Hessian per step; the last iteration only tests the gradient
    assert hessians_formed[0] == iterations - 1
    # without a nonzero warm multiplier the warm Hessian is never used
    warm = warm_state(np.zeros(4), np.eye(4))
    assert_same_state(solve_lambda_exact(ds, cfg, beta, warm=warm),
                      st, ds, cfg, beta)
    assert hessians_formed[0] == 2 * (iterations - 1)


def solved_or_raised(solve):
    # the result of solve(hessians), or the EstimationError it raised, with
    # the Hessians of the Newton systems it solved
    hessians = []
    try:
        return solve(hessians), hessians
    except EstimationError as exc:
        return exc, hessians


def solver_run(ds, cfg, beta, warm=None):
    def solve(hessians):
        def recording(H, grad):
            hessians.append(np.array(H))
            return solve_spd(H, grad)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(el, "solve_spd", recording)
            return solve_lambda_exact(ds, cfg, beta, warm=warm)

    return solved_or_raised(solve)


def reference_run(ds, cfg, beta, start=None):
    return solved_or_raised(lambda hessians: reference_lambda(
        ds, cfg, beta, start=start, hessians=hessians))


def assert_same_path(hessians, ref_hessians):
    # a Hessian depends on the factors w of its iterate, so equal Hessians
    # at every step mean equal steps, halvings included; a halving moves it
    # by far more than 1e-8, while near the floor 1/n the cancellation in
    # 1 + lambda'g_i lets rounding move it by a few 1e-10
    assert len(hessians) == len(ref_hessians)
    for H, ref in zip(hessians, ref_hessians):
        np.testing.assert_allclose(H, ref, rtol=1e-8,
                                   atol=1e-8 * np.abs(ref).max())


def assert_solves_as_reference(run, ref):
    # a failed solve is compared by its error alone: as the multiplier runs
    # off, the Hessians lose rank and rounding no longer fixes the path
    (st, hessians), (expected, ref_hessians) = run, ref
    if isinstance(expected, EstimationError):
        assert type(st) is type(expected)
        return
    assert_same_path(hessians, ref_hessians)
    lam, ratio, iterations, _ = expected
    assert isinstance(st, ELState) and st.iterations == iterations
    np.testing.assert_allclose(st.lam, lam, rtol=1e-10)
    assert st.ratio == pytest.approx(ratio, rel=1e-12, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(n=hst.integers(2, 80), p=hst.integers(1, 6),
       missing=hst.floats(0.0, 0.4), tau=hst.floats(0.05, 0.95),
       h=hst.floats(0.05, 2.0), shift=hst.floats(0.0, 0.5),
       seed=hst.integers(0, 2 ** 16))
def test_matrix_free_solve_matches_the_dense_reference(n, p, missing, tau, h,
                                                       shift, seed):
    # the solver and the ratio never form G; on the dense G a cold and a
    # warm solve take the same Newton steps and halvings, reach the same
    # multiplier, and raise where the reference raises
    gen = np.random.default_rng(seed)
    X = gen.standard_normal((n, p))
    beta0 = gen.uniform(-1.0, 1.0, p)
    delta = (gen.uniform(size=n) >= missing).astype(np.uint8)
    y = np.where(delta == 1, X @ beta0 + gen.standard_normal(n), np.nan)
    ds = Dataset(X, y, delta)
    assume(ds.n_complete > p)  # else S is singular and no path is fixed
    cfg = ModelConfig(tau=tau, h=h)
    beta = beta0 + shift * gen.standard_normal(p)
    G = dense_g(ds, cfg, beta)
    cold = reference_run(ds, cfg, beta)
    assert_solves_as_reference(solver_run(ds, cfg, beta), cold)
    if not isinstance(cold[0], EstimationError):
        lam = cold[0][0]
        assert el_ratio_exact(ds, cfg, beta, lam) == pytest.approx(
            2.0 * np.log(1.0 + G @ lam).sum(), rel=1e-12, abs=1e-14)
    # a multiplier that takes some factor 1 + lambda'g_i to -1
    k = int(np.argmax(np.abs(G).sum(axis=1)))
    with pytest.raises(LogDomainError):
        el_ratio_exact(ds, cfg, beta, -2.0 * G[k] / (G[k] @ G[k]))
    warm = solver_run(ds, cfg, beta + 0.01 * gen.standard_normal(p))[0]
    if isinstance(warm, EstimationError):
        return
    run = solver_run(ds, cfg, beta, warm=warm)
    if not (np.any(warm.lam) and np.all(1.0 + G @ warm.lam > 1.0 / ds.n)):
        assert_solves_as_reference(run, cold)  # the start is dropped
        return
    ref = reference_run(ds, cfg, beta, start=warm)
    if not isinstance(ref[0], EstimationError):
        assert_solves_as_reference(run, ref)
        return
    # the warm attempt fails as the reference does, and the retry from
    # zero is the cold solve
    st = run[0]
    if isinstance(cold[0], EstimationError):
        assert type(st) is type(cold[0])
    else:
        assert_same_path(run[1][len(run[1]) - len(cold[1]):], cold[1])
        np.testing.assert_allclose(st.lam, cold[0][0], rtol=1e-10)
        assert st.iterations > cold[0][2]


def test_sweep_ratios_are_those_of_their_multipliers(monkeypatch):
    # the first cell's solve starts from zero and halves its first steps;
    # the later cells start warm from the state of the one before
    beta0 = np.zeros(10)
    beta0[[2, 4, 6]] = [1.0, 2.0, -1.0]
    ds = missing_d2_ds(5, 2000, 10, beta0)
    cfg = ModelConfig(tau=0.25)
    solves = []
    real = inference.solve_lambda_exact

    def recording(ds, cfg, beta, **kwargs):
        st = real(ds, cfg, beta, **kwargs)
        solves.append((np.array(beta), st))
        return st

    monkeypatch.setattr(inference, "solve_lambda_exact", recording)
    grid = [a * ds.n ** (-5.0 / 6.0) for a in range(1, 9)]
    _, records = bic_sweep(ds, cfg, 2.5, grid)
    assert len(solves) == len(records) == len(grid)
    _, _, iterations, halvings = reference_lambda(ds, cfg, solves[0][0])
    assert halvings >= 1
    assert solves[0][1].iterations == iterations
    for beta, st in solves:
        assert_ratio_of_own_multiplier(st, ds, cfg, beta)


def test_lambda_exact_forms_no_n_by_p_array():
    # the solve works on the factors (Xo, a) and never forms G: beyond its
    # n-vectors it holds one Hessian block of at most 4096 rows, so its
    # peak stays below one observed design, where G alone would fill it
    import tracemalloc

    n, p = 20_000, 20
    beta0 = np.zeros(p)
    beta0[[2, 4, 6]] = [1.0, 2.0, -1.0]
    ds = missing_d2_ds(4, n, p, beta0)
    cfg = ModelConfig(tau=0.25)
    beta = beta0 + 0.05
    evaluate(ds, cfg, beta)  # the row pass is memoized, not traced
    tracemalloc.start()
    try:
        st = solve_lambda_exact(ds, cfg, beta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.iterations > 2
    assert peak <= 0.75 * ds.Xo.nbytes


def warm_instance():
    beta0 = np.array([1.0, 0.0, 1.0, 0.0])
    ds = missing_d2_ds(3, 400, 4, beta0)
    cfg = ModelConfig(tau=0.5)
    beta = beta0 + 0.3
    return ds, cfg, beta, solve_lambda_exact(ds, cfg, beta)


def test_lambda_exact_warm_start_matches_cold(hessians_formed, monkeypatch):
    # the multiplier at a nearby beta, without its Hessian
    check_warm_start_matches_cold(hessians_formed, monkeypatch,
                                  carry_hessian=False)


def test_lambda_exact_warm_start_with_hessian_matches_cold(hessians_formed,
                                                           monkeypatch):
    # the state of a solve at a nearby beta, as a sweep along a grid hands
    # it on: its last Hessian serves the first step
    check_warm_start_matches_cold(hessians_formed, monkeypatch,
                                  carry_hessian=True)


def check_warm_start_matches_cold(hessians_formed, monkeypatch, carry_hessian):
    ds, cfg, beta, cold = warm_instance()
    near = solve_lambda_exact(ds, cfg, beta + 0.01)
    warm = near if carry_hessian else replace(near, hessian=None)
    hessians_formed[0] = 0
    st = solve_lambda_exact(ds, cfg, beta, warm=warm)
    formed = hessians_formed[0]
    assert st.ratio == pytest.approx(cold.ratio, rel=1e-12)
    # at the default tolerance the cold multiplier is itself about 1e-10
    # from the root, which a tightly solved reference locates
    monkeypatch.setattr(el, "_LAMBDA_TOL", 1e-14)
    root = solve_lambda_exact(ds, cfg, beta).lam
    np.testing.assert_allclose(cold.lam, root, rtol=0, atol=1e-9)
    np.testing.assert_allclose(st.lam, cold.lam, rtol=0, atol=1e-9)
    np.testing.assert_allclose(st.lam, root, rtol=0, atol=1e-10)
    assert st.iterations <= cold.iterations
    assert formed == st.iterations - 1 - carry_hessian
    assert implied_probabilities(ds, cfg, beta, st.lam).sum() \
        == pytest.approx(1.0, abs=1e-8)


def assert_same_state(st, cold, ds, cfg, beta):
    np.testing.assert_array_equal(st.lam, cold.lam)
    np.testing.assert_array_equal(implied_probabilities(ds, cfg, beta, st.lam),
                                  implied_probabilities(ds, cfg, beta, cold.lam))
    np.testing.assert_array_equal(st.hessian, cold.hessian)
    assert st.ratio == cold.ratio


@pytest.mark.parametrize("scale, carry_hessian", [
    pytest.param(-20.0, False, id="-20.0"),
    pytest.param(5.0, False, id="5.0"),
    pytest.param(-20.0, True, id="-20.0-hessian"),
    pytest.param(5.0, True, id="5.0-hessian"),
])
def test_lambda_exact_infeasible_start_is_cold(hessians_formed, scale,
                                               carry_hessian):
    # an infeasible start is dropped, and the Hessian that goes with it
    ds, cfg, beta, cold = warm_instance()
    cold_formed = hessians_formed[0]
    warm = warm_state(scale * cold.lam,
                      3.0 * cold.hessian if carry_hessian else None)
    assert np.min(1.0 + dense_g(ds, cfg, beta) @ warm.lam) <= 1.0 / ds.n
    st = solve_lambda_exact(ds, cfg, beta, warm=warm)
    assert_same_state(st, cold, ds, cfg, beta)
    assert st.iterations == cold.iterations
    assert hessians_formed[0] == 2 * cold_formed


def test_lambda_exact_failed_warm_start_retries_from_zero(monkeypatch):
    # a feasible start near the boundary, opposite the solution, needs more
    # iterations than the cold solve; with the cold count as the budget the
    # warm attempt fails and the retry from zero gives the cold solution
    ds, cfg, beta, cold = warm_instance()
    warm = warm_state(-0.2 * cold.lam)
    assert np.min(1.0 + dense_g(ds, cfg, beta) @ warm.lam) > 1.0 / ds.n
    assert solve_lambda_exact(ds, cfg, beta, warm=warm).iterations \
        > cold.iterations
    monkeypatch.setattr(el, "_LAMBDA_MIN_ITER", 1)
    st = solve_lambda_exact(ds, replace(cfg, max_iter=cold.iterations), beta,
                            warm=warm)
    assert_same_state(st, cold, ds, cfg, beta)
    assert st.iterations == 2 * cold.iterations


@pytest.mark.parametrize("lam0, hessian0", [
    pytest.param(0.5, None, id="0.5"),
    pytest.param(-0.1, None, id="-0.1"),
    pytest.param(0.5, np.eye(1), id="0.5-hessian"),
    pytest.param(-0.1, np.eye(1), id="-0.1-hessian"),
    pytest.param(0.5, np.array([[1e-3]]), id="0.5-small-hessian"),
    pytest.param(-0.1, np.array([[1e-3]]), id="-0.1-small-hessian"),
])
def test_hull_violation_with_warm_start(lam0, hessian0):
    # a carried positive definite Hessian serves only the first step, so
    # the hull test still sees the multiplier run off
    ds = Dataset(np.ones((2, 1)), np.array([2.0, 4.0]), np.ones(2))
    G = dense_g(ds, CFG, np.zeros(1))
    assert np.all(1.0 + G @ np.array([lam0]) > 0.5)
    with pytest.raises(HullViolationError):
        solve_lambda_exact(ds, CFG, np.zeros(1),
                           warm=warm_state([lam0], hessian0))


def test_sweep_carried_hessian_saves_one_per_cell(hessians_formed):
    # d2 design, 2000 x 10, about 20% missing: an 8-cell sweep that carries
    # the Hessian forms at least cells - 1 fewer Hessians than solving each
    # cell's ratio from the previous multiplier alone
    beta0 = np.zeros(10)
    beta0[[2, 4, 6]] = [1.0, 2.0, -1.0]
    ds = missing_d2_ds(5, 2000, 10, beta0)
    cfg = ModelConfig(tau=0.25)
    grid = [a * ds.n ** (-5.0 / 6.0) for a in range(1, 9)]
    _, records = bic_sweep(ds, cfg, 2.5, grid)
    carried = hessians_formed[0]
    assert len(records) == len(grid)
    assert all(r.ratio_method == "exact" for r in records)
    hessians_formed[0] = 0
    warm, iterations = None, 0
    for rec in records:
        before = hessians_formed[0]
        st = solve_lambda_exact(ds, cfg, rec.beta,
                                warm=None if warm is None
                                else replace(warm, hessian=None))
        warm, iterations = st, iterations + st.iterations
        assert hessians_formed[0] - before == st.iterations - 1
    assert hessians_formed[0] - carried >= len(grid) - 1
    assert sum(r.multiplier_iterations for r in records) <= iterations


def test_sweep_predicted_start_forms_fewer_hessians(hessians_formed):
    # the sweep above: starting each warm cell from the multiplier predicted
    # along the eta path forms fewer Hessians than starting it from the
    # last exact state alone (14 against 18 here: the cold first cell forms
    # 7, and every predicted warm cell one)
    beta0 = np.zeros(10)
    beta0[[2, 4, 6]] = [1.0, 2.0, -1.0]
    ds = missing_d2_ds(5, 2000, 10, beta0)
    cfg = ModelConfig(tau=0.25)
    grid = [a * ds.n ** (-5.0 / 6.0) for a in range(1, 9)]
    _, records = bic_sweep(ds, cfg, 2.5, grid)
    predicted = hessians_formed[0]
    assert all(r.ratio_method == "exact" for r in records)
    hessians_formed[0] = 0
    warm, iterations = None, []
    for rec in records:
        warm = solve_lambda_exact(ds, cfg, rec.beta, warm=warm)
        iterations.append(warm.iterations)
    carried = hessians_formed[0]
    assert predicted < carried
    assert (predicted, carried) == (14, 18)
    assert sum(r.multiplier_iterations for r in records) < sum(iterations)


def predicted_instance():
    # a solve at beta warm-started from the state at a nearby beta, with
    # the Newton systems it solves recorded
    ds, cfg, beta, cold = warm_instance()
    near = solve_lambda_exact(ds, cfg, beta + 0.01)
    return ds, cfg, beta, cold, near


def recorded_solve(ds, cfg, beta, **kwargs):
    systems = []

    def recording(H, grad):
        systems.append((np.array(H), np.array(grad)))
        return solve_spd(H, grad)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(el, "solve_spd", recording)
        return solve_lambda_exact(ds, cfg, beta, **kwargs), systems


def test_lambda_exact_infeasible_prediction_halves_toward_the_carried_one(
        hessians_formed):
    # a prediction that takes a factor below 1/n is halved back toward the
    # carried multiplier, as a Newton step is; the first step starts there
    # with the carried Hessian, and no cold solve follows
    ds, cfg, beta, cold, near = predicted_instance()
    G = dense_g(ds, cfg, beta)
    direction = -40.0 * cold.lam
    assert np.min(1.0 + G @ (near.lam + direction)) <= 1.0 / ds.n
    size = 1.0
    while not np.all(1.0 + G @ (near.lam + size * direction) > 1.0 / ds.n):
        size *= 0.5
    assert size < 0.5
    start = near.lam + size * direction
    hessians_formed[0] = 0
    st, systems = recorded_solve(ds, cfg, beta, warm=near,
                                 predicted=near.lam + direction)
    H, grad = systems[0]
    np.testing.assert_array_equal(H, near.hessian)
    np.testing.assert_allclose(
        grad, (G / (1.0 + G @ start)[:, None]).sum(axis=0) / ds.n,
        rtol=1e-10, atol=1e-14)
    assert st.iterations >= 2
    # one attempt: each step but the first forms its Hessian
    assert hessians_formed[0] == st.iterations - 2 == len(systems) - 1
    np.testing.assert_allclose(st.lam, cold.lam, rtol=0, atol=1e-9)
    assert st.ratio == pytest.approx(cold.ratio, rel=1e-12)


@pytest.mark.parametrize("prediction", [
    pytest.param(lambda lam: np.full_like(lam, np.inf), id="inf"),
    pytest.param(lambda lam: np.full_like(lam, np.nan), id="nan"),
    pytest.param(lambda lam: np.full_like(lam, 1e300), id="overflow"),
    pytest.param(lambda lam: lam - 1e25 * np.abs(lam).max(), id="far"),
])
def test_lambda_exact_unusable_prediction_keeps_the_carried_start(prediction):
    # a prediction whose factors are not finite, or that no halving brings
    # above 1/n, leaves the start at the carried multiplier, silently
    ds, cfg, beta, _, near = predicted_instance()
    carried, carried_systems = recorded_solve(ds, cfg, beta, warm=near)
    st, systems = recorded_solve(ds, cfg, beta, warm=near,
                                 predicted=prediction(near.lam))
    assert_same_state(st, carried, ds, cfg, beta)
    assert st.iterations == carried.iterations
    for (H, grad), (H0, grad0) in zip(systems, carried_systems, strict=True):
        np.testing.assert_array_equal(H, H0)
        np.testing.assert_array_equal(grad, grad0)


def test_lambda_exact_prediction_needs_a_warm_start():
    # a cold solve ignores the prediction
    ds, cfg, beta, cold, near = predicted_instance()
    for warm in (None, warm_state(np.zeros(4), near.hessian)):
        st = solve_lambda_exact(ds, cfg, beta, warm=warm, predicted=near.lam)
        assert_same_state(st, cold, ds, cfg, beta)
        assert st.iterations == cold.iterations


@pytest.mark.parametrize("failing_call", [1, 2])
def test_lambda_exact_singular_warm_step_retries_from_zero(monkeypatch,
                                                           failing_call):
    # a Newton system of the warm attempt that cannot be solved ends that
    # attempt like any other failure: the cold solve gives the state, and
    # the iterations of both attempts are counted
    ds, cfg, beta, cold = warm_instance()
    warm = solve_lambda_exact(ds, cfg, beta + 0.01)
    assert solve_lambda_exact(ds, cfg, beta, warm=warm).iterations \
        > failing_call
    calls = [0]

    def failing_once(H, grad):
        calls[0] += 1
        if calls[0] == failing_call:
            raise SingularMatrixError("forced")
        return solve_spd(H, grad)

    monkeypatch.setattr(el, "solve_spd", failing_once)
    st = solve_lambda_exact(ds, cfg, beta, warm=warm)
    assert_same_state(st, cold, ds, cfg, beta)
    assert st.iterations == failing_call + cold.iterations


def one_row_ds():
    # x = 1, tau = 1/2: the one g equals 1 at beta = 0, and the floor 1/n is
    # 1, the factor the cold start begins at
    ds = Dataset(np.ones((1, 1)), np.array([2.0]), np.ones(1))
    assert dense_g(ds, CFG, np.zeros(1)).tolist() == [[1.0]]
    return ds


def reversed_step(H, grad):
    # every trial along it lowers the one factor below the floor 1
    return -solve_spd(H, grad)


def infinite_step(H, grad):
    return np.full_like(grad, np.inf)


@pytest.mark.parametrize("step, error, message", [
    pytest.param(reversed_step, HullViolationError,
                 "no multiplier step keeps", id="halving"),
    pytest.param(infinite_step, NoConvergenceError, "non-finite", id="finite"),
])
def test_lambda_exact_failed_steps_raise(monkeypatch, step, error, message):
    ds = one_row_ds()
    pen = PenaltyConfig(eta=0.0, gamma=1.0, pilot=np.ones(1))
    expected = inference.el_ratio(ds, CFG, np.zeros(1))
    monkeypatch.setattr(el, "solve_spd", step)
    with pytest.raises(error, match=message):
        solve_lambda_exact(ds, CFG, np.zeros(1))
    # the penalized ratio falls back to the closed-form multiplier
    value, method, state = penalized_ratio(ds, CFG, pen, np.zeros(1))
    assert (value, method) == expected
    assert method == "closed_form" and state is None
