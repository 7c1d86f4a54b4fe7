"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Desk-scale Monte Carlo settings (M = 200) with fixed seeds;
total runtime is well under the ten-minute budget.
"""

import numpy as np

from oracles import (dense_g, g_smooth, g_smooth_hessian_slice,
                     g_smooth_jacobian, mean_jacobian)
from seel.cli import main
from seel.el import el_ratio_approx, lambda_approx, solve_lambda_exact
from seel.errors import HullViolationError
from seel.estimators import fit_a1, fit_a2, fit_l1, fit_l2, pilot_estimate
from seel.model import Dataset, ModelConfig, PenaltyConfig, moments
from seel.numkit import RngStream, chi2_quantile, gamma_p
from seel.simulate import SimConfig, preset_config, run_monte_carlo


def report(criterion, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} [{status}] {name} {detail}")
    assert ok, f"criterion {criterion} failed: {name} {detail}"


def table1_cell(n, seed=2, reps=200):
    sc = SimConfig(n=n, p=5, beta0=[0.0, 0.0, 1.0, 0.0, 2.0], design="d1",
                   errors="shifted_exp", missing="complete",
                   replications=reps, algorithms=("a2", "l2"), seed=seed)
    return run_monte_carlo(sc)


def test_criterion_1_table1_desk_scale():
    # The A2 error norm at n=100 concentrates at 0.329 (the exact least-
    # squares sampling mean 1.5 * sqrt(5/94) * E[chi_5]/sqrt(5) under the
    # pinned error convention), at the upper edge of the 0.28 +/- 0.05 band.
    r100 = table1_cell(100)
    r500 = table1_cell(500)
    checks = [
        ("A2 norm n=100", abs(r100.mean_norm["a2"] - 0.28) <= 0.05),
        ("A2 norm n=500", abs(r500.mean_norm["a2"] - 0.13) <= 0.03),
        ("CP n=100", abs(r100.cp - 0.89) <= 0.05),
        ("CP n=500", abs(r500.cp - 0.95) <= 0.04),
        ("L2 zero-selection n=100", abs(r100.zero_selection["l2"] - 0.91) <= 0.05),
        ("L2 zero-selection n=500", abs(r500.zero_selection["l2"] - 0.97) <= 0.03),
    ]
    detail = (f"norms {r100.mean_norm['a2']:.3f}/{r500.mean_norm['a2']:.3f} "
              f"cp {r100.cp:.3f}/{r500.cp:.3f} "
              f"zero {r100.zero_selection['l2']:.3f}/{r500.zero_selection['l2']:.3f}")
    report(1, "table1 preset desk-scale metrics",
           all(ok for _, ok in checks),
           detail + " | " + ", ".join(n for n, ok in checks if not ok))


def test_criterion_2_algorithm_pair_equivalence():
    n, p = 500, 5
    beta0 = np.array([0.0, 0.0, 1.0, 0.0, 2.0])
    cfg = ModelConfig(tau=0.5)
    eta = float(n) ** (-5.0 / 6.0)
    agree_norm = 0
    agree_sets = 0
    for m in range(50):
        rng = RngStream(1000, m)
        X = rng.normals(n * p).reshape(n, p)
        y = X @ beta0 + (rng.exponentials(1.5, n) - 1.5)
        ds = Dataset(X, y, np.ones(n, dtype=np.uint8))
        b1 = fit_a1(ds, cfg).beta
        b2 = fit_a2(ds, cfg).beta
        if np.linalg.norm(b1 - b2) <= 10 * cfg.nu:
            agree_norm += 1
        pilot = pilot_estimate(ds, cfg, mode="split")
        pen = PenaltyConfig(eta=eta, gamma=2.5, pilot=pilot)
        s1 = fit_l1(ds, cfg, pen).active_set.tolist()
        s2 = fit_l2(ds, cfg, pen).active_set.tolist()
        if s1 == s2:
            agree_sets += 1
    report(2, "A1/A2 and L1/L2 pair equivalence",
           agree_norm == 50 and agree_sets >= 48,
           f"norm agreement {agree_norm}/50, identical sets {agree_sets}/50")


def test_criterion_3_wilks_calibration():
    n, p, M = 1000, 5, 500
    beta0 = np.array([0.0, 0.0, 1.0, 0.0, 2.0])
    cfg = ModelConfig(tau=0.5)
    stats = np.empty(M)
    for m in range(M):
        rng = RngStream(300, m)
        X = rng.normals(n * p).reshape(n, p)
        y = X @ beta0 + rng.normals(n)
        ds = Dataset(X, y, np.ones(n, dtype=np.uint8))
        stats[m] = el_ratio_approx(ds, cfg, beta0)
    stats.sort()
    F = np.array([gamma_p(p / 2.0, s / 2.0) for s in stats])
    ks = max(np.max(np.abs(np.arange(1, M + 1) / M - F)),
             np.max(np.abs(F - np.arange(M) / M)))
    rejection = float(np.mean(stats > chi2_quantile(0.95, p)))
    report(3, "Wilks calibration at the truth",
           ks <= 0.08 and abs(rejection - 0.05) <= 0.025,
           f"KS {ks:.4f}, rejection {rejection:.4f}")


def test_criterion_4_sparsity_oracle():
    sc = preset_config("fig-selection", n=2000, replications=200, seed=7)
    r = run_monte_carlo(sc)
    rate = r.support_recovery["l2"]
    report(4, "exact-support recovery at n=2000",
           rate >= 0.95, f"rate {rate:.3f}, failures {r.replications_failed}")


def test_criterion_5_missing_data_parity():
    cps = {}
    for missing in ("complete", "constant"):
        sc = SimConfig(n=1000, p=10, beta0=[0, 0, 1, 0, 2, 0, -1, 0, 0, 0.0],
                       design="d2", errors="shifted_exp", missing=missing,
                       pi=0.8, replications=200, algorithms=(), seed=0)
        cps[missing] = run_monte_carlo(sc).cp
    diff = abs(cps["complete"] - cps["constant"])
    report(5, "coverage parity under 20% missingness",
           diff <= 0.03,
           f"complete {cps['complete']:.3f}, missing {cps['constant']:.3f}")


def test_criterion_6_inner_solver_oracle():
    # the agreement bound |lam_e - lam_a| <= C ||gbar||^2 is checked through
    # its empirical content: the log-log regression of the gap on ||gbar||
    # has slope ~2 (clearly superlinear), and the fitted per-instance C sits
    # in a stable band across the instance population
    gen = np.random.default_rng(600)
    cfg = ModelConfig(tau=0.5, h=0.4)
    checked = 0
    residual_ok = True
    log_g, log_e, ratios = [], [], []
    while checked < 100:
        n = int(gen.integers(10, 21))
        p = int(gen.integers(1, 3))
        X = gen.uniform(-2, 2, size=(n, p))
        beta = gen.uniform(-1, 1, size=p)
        y = X @ beta + gen.standard_normal(n)
        ds = Dataset(X, y, np.ones(n, dtype=np.uint8))
        gbar, S = moments(ds, cfg, beta)
        if np.linalg.eigvalsh(S).min() < 0.05:
            continue
        try:
            st = solve_lambda_exact(ds, cfg, beta)
        except HullViolationError:
            continue
        G = dense_g(ds, cfg, beta)
        resid = np.linalg.norm((G / (1.0 + G @ st.lam)[:, None]).mean(axis=0))
        residual_ok &= resid <= 1e-8
        err = np.linalg.norm(st.lam - lambda_approx(ds, cfg, beta))
        norm2 = float(gbar @ gbar)
        if norm2 > 1e-10 and err > 1e-14:
            log_g.append(np.log(np.sqrt(norm2)))
            log_e.append(np.log(err))
            ratios.append(err / norm2)
        checked += 1
    A = np.vstack([log_g, np.ones(len(log_g))]).T
    slope = np.linalg.lstsq(A, np.array(log_e), rcond=None)[0][0]
    c_stable = (1.5 <= slope <= 3.5
                and np.median(ratios) < 15.0
                and np.quantile(ratios, 0.9) < 100.0)
    # hand-checkable instance: ghat in {-1, 2}
    ds = Dataset(np.ones((2, 1)), np.array([-2.0, 4.0]), np.ones(2))
    st = solve_lambda_exact(ds, ModelConfig(tau=0.5, h=0.1), np.zeros(1))
    hand_ok = (abs(st.lam[0] - 0.25) < 1e-6
               and abs(st.ratio - 0.23556607131276697) < 1e-6)
    report(6, "inner solver matches oracle",
           residual_ok and c_stable and hand_ok,
           f"slope {slope:.2f}, median C {np.median(ratios):.2f}, "
           f"q90 C {np.quantile(ratios, 0.9):.1f}")


def test_criterion_7_derivative_correctness():
    gen = np.random.default_rng(700)
    # oracle: the per-row forms of tests/oracles.py; production: the mean
    # Jacobian from the per-row scalars of seel.model.evaluate (the fits'
    # Newton matrix at lambda = 0, negated) against differences of the gbar
    # of seel.model.moments
    jac_err = hess_err = moments_err = 0.0
    for _ in range(120):
        p = int(gen.integers(1, 4))
        x = gen.uniform(-2, 2, size=p)
        y = float(gen.uniform(-3, 3))
        beta = gen.uniform(-1.5, 1.5, size=p)
        cfg = ModelConfig(tau=float(gen.uniform(0.1, 0.9)),
                          h=float(gen.uniform(0.05, 0.8)))
        ds = Dataset(x[None, :], np.array([y]), np.ones(1))
        step = 1e-6
        J = g_smooth_jacobian(ds, 0, cfg, beta)
        Jm = mean_jacobian(ds, cfg, beta)
        fd = np.empty_like(J)
        fdm = np.empty_like(Jm)
        for k in range(p):
            e = np.zeros(p)
            e[k] = step
            fd[:, k] = (g_smooth(ds, 0, cfg, beta + e)
                        - g_smooth(ds, 0, cfg, beta - e)) / (2 * step)
            fdm[:, k] = (moments(ds, cfg, beta + e)[0]
                         - moments(ds, cfg, beta - e)[0]) / (2 * step)
        jac_err = max(jac_err, float(np.max(np.abs(J - fd))))
        moments_err = max(moments_err, float(np.max(np.abs(Jm - fdm))))
        j = int(gen.integers(0, p))
        H = g_smooth_hessian_slice(ds, 0, j, cfg, beta)
        step = 1e-5
        fdh = np.empty_like(H)
        for k in range(p):
            e = np.zeros(p)
            e[k] = step
            fdh[:, k] = (g_smooth_jacobian(ds, 0, cfg, beta + e)[j]
                         - g_smooth_jacobian(ds, 0, cfg, beta - e)[j]) / (2 * step)
        hess_err = max(hess_err, float(np.max(np.abs(H - fdh))))
    report(7, "derivatives match finite differences",
           jac_err < 1e-5 and hess_err < 1e-4 and moments_err < 1e-5,
           f"max jacobian err {jac_err:.2e}, max hessian err {hess_err:.2e}, "
           f"max moments J err {moments_err:.2e}")


def test_criterion_8_deterministic_reproducibility(tmp_path, capsys):
    args = ["simulate", "--preset", "table1", "--n", "150", "--reps", "6",
            "--seed", "17", "--dump"]
    outs = []
    for i, extra in enumerate(([], [], ["--workers", "2"])):
        out = tmp_path / f"run{i}"
        code = main(args + extra + ["--out", str(out)])
        capsys.readouterr()
        assert code == 0
        outs.append({name: (out / name).read_bytes()
                     for name in ("sim_report.json", "sim_cells.csv",
                                  "sim_dump.csv")})
    identical = outs[0] == outs[1] == outs[2]
    report(8, "byte-identical reruns, worker-count independent", identical)
