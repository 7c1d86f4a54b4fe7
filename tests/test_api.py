"""The public surface of the package: seel.__all__ is pinned, and helpers
that only the tests need live in tests/oracles.py, not in seel."""

import importlib
import inspect
import pkgutil
from dataclasses import fields

import numpy as np
import pytest

import seel
from seel import cli, el, model, numkit
from seel.el import ELState, lambda_approx, solve_lambda_exact
from seel.estimators import FitResult, expectile_fit
from seel.inference import bic_sweep, penalized_ratio, wilks_test
from seel.kernels import Kernel
from seel.model import Dataset, Evaluation, ModelConfig
from seel.simulate import SimReport

PUBLIC = {
    # classes
    "BicRecord", "Dataset", "ELState", "FitResult", "Kernel", "ModelConfig",
    "PenaltyConfig", "RngStream", "SimConfig", "SimReport", "TestReport",
    # exceptions
    "CsvSchemaError", "DegenerateSampleError", "EstimationError",
    "HullViolationError", "InsufficientCompleteCasesError",
    "InvalidProbabilityError", "LogDomainError", "NoConvergenceError",
    "NonFiniteError", "OneSidedSampleError", "RankDeficientError",
    "SingularMatrixError",
    # functions
    "adaptive_weights", "bic_sweep", "chi2_quantile", "chi2_sf",
    "el_ratio", "el_ratio_approx", "el_ratio_exact", "empirical_tau",
    "expectile_fit", "fit_a1", "fit_a2", "fit_l1", "fit_l2", "lambda_approx",
    "moments", "penalized_ratio", "pilot_estimate", "preset_config",
    "run_monte_carlo", "solve_lambda_exact", "solve_spd", "wilks_test",
    "zero_expectile_tau",
    # submodules bound by the imports above
    "el", "errors", "estimators", "inference", "kernels", "model", "numkit",
    "simulate",
}

# names that only tests called; the per-row forms are in tests/oracles.py
REMOVED = (
    "g_raw", "g_smooth", "g_smooth_jacobian", "g_smooth_hessian_slice",
    "psi_h", "expectile_loss", "kernel_pdf", "kernel_cdf",
    "kernel_pdf_derivative", "smoothed_indicator", "NonpositiveBandwidthError",
    "draw_normal", "draw_exponential", "draw_chi2_1", "y_safe",
    # the sweep builds its records from the solver's own ELState
    "CarriedMultiplier", "bic",
)


def test_public_names_pinned():
    assert sorted(seel.__all__) == sorted(PUBLIC)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_not_importable(name):
    with pytest.raises(ImportError):
        exec(f"from seel import {name}", {})
    for info in pkgutil.iter_modules(seel.__path__):
        module = importlib.import_module(f"seel.{info.name}")
        assert not hasattr(module, name), f"seel.{info.name}.{name}"


def test_removed_members_stay_removed():
    assert not hasattr(Kernel, "pdf_prime")
    assert not hasattr(Kernel, "smoothed_indicator")
    # the observed rows are Dataset.complete_cases(); no row pass reads a
    # zero-filled response vector
    assert not hasattr(Dataset, "y_safe")
    # non-convergence raises, so no result carries a converged flag
    assert "converged" not in {f.name for f in fields(FitResult)}
    assert "converged" not in {f.name for f in fields(ELState)}
    # the degrees of freedom follow from the (sub)model
    assert "df" not in inspect.signature(wilks_test).parameters
    # the sweep always fits its own pilot
    assert "pilot" not in inspect.signature(bic_sweep).parameters
    # one method gives the CSV header and row from one column list
    assert not hasattr(SimReport, "csv_header")
    assert not hasattr(SimReport, "csv_row")
    # chi2_sf evaluates the upper incomplete gamma itself
    assert not hasattr(numkit, "gamma_q")
    # one finder locates the first bad line of a CSV
    assert not hasattr(cli, "_first_rejected")
    assert not hasattr(cli, "_is_float")
    # the implied probabilities are a test oracle, not a solver output
    assert "probs" not in {f.name for f in fields(ELState)}
    # a warm start is the ELState of a nearby solve, and tests count
    # Hessians through el._scaled_gram
    assert [f.name for f in fields(ELState)] == ["lam", "ratio", "iterations",
                                                 "hessian"]
    solver = inspect.signature(solve_lambda_exact).parameters
    assert "warm" in solver
    assert not {"lam0", "hessian0"} & set(solver)
    ratio = inspect.signature(penalized_ratio).parameters
    assert "warm" in ratio and "carry" not in ratio


def test_test_only_api_stays_removed():
    # the mean Jacobian is tests/oracles.py's mean_jacobian; moments gives
    # (gbar, S)
    assert not hasattr(Evaluation, "J")
    # the solver tolerances and budgets are module constants, which tests
    # set with monkeypatch, and reports are always indented by 2
    for func, gone in ((solve_lambda_exact, {"tol", "max_iter"}),
                       (expectile_fit, {"tol", "max_iter"}),
                       (SimReport.to_json, {"indent"})):
        assert not gone & set(inspect.signature(func).parameters)


def test_lambda_approx_makes_no_moments_call(monkeypatch):
    calls = []
    moments = model.moments

    def counted(*args):
        calls.append(1)
        return moments(*args)

    monkeypatch.setattr(model, "moments", counted)
    monkeypatch.setattr(el, "moments", counted)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 2))
    ds = Dataset(X, X @ [1.0, -1.0] + rng.standard_normal(40), np.ones(40))
    lam = lambda_approx(ds, ModelConfig(tau=0.4), np.zeros(2))
    assert lam.shape == (2,) and calls == []


def test_fit_result_holds_beta_iterations_and_trace():
    # the multiplier at a fit is el.lambda_approx(ds, cfg, fit.beta), and
    # the active set follows from beta
    assert [f.name for f in fields(FitResult)] == ["beta", "iterations", "trace"]
    fit = FitResult(beta=np.array([0.0, 1.5, 0.0, -2.0]), iterations=3)
    np.testing.assert_array_equal(fit.active_set, np.flatnonzero(fit.beta))
    with pytest.raises(AttributeError):
        fit.active_set = np.array([0])
