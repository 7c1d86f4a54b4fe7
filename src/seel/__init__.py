"""Smoothed expectile empirical likelihood estimation for linear models with
possibly missing responses: point estimation, adaptive-LASSO variable
selection, chi-square inference, BIC tuning and a Monte Carlo harness."""

from .el import (
    ELState,
    el_ratio_approx,
    el_ratio_exact,
    lambda_approx,
    solve_lambda_exact,
)
from .errors import (
    CsvSchemaError,
    DegenerateSampleError,
    EstimationError,
    HullViolationError,
    InsufficientCompleteCasesError,
    InvalidProbabilityError,
    LogDomainError,
    NoConvergenceError,
    NonFiniteError,
    OneSidedSampleError,
    RankDeficientError,
    SingularMatrixError,
)
from .estimators import (
    FitResult,
    adaptive_weights,
    expectile_fit,
    fit_a1,
    fit_a2,
    fit_l1,
    fit_l2,
    pilot_estimate,
)
from .inference import (
    BicRecord,
    TestReport,
    bic_sweep,
    el_ratio,
    empirical_tau,
    penalized_ratio,
    wilks_test,
    zero_expectile_tau,
)
from .kernels import Kernel
from .model import Dataset, ModelConfig, PenaltyConfig, moments
from .numkit import RngStream, chi2_quantile, chi2_sf, solve_spd
from .simulate import SimConfig, SimReport, preset_config, run_monte_carlo

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
