"""Exception hierarchy shared by the fitting, inference and CLI layers."""


class EstimationError(Exception):
    """Base class for numerical failures raised by this package."""


class SingularMatrixError(EstimationError):
    """A linear system could not be solved, even after ridge jitter."""


class HullViolationError(EstimationError):
    """Zero lies outside the convex hull of the estimating functions."""


class NoConvergenceError(EstimationError):
    """An iterative solver hit its iteration cap or diverged."""


class LogDomainError(EstimationError):
    """A log-likelihood term 1 + lambda'g_i fell outside (0, inf)."""


class RankDeficientError(EstimationError):
    """Complete-case design matrix is not of full column rank."""


class InsufficientCompleteCasesError(EstimationError):
    """Fewer observed responses than parameters to estimate."""


class NonFiniteError(EstimationError):
    """A moment or multiplier overflowed: the data's scale leaves the float
    range (for example responses above about 1e154, whose squares overflow)."""


class DegenerateSampleError(EstimationError):
    """Sample statistic undefined (e.g. zero mean absolute deviation)."""


class OneSidedSampleError(EstimationError):
    """A sample does not take both signs; no interior expectile level exists."""


class CsvSchemaError(ValueError):
    """Input file does not conform to the dataset CSV schema: bad input, not
    a numerical failure, so no EstimationError handler takes it."""


class InvalidProbabilityError(ValueError):
    """Probability argument outside (0, 1)."""

