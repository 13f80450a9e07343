"""Exception types shared across the package."""


class QptError(Exception):
    """Base class for all qptomo errors."""


class DimensionError(QptError):
    """Operands have incompatible or non-square shapes."""


class DomainError(QptError):
    """A value lies outside the mathematically valid domain."""


class SingularMatrixError(QptError):
    """A matrix required to be positive definite is (numerically) singular."""


class LapackError(QptError):
    """A LAPACK routine (eigendecomposition, SVD, least squares) did not converge.

    Unlike :class:`ConvergenceError` it carries no iterate: the numbers
    the routine was given are not a usable result.
    """


class ConvergenceError(QptError):
    """An iteration cap was hit before the stopping rule fired.

    Carries the last iterate and diagnostics so callers can salvage a
    best-effort result. ``status`` names the failure in reports and CSV rows.
    """

    status = "iteration_cap"

    def __init__(self, message, last_iterate=None, residual=None, report=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual
        self.report = report


class StalledStepError(QptError):
    """A line search (step size or dilution) found no acceptable step."""

    status = "stalled"

    def __init__(self, message, last_iterate=None, report=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.report = report
