"""Exception hierarchy shared by all fracrate modules."""


class FracrateError(Exception):
    """Base class for all package errors."""


class InvalidInputError(FracrateError, ValueError):
    """Arguments violate a documented precondition (bad grid, bad order, ...)."""


class RegularityError(FracrateError, ArithmeticError):
    """A singular integral failed to converge numerically."""


class DivergenceError(FracrateError, RuntimeError):
    """A simulated trajectory or a rate value became non-finite."""

    def __init__(self, message, first_bad_time=None):
        super().__init__(message)
        self.first_bad_time = first_bad_time


class TruncationError(FracrateError, RuntimeError):
    """Invariant-density mass escapes the truncated domain; enlarge L."""


class CenteringError(FracrateError, RuntimeError):
    """The drift fails the centering condition required by the cell problem."""

    def __init__(self, message, b_mean=None):
        super().__init__(message)
        self.b_mean = b_mean


class DegeneracyError(FracrateError, RuntimeError):
    """A matrix that must be invertible is singular beyond tolerance."""


class IllConditionedError(FracrateError, RuntimeError):
    """A linear solve exceeded the configured condition-number limit."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class AdmissibilityError(FracrateError, RuntimeError):
    """A path fails the near-zero weighted-regularity check."""


class ExperimentFailure(FracrateError, RuntimeError):
    """A Monte Carlo experiment could not produce an estimate."""


class ValidationFailure(FracrateError, RuntimeError):
    """A configuration failed a hard validation check."""
