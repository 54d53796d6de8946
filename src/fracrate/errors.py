"""Exception hierarchy shared by all fracrate modules."""


class FracrateError(Exception):
    """Base class for all package errors."""


class InvalidInputError(FracrateError, ValueError):
    """Arguments violate a documented precondition (bad grid, bad order, ...)."""


class RegularityError(FracrateError, ArithmeticError):
    """A singular integral failed to converge numerically."""


class DivergenceError(FracrateError, RuntimeError):
    """A simulated trajectory or a rate value became non-finite."""


class TruncationError(FracrateError, RuntimeError):
    """Invariant-density mass escapes the truncated domain; enlarge L."""


class CenteringError(FracrateError, RuntimeError):
    """The drift fails the cell problem's centering condition; ``b_mean`` is int b dmu."""

    def __init__(self, message, b_mean=None):
        super().__init__(message)
        self.b_mean = b_mean


class DegeneracyError(FracrateError, RuntimeError):
    """A matrix that must be invertible is singular beyond tolerance."""


class AdmissibilityError(FracrateError, RuntimeError):
    """A path fails the near-zero weighted-regularity check."""


class ExperimentFailure(FracrateError, RuntimeError):
    """A Monte Carlo experiment could not produce an estimate."""


class ValidationFailure(FracrateError, RuntimeError):
    """A configuration failed a hard validation check."""
