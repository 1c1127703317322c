"""Exception types shared across the package."""


class SgnsdpError(Exception):
    """Base class for all package errors."""


class NumericalError(SgnsdpError):
    """An eigensolver or factorization failed to produce a usable result."""

    def __init__(self, message, norm=None, order=None):
        super().__init__(message)
        self.norm = norm
        self.order = order


class InertiaViolation(SgnsdpError):
    """A retraction target lost the required inertia pattern.

    Callers inside a line search treat this as a rejected trial step.
    """


class InputError(SgnsdpError):
    """A document failed schema validation; `field` names the offender."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class LinearSolveFailure(SgnsdpError):
    """The regularized Gauss-Newton system could not be factorized."""


class NumericalInconsistency(SgnsdpError):
    """A quantity that is provably nonzero evaluated to zero."""


class LineSearchFailure(SgnsdpError):
    """Backtracking exhausted its budget without an acceptable step."""


class ConstructionFailure(SgnsdpError):
    """A randomized fixture generator ran out of retry attempts."""
