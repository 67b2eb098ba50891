"""Exception types shared across the package.

The CLI maps these onto exit codes: invalid input (parameter, shape)
exits 1; numerical failures (degenerate state, integration breakdown)
exit 2.
"""


class QsdError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(QsdError, ValueError):
    """A scalar argument is out of its allowed range or non-finite."""


class ShapeError(QsdError, ValueError):
    """Array dimensions do not match the operation's contract."""


class DegenerateStateError(QsdError, ArithmeticError):
    """A state vector has (numerically) zero norm and cannot be normalized."""


class IntegrationFailureError(QsdError, ArithmeticError):
    """An integrator left its validity envelope (trace drift, NaN, blow-up)."""
