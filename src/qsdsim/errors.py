"""Exception types shared across the package.

The CLI maps these onto exit codes: invalid input (parameter, shape) and
a failed output write exit 1; a numerical failure (a trajectory's
degenerate state) exits 2.
IntegrationFailureError is raised only by the RK4 oracle
(master.integrate_master), which no CLI path runs.
"""


class QsdError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(QsdError, ValueError):
    """A scalar argument is out of its allowed range or non-finite."""


class ShapeError(QsdError, ValueError):
    """Array dimensions do not match the operation's contract."""


class OutputError(QsdError):
    """An output file could not be written to the end (a full disk, say)."""


class DegenerateStateError(QsdError, ArithmeticError):
    """A state vector has (numerically) zero norm and cannot be normalized."""


class IntegrationFailureError(QsdError, ArithmeticError):
    """An integrator left its validity envelope (trace drift, NaN, blow-up)."""
