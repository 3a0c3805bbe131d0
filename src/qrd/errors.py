"""Exception types shared across the package, and the one check of the order alpha.

Each class marks one failure category; the CLI maps categories to exit codes
(malformed input 2, parameter domain 3, channel whitelist 4).
"""

import math


class QrdError(Exception):
    """Base class for all package errors."""


class NotPSDError(QrdError):
    """Operator expected to be positive semidefinite is not."""


class DimMismatchError(QrdError):
    """Operands act on spaces of different dimension."""


class DimTooLargeError(QrdError):
    """Dimension exceeds the supported desk-scale bound."""


class ZeroOperatorError(QrdError):
    """Operator is (numerically) zero where a nonzero one is required."""


class BadAlphaError(QrdError):
    """Order parameter alpha outside the admissible range for the operation."""


class BadParamsError(QrdError):
    """Parameter combination outside the operation's domain."""


class SingularSigmaError(QrdError):
    """Second argument must be invertible for this operation."""


class SupportViolationError(QrdError):
    """Support inclusion required by the operation does not hold."""


class GenericityUndeterminedError(QrdError):
    """Spectral genericity test too close to zero to decide."""


class GenericityFailsError(QrdError):
    """Spectral genericity condition provably fails for this pair."""


class NoConvexWitnessError(QrdError):
    """No column of the reverse test lies in the convex hull of the others."""


class KindNotWhitelistedError(QrdError):
    """Divergence kind lacks the monotonicity needed for channel optimization."""


class MalformedInputError(QrdError):
    """Input file or matrix payload cannot be parsed into a valid object."""


def check_alpha(alpha: float, one: bool = True) -> None:
    """Raise BadAlphaError unless alpha is positive and finite and, where one is False, not 1."""
    if not 0.0 < alpha < math.inf or (alpha == 1.0 and not one):
        span = "positive and finite" if one else "in (0,1) or (1,inf)"
        raise BadAlphaError(f"alpha must be {span}, got {alpha}")
