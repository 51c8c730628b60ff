"""Exception types shared across the package.

Everything derives from QnlError so callers can catch broadly; each class
also inherits the closest builtin so untargeted code fails sanely.
"""


class QnlError(Exception):
    pass


class InvalidDimension(QnlError, ValueError):
    """Dimension is not an integer >= 2."""


class DimensionMismatch(QnlError, ValueError):
    """Operands built for different local dimensions."""


class NotHermitian(QnlError, ValueError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotNormalizable(QnlError, ValueError):
    """Coefficient vector has (numerically) zero norm."""


class NegativeCoefficient(QnlError, ValueError):
    """Schmidt coefficients must be nonnegative."""


class RankTooLarge(QnlError, ValueError):
    """Requested Schmidt rank does not fit the local dimension."""


class StrengthOutOfRange(QnlError, ValueError):
    """Noise strength must lie in [0, 1]."""


class UnsupportedChannel(QnlError, ValueError):
    """Channel kind not defined for the requested operation."""


class NoDetectionInRange(QnlError, RuntimeError):
    """Criterion never fires anywhere in the strength interval."""


class NonMonotonic(QnlError, RuntimeError):
    """Detection margin changes sign more than once over the sweep."""


class NoViolation(QnlError, RuntimeError):
    """Bell value never exceeds the local-realism bound."""
