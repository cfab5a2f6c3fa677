"""Exception types shared across the package.

Everything a caller can trigger with bad input derives from ValueError, so
the command line can map the whole family to one exit code.  Breakage of an
internal consistency check is InternalInvariantViolation and is never the
caller's fault.
"""


class InvalidDimensions(ValueError):
    """Dimension arguments outside their allowed range, e.g. k > n."""


class IndexOutOfRange(ValueError):
    """A 1-based index outside its grid."""


class NotNilpotent(ValueError):
    """Raised by jordan_type when no power of the matrix vanishes."""


class NotPolynomial(ValueError):
    """An exact polynomial division left a remainder."""


class ConditionViolated(ValueError):
    """A torus action failed one of its defining inequalities."""


class InvalidDegree(ValueError):
    """A graded degree where none exists (negative)."""


class BoxViolation(ValueError):
    """A partition does not fit in the required box."""


class InternalInvariantViolation(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""
