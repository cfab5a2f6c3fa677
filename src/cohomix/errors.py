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
    """A degree or size that does not fit: a negative degree or p_max, k < 1,
    a triple or torus action of another size than k, a presentation that is
    not homogeneous or has a nonpositive variable degree, or a basis order
    of nilpotent_matrix_on_Rk that is not a permutation of R_k's monomials."""


class BoxViolation(ValueError):
    """Raised by box_of on no fixed points, or on points of different
    Grassmannians."""


class InternalInvariantViolation(RuntimeError):
    """An internal cross-check failed (a zero tangent weight, say): a bug, not bad input."""
