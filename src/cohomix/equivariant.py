"""Equivariant classes through their fixed-point restrictions.

For a circle action with isolated fixed points, an equivariant cohomology
class is pinned down by one polynomial in the generator v per fixed point,
and after inverting v the restriction map becomes an isomorphism onto the
direct sum of Laurent rings.  Classes here are stored exactly that way:
a support list of fixed points and one Laurent polynomial each.

The rank check below is the computational content of that isomorphism: the
Schur classes restrict to rows (numeric Schur value) * v^|mu|, and full
rank of the numeric evaluation matrix over the fixed set certifies
surjectivity after localization.
"""

from fractions import Fraction
from operator import index

from .algebra import Partition, _fraction, _terms_str, schur_evaluate
from .errors import UnknownFixedPoint
from .filtration import box_of, check_fits, schur_rank_steps


class LaurentPolynomial:
    """Finite Fraction-coefficient combination of integer powers of v,
    negative exponents allowed.  A coefficient, a value of v or a scalar
    is an int or a Fraction; any other, a float or a str, raises
    TypeError."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for e, c in (coeffs or {}).items():
            c = _fraction(c)
            if c != 0:
                clean[index(e)] = c
        self.coeffs = clean

    @classmethod
    def constant(cls, c):
        return cls({0: c})

    @classmethod
    def monomial(cls, coeff, exponent):
        return cls({exponent: coeff})

    def is_zero(self):
        return not self.coeffs

    def is_polynomial(self):
        """True when no negative power of v appears."""
        return all(e >= 0 for e in self.coeffs)

    def coefficient(self, e):
        return self.coeffs.get(e, Fraction(0))

    def __add__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return LaurentPolynomial(out)

    def __neg__(self):
        return LaurentPolynomial({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPolynomial):
            other = _fraction(other)
            return LaurentPolynomial({e: c * other for e, c in self.coeffs.items()})
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
        return LaurentPolynomial(out)

    __rmul__ = __mul__

    def __call__(self, v):
        v = _fraction(v)
        return sum((c * v ** e for e, c in self.coeffs.items()), Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __str__(self):
        return _terms_str(sorted(self.coeffs.items(), reverse=True), "v")

    def __repr__(self):
        return "LaurentPolynomial(%r)" % (self.coeffs,)


class EquivariantClass:
    """A localized equivariant class: one Laurent value per fixed point of
    the support."""

    __slots__ = ("support", "values")

    def __init__(self, support, values):
        self.support = tuple(support)
        self.values = tuple(values)
        if len(self.support) != len(self.values):
            raise ValueError("one value per fixed point")

    def value_at(self, point):
        try:
            return self.values[self.support.index(point)]
        except ValueError:
            raise UnknownFixedPoint("point %s is not in the support" % (point,)) from None

    def __mul__(self, other):
        """Pointwise product over the intersection of the supports, kept in
        the order of the left factor."""
        if not isinstance(other, EquivariantClass):
            other = _fraction(other)
            return EquivariantClass(self.support, tuple(v * other for v in self.values))
        common = [pt for pt in self.support if pt in other.support]
        return EquivariantClass(
            tuple(common),
            tuple(self.value_at(pt) * other.value_at(pt) for pt in common),
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, EquivariantClass):
            return NotImplemented
        return self.support == other.support and self.values == other.values

    def __hash__(self):
        return hash((self.support, self.values))

    def __repr__(self):
        return "EquivariantClass(%d points)" % len(self.support)


def eq_schur_class(mu, points, ws):
    """The equivariant Schur class of mu restricted to fixed points: at I
    the value is s_mu(weights at I) * v^|mu|.  Scaling every weight by v
    turns the numeric Schur value into a homogeneous degree-|mu| one, which
    is where the v-power comes from."""
    mu = mu if isinstance(mu, Partition) else Partition(mu)
    points = list(points)
    check_fits(mu, box_of(points))
    values = []
    for pt in points:
        s = schur_evaluate(mu, ws.at(pt.indices))
        values.append(LaurentPolynomial.monomial(s, mu.size))
    return EquivariantClass(tuple(points), tuple(values))


def restrict_class(cls, sub):
    """Coordinate projection of a class onto a sub-list of its support.
    Points outside the support raise UnknownFixedPoint."""
    sub = tuple(sub)
    return EquivariantClass(sub, tuple(cls.value_at(pt) for pt in sub))


def localization_rank_check(points, ws):
    """Rank over the rational-function field in v of the matrix of
    eq_schur_class values over all partitions in the points' box (box_of),
    and whether it is full.

    Each row is a numeric row scaled by a single power of v, so the rank
    equals the numeric rank of the ordinary evaluation matrix, which is the
    sum of the rank jumps of schur_rank_steps; that scan stops at the row
    that fills the rank.  An empty point list gives (0, True).
    """
    points = list(points)
    if not points:
        return 0, True
    rank = sum(len(grew) for grew in schur_rank_steps(points, ws))
    return rank, rank == len(points)
