"""Grassmannian fixed points, cells, and cohomology presentations.

The torus with distinct weights a_1 > ... hanging off a basis of V acts on
Gr(n-k, V) with one fixed point per size-(n-k) index set.  The Poincare
polynomial comes out of either the minus-cell dimensions or the
regular-sequence product formula; both routes equal the Gaussian binomial.

The presentation side realizes the cohomology ring as generators w_{i,j},
1 <= i <= n-k, 1 <= j <= k, modulo one relation per generator, with an
equivariant lift over a degree-one class v.
"""

from fractions import Fraction
from itertools import combinations

from .algebra import IntegerPolynomial, MultiPoly, RowSpace
from .errors import IndexOutOfRange, InvalidDegree, InvalidDimensions, NotPolynomial


class WeightSystem:
    """Distinct integer torus weights, one per basis vector of V."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        ws = tuple(int(a) for a in weights)
        if not ws:
            raise InvalidDimensions("need at least one weight")
        if len(set(ws)) != len(ws):
            raise InvalidDimensions("weights must be pairwise distinct: %r" % (ws,))
        self.weights = ws

    @property
    def n(self):
        return len(self.weights)

    @classmethod
    def principal(cls, n):
        """The weights n-1, n-3, ..., 1-n."""
        return cls(tuple(n - 1 - 2 * i for i in range(n)))

    def at(self, indices):
        """Weights at the given 1-based indices."""
        for i in indices:
            if not 1 <= i <= self.n:
                raise IndexOutOfRange("index %d outside 1..%d" % (i, self.n))
        return tuple(self.weights[i - 1] for i in indices)

    def __repr__(self):
        return "WeightSystem(%r)" % (self.weights,)


class FixedSubspace:
    """A torus-fixed point of Gr(n-k, V): a coordinate subspace spanned by
    the basis vectors at `indices` (1-based, strictly increasing)."""

    __slots__ = ("indices", "n")

    def __init__(self, indices, n):
        idx = tuple(int(i) for i in indices)
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("indices must be strictly increasing: %r" % (idx,))
        if idx and not (1 <= idx[0] and idx[-1] <= n):
            raise IndexOutOfRange("indices %r outside 1..%d" % (idx, n))
        self.indices = idx
        self.n = n

    @property
    def dim(self):
        return len(self.indices)

    def complement(self):
        inside = set(self.indices)
        return tuple(j for j in range(1, self.n + 1) if j not in inside)

    def __eq__(self, other):
        if not isinstance(other, FixedSubspace):
            return NotImplemented
        return self.indices == other.indices and self.n == other.n

    def __hash__(self):
        return hash((self.indices, self.n))

    def __repr__(self):
        return "FixedSubspace(%r, n=%d)" % (self.indices, self.n)

    def __str__(self):
        return "(%s)" % ", ".join(str(i) for i in self.indices)


def enumerate_fixed_subspaces(n, k):
    """All fixed points of Gr(n-k, V), dim V = n, in lexicographic order of
    index sets.  k = 0 and k = n are legal degenerate cases with a single
    fixed point (the whole space resp. the origin)."""
    if not 0 <= k <= n:
        raise InvalidDimensions("need 0 <= k <= n, got n=%d k=%d" % (n, k))
    return [FixedSubspace(c, n) for c in combinations(range(1, n + 1), n - k)]


def minus_cell_dimension(point, ws):
    """Dimension of the cell flowing into the fixed point under t -> 0:
    the number of pairs (i in I, j not in I) with a_j < a_i."""
    inside = point.indices
    outside = point.complement()
    ai = ws.at(inside)
    aj = ws.at(outside)
    return sum(1 for x in ai for y in aj if y - x < 0)


def plus_cell_dimension(point, ws):
    """Dimension of the cell flowing in under t -> infinity."""
    inside = point.indices
    outside = point.complement()
    ai = ws.at(inside)
    aj = ws.at(outside)
    return sum(1 for x in ai for y in aj if y - x > 0)


def poincare_from_cells(ws, k):
    """Poincare polynomial in q of Gr(n-k, V), n = ws.n, as the cell
    generating function sum over fixed points of q^minus_cell_dimension.

    Any distinct weights give the same answer, the Gaussian binomial
    coefficient [n, k]_q.
    """
    n = ws.n
    points = enumerate_fixed_subspaces(n, k)
    coeffs = [0] * (k * (n - k) + 1)
    for pt in points:
        coeffs[minus_cell_dimension(pt, ws)] += 1
    return IntegerPolynomial(coeffs)


def poincare_from_regular_sequence(degrees, shift):
    """Expand the product

        prod_i (1 - q^(d_i + s)) / (1 - q^(d_i))

    over the given generator degrees d_i with relation shift s, by exact
    polynomial division.  Raises NotPolynomial when the rational function
    fails to cancel to a polynomial.  For the cohomology of Gr(n-k, V) the
    degrees are the w_degree values and the shift is 1.
    """
    if shift < 1:
        raise ValueError("shift must be positive, got %d" % shift)
    numerator = IntegerPolynomial.one()
    denominator = IntegerPolynomial.one()
    one = IntegerPolynomial.one()
    for d in degrees:
        if d < 1:
            raise ValueError("degrees must be positive, got %d" % d)
        numerator = numerator * (one - IntegerPolynomial.monomial(1, d + shift))
        denominator = denominator * (one - IntegerPolynomial.monomial(1, d))
    return numerator.exact_divide(denominator)


def w_degree(i, j, n, k):
    """Cohomological degree of the generator w_{i,j}: (n-k) + j - i."""
    _check_generator_index(i, j, n, k)
    return (n - k) + j - i


def _check_generator_index(i, j, n, k):
    if not 0 < k < n:
        raise InvalidDimensions("need 0 < k < n, got n=%d k=%d" % (n, k))
    if not 1 <= i <= n - k:
        raise IndexOutOfRange("i=%d outside 1..%d" % (i, n - k))
    if not 1 <= j <= k:
        raise IndexOutOfRange("j=%d outside 1..%d" % (j, k))


def generator_variables(n, k):
    """The ordered variable tuple ('w_1_1', ..., 'w_{n-k}_k'), i ascending
    then j ascending."""
    if not 0 < k < n:
        raise InvalidDimensions("need 0 < k < n, got n=%d k=%d" % (n, k))
    return tuple(
        "w_%d_%d" % (i, j) for i in range(1, n - k + 1) for j in range(1, k + 1)
    )


def generator_degrees(n, k):
    """The w_degree of every generator w_{i,j}, in generator_variables
    order.  Empty for the one-point Grassmannians k = 0 and k = n; any
    n < 1 or k outside 0..n raises InvalidDimensions."""
    if n < 1 or not 0 <= k <= n:
        raise InvalidDimensions("need n >= 1 and 0 <= k <= n, got n=%d k=%d" % (n, k))
    return tuple(
        w_degree(i, j, n, k) for i in range(1, n - k + 1) for j in range(1, k + 1)
    )


def relation_generator(i, j, n, k, variables=None):
    """The relation attached to w_{i,j}:

        - c_{1,i} * w_{i-1,j} - w_{i,1} * w_{n-k,j} + c_{k+1,j+1} * w_{i,j+1}

    where the structure constant c_{a,b} is 1 unless a = b, in which case
    it vanishes together with its term.  Concretely the first term drops
    exactly when i = 1 and the last exactly when j = k, so every surviving
    factor is a genuine generator.  Homogeneous of degree w_degree(i,j) + 1.
    """
    _check_generator_index(i, j, n, k)
    if variables is None:
        variables = generator_variables(n, k)
    terms = {}

    def add(coeff, *gens):
        exps = [0] * len(variables)
        for gi, gj in gens:
            exps[(gi - 1) * k + (gj - 1)] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(coeff)

    if i != 1:
        add(-1, (i - 1, j))
    add(-1, (i, 1), (n - k, j))
    if j + 1 != k + 1:
        add(1, (i, j + 1))
    return MultiPoly(variables, terms)


class GradedPresentation:
    """A graded ring presentation: ordered variables, their degrees, and the
    list of relations."""

    __slots__ = ("variables", "degrees", "relations")

    def __init__(self, variables, degrees, relations):
        self.variables = tuple(variables)
        self.degrees = tuple(int(d) for d in degrees)
        if len(self.variables) != len(self.degrees):
            raise ValueError("one degree per variable")
        self.relations = tuple(relations)
        for rel in self.relations:
            if rel.variables != self.variables:
                raise ValueError("relation over the wrong variable tuple")

    def is_homogeneous(self):
        """Every relation concentrated in a single weighted degree."""
        return all(
            rel.is_zero() or rel.homogeneous_degree(self.degrees) is not None
            for rel in self.relations
        )

    def relation_degrees(self):
        return tuple(rel.homogeneous_degree(self.degrees) for rel in self.relations)

    def __repr__(self):
        return "GradedPresentation(%d variables, %d relations)" % (
            len(self.variables),
            len(self.relations),
        )


def ordinary_presentation(n, k):
    """Presentation of the cohomology of Gr(n-k, V): generators w_{i,j} of
    degree (n-k) + j - i, one relation per generator."""
    variables = generator_variables(n, k)
    degrees = generator_degrees(n, k)
    relations = tuple(
        relation_generator(i, j, n, k, variables)
        for i in range(1, n - k + 1)
        for j in range(1, k + 1)
    )
    return GradedPresentation(variables, degrees, relations)


def equivariant_presentation(n, k):
    """Equivariant lift: same generators plus a degree-one class v appended
    last.  The relation at w_{i,j} becomes

        2 * ((n-k) - (i-j)) * v * w_{i,j} - 2 * (ordinary relation),

    which is homogeneous of degree (n-k) + j - i + 1 and restricts to minus
    twice the ordinary relation at v = 0.
    """
    base_vars = generator_variables(n, k)
    variables = base_vars + ("v",)
    degrees = generator_degrees(n, k) + (1,)

    def lift(poly):
        return MultiPoly(variables, {e + (0,): c for e, c in poly.terms.items()})

    relations = []
    for i in range(1, n - k + 1):
        for j in range(1, k + 1):
            coeff = 2 * (n - k) - 2 * (i - j)
            v_exps = [0] * len(variables)
            v_exps[(i - 1) * k + (j - 1)] = 1
            v_exps[-1] = 1
            linear = MultiPoly(variables, {tuple(v_exps): Fraction(coeff)})
            ordinary = lift(relation_generator(i, j, n, k, base_vars))
            relations.append(linear - ordinary.scale(2))
    return GradedPresentation(variables, degrees, tuple(relations))


def specialize_v(presentation, value=0):
    """Set v to a rational constant in an equivariant presentation and drop
    the variable.  At v = 0 every relation becomes -2 times its ordinary
    counterpart."""
    if not presentation.variables or presentation.variables[-1] != "v":
        raise ValueError("presentation has no trailing equivariant variable v")
    variables = presentation.variables[:-1]
    degrees = presentation.degrees[:-1]
    relations = tuple(rel.substitute("v", value) for rel in presentation.relations)
    return GradedPresentation(variables, degrees, relations)


def _weighted_monomials(degrees, d):
    # All exponent tuples with the given total weighted degree.
    out = []

    def rec(pos, remaining, prefix):
        if pos == len(degrees):
            if remaining == 0:
                out.append(tuple(prefix))
            return
        w = degrees[pos]
        top = remaining // w
        for e in range(top + 1):
            prefix.append(e)
            rec(pos + 1, remaining - e * w, prefix)
            prefix.pop()

    rec(0, d, [])
    return out


def graded_dimension(presentation, d):
    """Dimension of the degree-d piece of the presented graded ring.

    Counts monomials of weighted degree d, then subtracts the rank of the
    span of (monomial x relation) products landing in degree d.  Exact over
    the rationals throughout.
    """
    if d < 0:
        raise InvalidDegree("degree must be nonnegative, got %d" % d)
    degrees = presentation.degrees
    monomials = _weighted_monomials(degrees, d)
    if not monomials:
        return 0
    index = {m: pos for pos, m in enumerate(monomials)}
    space = RowSpace(len(monomials))
    for rel in presentation.relations:
        rd = rel.homogeneous_degree(degrees)
        if rd is None:
            raise InvalidDegree("presentation is not homogeneous")
        if rel.is_zero() or rd > d:
            continue
        for shift in _weighted_monomials(degrees, d - rd):
            row = [Fraction(0)] * len(monomials)
            for exps, c in rel.terms.items():
                key = tuple(a + b for a, b in zip(exps, shift))
                row[index[key]] = c
            space.add(row)
    return len(monomials) - space.rank


def graded_dimensions(presentation, top):
    """Dimensions of the degree-0..top pieces as a list."""
    return [graded_dimension(presentation, d) for d in range(top + 1)]
