"""Grassmannian fixed points, cells, and cohomology presentations.

The torus with distinct weights a_1 > ... hanging off a basis of V acts on
Gr(n-k, V) with one fixed point per size-(n-k) index set.  The Poincare
polynomial comes out of either the minus-cell dimensions or the
regular-sequence product formula; both routes equal the Gaussian binomial.

The presentation side realizes the cohomology ring as generators w_{i,j},
1 <= i <= n-k, 1 <= j <= k, modulo one relation per generator, with an
equivariant lift over a degree-one class v.
"""

from functools import lru_cache
from itertools import combinations
from math import comb
from operator import index, mul

from .algebra import IntegerPolynomial, MultiPoly, RowSpace, _clear_denominators
from .errors import IndexOutOfRange, InvalidDegree, InvalidDimensions


class WeightSystem:
    """Distinct integer torus weights, one per basis vector of V."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        ws = tuple(map(index, weights))
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
        idx = tuple(map(index, indices))
        if not all(map(int.__lt__, idx, idx[1:])):
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
    return [FixedSubspace(c, n) for c in _index_sets(n, k)]


def _index_sets(n, k):
    # The (n-k)-subsets of 1..n, lexicographic, as tuples.
    if not 0 <= k <= n:
        raise InvalidDimensions("need 0 <= k <= n, got n=%d k=%d" % (n, k))
    return combinations(range(1, n + 1), n - k)


def _ranks(weights):
    # {i: number of weights smaller than the i-th}, 1-based like indices.
    order = sorted(range(len(weights)), key=weights.__getitem__)
    return {i + 1: r for r, i in enumerate(order)}


def minus_cell_dimension(point, ws):
    """Dimension of the cell flowing into the fixed point under t -> 0:
    the number of pairs (i in I, j not in I) with a_j < a_i, over the
    first point.n weights.

    With rank(a_i) the number of those weights below a_i, this is
    sum over i in I of rank(a_i) minus the pairs inside I that it also
    counts.  The weights are distinct, so each of the C(|I|, 2) pairs
    inside I is counted exactly once, from its larger end.
    """
    rank = _ranks(ws.at(range(1, point.n + 1)))
    return sum(map(rank.__getitem__, point.indices)) - comb(point.dim, 2)


def plus_cell_dimension(point, ws):
    """Dimension of the cell flowing in under t -> infinity: the pairs
    (i in I, j not in I) with a_j > a_i.  The weights are distinct, so every
    pair not counted by minus_cell_dimension is counted here."""
    return point.dim * (point.n - point.dim) - minus_cell_dimension(point, ws)


def poincare_from_cells(ws, k):
    """Poincare polynomial in q of Gr(n-k, V), n = ws.n, as the cell
    generating function sum over fixed points of q^minus_cell_dimension,
    each read off one table of weight ranks.

    Any distinct weights give the same answer, the Gaussian binomial
    coefficient [n, k]_q.
    """
    n = ws.n
    indices = _index_sets(n, k)
    rank = _ranks(ws.weights)
    inside = comb(n - k, 2)
    coeffs = [0] * (k * (n - k) + 1)
    for idx in indices:
        coeffs[sum(map(rank.__getitem__, idx)) - inside] += 1
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


def relation_generator(i, j, n, k):
    """The relation attached to w_{i,j}:

        - c_{1,i} * w_{i-1,j} - w_{i,1} * w_{n-k,j} + c_{k+1,j+1} * w_{i,j+1}

    where the structure constant c_{a,b} is 1 unless a = b, in which case
    it vanishes together with its term.  Concretely the first term drops
    exactly when i = 1 and the last exactly when j = k, so every surviving
    factor is a genuine generator and no two terms share a monomial.
    Homogeneous of degree w_degree(i,j) + 1, over the variables
    generator_variables(n, k).
    """
    _check_generator_index(i, j, n, k)
    variables = generator_variables(n, k)

    def monomial(*gens):
        exps = [0] * len(variables)
        for gi, gj in gens:
            exps[(gi - 1) * k + (gj - 1)] += 1
        return tuple(exps)

    terms = {monomial((i, 1), (n - k, j)): -1}
    if i != 1:
        terms[monomial((i - 1, j))] = -1
    if j != k:
        terms[monomial((i, j + 1))] = 1
    return MultiPoly(variables, terms)


class GradedPresentation:
    """A graded ring presentation: ordered distinct variables, their
    degrees, and the tuple of relations.  Every degree is positive, so each
    graded piece is finite-dimensional.

    The relations are never reassigned after construction, so each nonzero
    relation's degree and its terms cleared to integers are prepared here,
    once, for the Macaulay rank of graded_dimension.  There is no __eq__
    or __hash__: a presentation is equal only to itself, so graded_dimension
    reduces each presentation object once, whatever degrees it asks for.
    """

    __slots__ = ("variables", "degrees", "relations", "_integer_relations")

    def __init__(self, variables, degrees, relations):
        self.variables = tuple(variables)
        self.degrees = tuple(index(d) for d in degrees)
        if len(self.variables) != len(self.degrees):
            raise ValueError("one degree per variable")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("repeated variable name in %r" % (self.variables,))
        if any(d <= 0 for d in self.degrees):
            raise InvalidDegree("variable degrees must be positive: %r" % (self.degrees,))
        self.relations = tuple(relations)
        for rel in self.relations:
            if rel.variables != self.variables:
                raise ValueError("relation over the wrong variable tuple")
        # (degree, ((exponents, integer coefficient), ...)) per nonzero
        # relation, each scaled by the lcm of its denominators
        self._integer_relations = tuple(
            (
                rel.homogeneous_degree(self.degrees),
                tuple(zip(rel.terms, _clear_denominators(list(rel.terms.values()))[1])),
            )
            for rel in self.relations
            if not rel.is_zero()
        )

    def is_homogeneous(self):
        """Every relation concentrated in a single weighted degree."""
        return all(rd is not None for rd, _ in self._integer_relations)

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
        relation_generator(i, j, n, k)
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
    ordinary = ordinary_presentation(n, k)
    variables = ordinary.variables + ("v",)
    relations = []
    for w, rel in enumerate(ordinary.relations):
        i, j = divmod(w, k)  # w_{i+1,j+1} sits at position w
        v_w = tuple(int(p == w) for p in range(len(ordinary.variables))) + (1,)
        terms = {v_w: 2 * ((n - k) - (i - j))}
        terms.update((e + (0,), -2 * c) for e, c in rel.terms.items())
        relations.append(MultiPoly(variables, terms))
    return GradedPresentation(variables, ordinary.degrees + (1,), relations)


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
    # All exponent tuples with the given total weighted degree, in
    # lexicographic order.  The last exponent is solved for, not searched.
    if not degrees:
        return [()] if d == 0 else []
    *head, last = degrees
    partial = [((), d)]  # (leading exponents, degree left for the rest)
    for w in head:
        partial = [(p + (e,), rest - e * w) for p, rest in partial for e in range(rest // w + 1)]
    return [p + (rest // last,) for p, rest in partial if rest % last == 0]


@lru_cache(maxsize=128)
def _eliminate_linear(presentation):
    """An isomorphic presentation without the variables that a relation
    defines linearly.

    While some relation has a term c*x, x a single variable to the first
    power, substitute x = -(rest)/c into the other relations with
    MultiPoly.substitute, which drops x, and drop that relation; the first
    such relation, and in it the first such variable, goes first.  Degrees
    are positive, so x appears in no other term of its relation, and each
    step is a graded ring isomorphism.  Raises InvalidDegree for a
    presentation that is not homogeneous.  The result does not depend on
    the degree asked for, so it is cached per presentation object (a
    GradedPresentation is its own key, by identity), not by value.

    >>> pres = ordinary_presentation(4, 2)
    >>> reduced = _eliminate_linear(pres)
    >>> len(pres.variables), len(reduced.variables)
    (4, 2)
    >>> [_macaulay_dimension(reduced, d) for d in range(5)]
    [1, 1, 2, 1, 1]
    """
    if not presentation.is_homogeneous():
        raise InvalidDegree("presentation is not homogeneous")
    variables, degrees = presentation.variables, presentation.degrees
    rels = [rel for rel in presentation.relations if not rel.is_zero()]
    while True:
        for pos, rel in enumerate(rels):
            linear = [e for e in rel.terms if sum(e) == 1]
            if linear:
                break
        else:
            break
        unit = max(linear)  # the first variable's: (1, 0, ...) > (0, 1, ...)
        x = unit.index(1)
        rel = rels.pop(pos)
        c = rel.terms[unit]
        name = variables[x]
        variables = variables[:x] + variables[x + 1 :]
        degrees = degrees[:x] + degrees[x + 1 :]
        value = MultiPoly(
            variables,
            {e[:x] + e[x + 1 :]: -b / c for e, b in rel.terms.items() if e != unit},
        )
        rels = [r for r in (r.substitute(name, value) for r in rels) if not r.is_zero()]
    return GradedPresentation(variables, degrees, rels)


def _macaulay_dimension(presentation, d):
    # Monomials of weighted degree d, minus the rank of the span of the
    # (monomial x relation) products landing in degree d.  A monomial is
    # coded as a mixed-radix int in base d + 1: no exponent of a monomial
    # of degree at most d exceeds d, so a product that lands in degree d
    # has the sum of its factors' codes.
    degrees = presentation.degrees
    monomials = _weighted_monomials(degrees, d)
    if not monomials:
        return 0
    powers = [(d + 1) ** i for i in range(len(degrees))]

    def code(exps):
        return sum(map(mul, exps, powers))

    column = {code(m): pos for pos, m in enumerate(monomials)}
    space = RowSpace(len(monomials))
    for rd, terms in presentation._integer_relations:
        if rd > d:
            continue
        terms = [(code(e), c) for e, c in terms]
        for shift in map(code, _weighted_monomials(degrees, d - rd)):
            space.add({column[t + shift]: c for t, c in terms})
    return len(monomials) - space.rank


def graded_dimension(presentation, d):
    """Dimension of the degree-d piece of the presented graded ring.

    First eliminates every variable that a relation defines linearly (a
    graded ring isomorphism, computed once per presentation object; see
    _eliminate_linear), which takes Gr's k(n-k) generators down to k.
    Then counts monomials of weighted degree d on what is left and
    subtracts the rank of the span of (monomial x relation) products
    landing in degree d.  Each product goes to the RowSpace as a sparse
    {column: int} row, read off the integer-cleared terms that the reduced
    presentation prepared when it was built, so the rank is exact.  Raises
    InvalidDegree for d < 0 and, at every d, for a presentation that is
    not homogeneous.
    """
    if d < 0:
        raise InvalidDegree("degree must be nonnegative, got %d" % d)
    return _macaulay_dimension(_eliminate_linear(presentation), d)


def graded_dimensions(presentation, top):
    """Dimensions of the degree-0..top pieces as a list."""
    return [graded_dimension(presentation, d) for d in range(top + 1)]
