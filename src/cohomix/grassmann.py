"""Grassmannian fixed points, cells, and cohomology presentations.

The torus with distinct weights a_1 > ... hanging off a basis of V acts on
Gr(n-k, V) with one fixed point per size-(n-k) index set.  The Poincare
polynomial comes out of either the minus-cell dimensions or the
regular-sequence product formula; both routes equal the Gaussian binomial.

The presentation side realizes the cohomology ring as generators w_{i,j},
1 <= i <= n-k, 1 <= j <= k, modulo one relation per generator, with an
equivariant lift over a degree-one class v.  Both relation sets are read
off one vector field, the Riccati equation on the chart [I; B] of the
matrix N + (v/2)H: N the principal nilpotent, H the principal weights.
"""

from itertools import combinations
from math import comb, gcd
from operator import index, mul

from .algebra import IntegerPolynomial, MultiPoly, RowSpace, _binomial_quotient
from .errors import BoxViolation, IndexOutOfRange, InvalidDegree, InvalidDimensions, NotPolynomial


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
        """Weights at the given 1-based indices, read through operator.index."""
        indices = tuple(map(index, indices))
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
        n = index(n)
        if n < 0:
            raise InvalidDimensions("need n >= 0, got n=%d" % n)
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


def box_of(points):
    """The points' common (parts, part size) box; any point that is not a
    FixedSubspace raises TypeError."""
    if not points:
        raise BoxViolation("need at least one fixed point")
    if not all(isinstance(pt, FixedSubspace) for pt in points):
        raise TypeError("the box needs FixedSubspace points")
    dims = {pt.dim for pt in points}
    ns = {pt.n for pt in points}
    if len(dims) != 1 or len(ns) != 1:
        raise BoxViolation("points live in different Grassmannians")
    n = ns.pop()
    d = dims.pop()
    return d, n - d


def _shape(n, k):
    # The one rule for Gr(n-k, V), dim V = n, at every entry point: n and k
    # read through operator.index, n >= 1 and 0 <= k <= n.
    n, k = index(n), index(k)
    if n < 1 or not 0 <= k <= n:
        raise InvalidDimensions("need n >= 1 and 0 <= k <= n, got n=%d k=%d" % (n, k))
    return n, k


def enumerate_fixed_subspaces(n, k):
    """All fixed points of Gr(n-k, V), dim V = n, in lexicographic order of
    index sets, for n >= 1 and 0 <= k <= n (else InvalidDimensions); k = 0
    and k = n have one (the whole space resp. the origin)."""
    return [FixedSubspace(c, n) for c in _index_sets(n, k)]


def _index_sets(n, k):
    # The (n-k)-subsets of 1..n, lexicographic, as tuples.
    n, k = _shape(n, k)
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


def poincare_from_regular_sequence(degrees):
    """Expand the product

        prod_i (1 - q^(d_i + 1)) / (1 - q^(d_i))

    over the given generator degrees d_i, each relation one degree above
    its generator: with as many factors above as below, the signs cancel,
    so the product is taken by every q^(d_i + 1) - 1 and then divided by
    every q^(d_i) - 1 (_binomial_quotient), with no denominator product.
    Raises NotPolynomial at the first division with a remainder, i.e. when
    the rational function fails to cancel to a polynomial.  Each degree
    is read through operator.index and must be positive.  For the
    cohomology of Gr(n-k, V) the degrees are the w_degree values.
    """
    degrees = tuple(map(index, degrees))
    for d in degrees:
        if d < 1:
            raise ValueError("degrees must be positive, got %d" % d)
    rr = _binomial_quotient([1], [d + 1 for d in degrees], degrees)
    if rr is None:
        raise NotPolynomial("quotient is not an integer polynomial")
    return IntegerPolynomial(reversed(rr))


def w_degree(i, j, n, k):
    """Cohomological degree of the generator w_{i,j}: (n-k) + j - i."""
    n, k = _shape(n, k)
    i, j = index(i), index(j)
    if not 1 <= i <= n - k:
        raise IndexOutOfRange("i=%d outside 1..%d" % (i, n - k))
    if not 1 <= j <= k:
        raise IndexOutOfRange("j=%d outside 1..%d" % (j, k))
    return (n - k) + j - i


def generator_variables(n, k):
    """The ordered variable tuple ('w_1_1', ..., 'w_{n-k}_k'), i ascending
    then j ascending; the same n, k as generator_degrees."""
    n, k = _shape(n, k)
    return tuple(
        "w_%d_%d" % (i, j) for i in range(1, n - k + 1) for j in range(1, k + 1)
    )


def generator_degrees(n, k):
    """The w_degree of every generator w_{i,j}, in generator_variables
    order.  Empty for the one-point Grassmannians k = 0 and k = n; any
    n < 1 or k outside 0..n raises InvalidDimensions."""
    n, k = _shape(n, k)
    return tuple(
        w_degree(i, j, n, k) for i in range(1, n - k + 1) for j in range(1, k + 1)
    )


def _riccati_field(n, k, equivariant):
    """The relations, one term dict per generator in generator_variables
    order: the vector field of an n x n matrix A on the chart of column
    spans of [I_m; B], m = n-k, B[j][i] = w_{i+1,j+1} (0-based).  In
    blocks A11 (m x m), A12, A21, A22 it is the Riccati equation

        B' = A21 + A22 B - B A11 - B A12 B,

    and the relation at w_{i+1,j+1} is B'[j][i].  Ordinary: A = N, the
    principal nilpotent.  Equivariant, v last: A = -(2N + vH), H the
    weights of WeightSystem.principal(n), so -2 times the field of
    N + (v/2)H, as B' is linear in A.  B' is read over A's nonzero entries:
    one of A11 moves a column of B, one of A22 a row, and A12's one entry
    multiplies the last column by the first row; A21 is zero.
    """
    m = n - k
    entries = [(r, r + 1, -2 if equivariant else 1, ()) for r in range(n - 1)]
    if equivariant:  # -vH, H = diag(n-1, n-3, ..., 1-n), with v last
        entries += [(r, r, 2 * r + 1 - n, (m * k,)) for r in range(n) if 2 * r + 1 != n]
    field = [{} for _ in range(m * k)]
    for r, c, a, v_factor in entries:
        # (relation, coefficient, factors) per term, as generator positions
        if r < m <= c:  # -B A12 B: column r of B times row c-m
            steps = [
                (i * k + j, -a, (r * k + j, i * k + c - m)) for i in range(m) for j in range(k)
            ]
        elif r < m:  # -B A11: column r of B into column c
            steps = [(c * k + j, -a, (r * k + j,)) for j in range(k)]
        else:  # A22 B: row c-m of B into row r-m
            steps = [(i * k + r - m, a, (i * k + c - m,)) for i in range(m)]
        for w, coeff, factors in steps:
            exps = [0] * (m * k + equivariant)
            for f in factors + v_factor:
                exps[f] += 1
            exps = tuple(exps)
            field[w][exps] = field[w].get(exps, 0) + coeff
    return field


class GradedPresentation:
    """A graded ring presentation: ordered distinct variables, their
    positive degrees, so each graded piece is finite-dimensional, and the
    tuple of relations, integer MultiPolys over those variables.

    The relations are never reassigned after construction, so their
    weighted degrees are read here, once, for is_homogeneous,
    relation_degrees and the Macaulay rank of graded_dimension, and
    `_reduced` keeps the _eliminate_linear reduction that graded_dimension
    makes on first use, whatever degrees it asks for.
    """

    __slots__ = ("variables", "degrees", "relations", "_relation_degrees", "_reduced")

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
            if not isinstance(rel, MultiPoly):
                raise TypeError("relations must be MultiPoly, got %s" % type(rel).__name__)
            if rel.variables != self.variables:
                raise ValueError("relation over the wrong variable tuple")
        self._relation_degrees = tuple(r.homogeneous_degree(self.degrees) for r in self.relations)
        self._reduced = None

    def is_homogeneous(self):
        """Every relation concentrated in a single weighted degree."""
        return None not in self._relation_degrees

    def relation_degrees(self):
        """Each relation's weighted degree, None when mixed, 0 when zero."""
        return self._relation_degrees

    def __repr__(self):
        return "GradedPresentation(%d variables, %d relations)" % (
            len(self.variables),
            len(self.relations),
        )


def ordinary_presentation(n, k):
    """Presentation of the cohomology of Gr(n-k, V): generators w_{i,j} of
    degree (n-k) + j - i, and at each the relation of the field of N (see
    _riccati_field), - w_{i-1,j} - w_{i,1} * w_{n-k,j} + w_{i,j+1}, whose
    first term is absent at i = 1 and last at j = k.  n >= 1 and
    0 <= k <= n (else InvalidDimensions); k = 0 or n has no generators."""
    variables = generator_variables(n, k)
    relations = [MultiPoly(variables, terms) for terms in _riccati_field(n, k, False)]
    return GradedPresentation(variables, generator_degrees(n, k), relations)


def equivariant_presentation(n, k):
    """Equivariant lift: the same generators plus a degree-one class v
    appended last, and the relations of the field -(2N + vH) (see
    _riccati_field).  -vH adds a multiple of v * w_{i,j}: the relation at
    w_{i,j} is 2 * ((n-k) - (i-j)) * v * w_{i,j} - 2 * (ordinary relation),
    of degree (n-k) + j - i + 1, and -2 times the ordinary one at v = 0.
    Same n, k as ordinary_presentation; k = 0 or n has v alone."""
    variables = generator_variables(n, k) + ("v",)
    relations = [MultiPoly(variables, terms) for terms in _riccati_field(n, k, True)]
    return GradedPresentation(variables, generator_degrees(n, k) + (1,), relations)


def specialize_v(presentation, value=0):
    """Set v to an integer in an equivariant presentation and drop the
    variable; a Fraction or float value raises TypeError.  At v = 0 every
    relation becomes -2 times its ordinary counterpart."""
    if not presentation.variables or presentation.variables[-1] != "v":
        raise ValueError("presentation has no trailing equivariant variable v")
    variables = presentation.variables[:-1]
    degrees = presentation.degrees[:-1]
    relations = tuple(rel.substitute("v", value) for rel in presentation.relations)
    return GradedPresentation(variables, degrees, relations)


def _weighted_monomials(degrees, d, base):
    # The codes sum(e_i * base**i) of all exponent tuples e with the given
    # total weighted degree, in lexicographic order of e.  The last
    # exponent is solved for, not searched.
    if not degrees:
        return [0] if d == 0 else []
    *head, last = degrees
    partial = [(0, d)]  # (code of the leading exponents, degree left for the rest)
    power = 1
    for w in head:
        partial = [
            (p + e * power, rest - e * w) for p, rest in partial for e in range(rest // w + 1)
        ]
        power *= base
    return [p + rest // last * power for p, rest in partial if rest % last == 0]


def _primitive(rel):
    # A nonzero relation divided by the positive gcd of its coefficients
    g = gcd(*rel.terms.values())
    return rel if g == 1 else MultiPoly(rel.variables, {e: b // g for e, b in rel.terms.items()})


def _eliminate_linear(presentation):
    """An isomorphic presentation, over the rationals, without the
    variables that a relation defines linearly; nothing is divided but
    exactly.

    Every relation is made _primitive.  While some relation has a term
    c*x, x a single variable to the first power, drop it and x; the first
    such relation, and in it the first such variable, goes first.  Degrees
    are positive, so x appears in no other term of that relation.  Each
    other relation, with A its top power of x, has its x^a terms scaled by
    c^(A-a), then x = -(rest) substituted by MultiPoly.substitute, which
    drops x: c^A times it at x = -(rest)/c, made _primitive again.  Raises
    InvalidDegree for a presentation that is not homogeneous.

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
    rels = [_primitive(rel) for rel in presentation.relations if not rel.is_zero()]
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
        rest = {e[:x] + e[x + 1 :]: -b for e, b in rel.terms.items() if e != unit}
        value = MultiPoly(variables, rest)
        reduced = []
        for r in rels:
            if c != 1:
                top = max(e[x] for e in r.terms)
                r = MultiPoly(r.variables, {e: b * c ** (top - e[x]) for e, b in r.terms.items()})
            r = r.substitute(name, value)
            if not r.is_zero():
                reduced.append(_primitive(r))
        rels = reduced
    return GradedPresentation(variables, degrees, rels)


def _macaulay_dimension(presentation, d):
    # Monomials of weighted degree d, minus the rank of the span of the
    # (monomial x relation) products landing in degree d; with no relation
    # of degree at most d, the count alone, and no row space.  A monomial
    # is coded as a mixed-radix int in base d + 1: no exponent of a
    # monomial of degree at most d exceeds d, so a product that lands in
    # degree d has the sum of its factors' codes.
    #
    # Columns follow the lex order of monomials, a monomial order, so a
    # product's leading column is its relation's lex-first term times the
    # shift.  The relations are walked from last to first, and each one's
    # shifts too, so its rows come in descending leading column, and a row
    # whose leading column is still free is stored with no reduction step.
    # In ascending order the rank is the same but the reduced rows fill in
    # and their integers grow: at degree 16 of
    # equivariant_presentation(8, 4), 258-bit entries and 94 nonzeros a
    # row, against 62 bits and 34 nonzeros in this order.
    degrees, rds = presentation.degrees, presentation._relation_degrees
    monomials = _weighted_monomials(degrees, d, d + 1)
    if min(rds, default=d + 1) > d:
        return len(monomials)
    powers = [(d + 1) ** i for i in range(len(degrees))]
    column = {m: pos for pos, m in enumerate(monomials)}
    space = RowSpace(len(monomials))
    for rd, rel in zip(reversed(rds), reversed(presentation.relations)):
        if rd > d:
            continue
        terms = [(sum(map(mul, e, powers)), c) for e, c in rel.terms.items()]
        for shift in reversed(_weighted_monomials(degrees, d - rd, d + 1)):
            space.add({column[t + shift]: c for t, c in terms})
    return len(monomials) - space.rank


def graded_dimension(presentation, d):
    """Dimension of the degree-d piece of the presented graded ring.

    First eliminates every variable that a relation defines linearly (a
    graded ring isomorphism, computed once per presentation object and
    kept in its `_reduced` slot; see _eliminate_linear), which takes Gr's
    k(n-k) generators down to k.  Then counts monomials of weighted
    degree d on what is left and subtracts the rank of the span of
    (monomial x relation) products landing in degree d, or returns the
    count alone when no relation has degree at most d.  Each product goes
    to the RowSpace as a sparse {column: int} row, read off the reduced
    presentation's integer relations at the degrees it read when it was
    built, so the rank is exact.  The rows are offered last relation
    first, each relation's in descending leading monomial, which keeps
    the stored integers small (see _macaulay_dimension).  d is read
    through operator.index, so a Fraction or float raises TypeError.
    Raises InvalidDegree for d < 0 and, at every d, for a presentation
    that is not homogeneous.
    """
    d = index(d)
    if d < 0:
        raise InvalidDegree("degree must be nonnegative, got %d" % d)
    if presentation._reduced is None:
        presentation._reduced = _eliminate_linear(presentation)
    return _macaulay_dimension(presentation._reduced, d)


def graded_dimensions(presentation, top):
    """Dimensions of the degree-0..top pieces as a list; top is read like
    d in graded_dimension, so a negative one raises InvalidDegree."""
    top = index(top)
    if top < 0:
        raise InvalidDegree("degree must be nonnegative, got %d" % top)
    return [graded_dimension(presentation, d) for d in range(top + 1)]
