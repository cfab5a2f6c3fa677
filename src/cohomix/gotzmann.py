"""Torus-fixed points of Hilb_k(P^2) and their Gotzmann images.

The torus acting by X_i -> t^(g^lambda_i) X_i has finitely many fixed
points on the Hilbert scheme of k points in the plane, one per triple of
partitions with total size k (monomial ideals supported at the three
coordinate points).  Since k is at least the regularity of every such
ideal, the degree-k graded piece I -> I ∩ R_k is a closed embedding into
Gr(n_k - k, R_k) with n_k = C(k+2, 2), and each image is a coordinate
subspace in the monomial basis.

The additive-group side: the derivation X_0 -> X_1 -> X_2 -> 0 acts
nilpotently on R_k; its Jordan type having a single block is what a
regular group action would force.
"""

from math import comb
from operator import index

from .algebra import IntegerPolynomial, Partition, RationalMatrix, _conjugate, _power_str
from .algebra import jordan_type, partitions_in_box
from .errors import (
    ConditionViolated,
    InternalInvariantViolation,
    InvalidDegree,
)
from .grassmann import FixedSubspace, WeightSystem

def _degree(k):
    # The one rule for k, the number of points of Hilb_k(P^2), at every
    # entry point: k read through operator.index, k >= 1.
    k = index(k)
    if k < 1:
        raise InvalidDegree("k must be at least 1, got %d" % k)
    return k


def monomial_basis(k):
    """The ordered monomial basis of R_k, the degree-k forms in three
    variables: the C(k+2, 2) exponent triples (a, b, c), a + b + c = k,
    sorted by increasing a then increasing b.

    >>> monomial_basis(1)
    ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    """
    k = _degree(k)
    return tuple((a, b, k - a - b) for a in range(k + 1) for b in range(k - a + 1))


def monomial_label(monomial):
    """Product form of an exponent triple of X_0, X_1, X_2.

    >>> [monomial_label(m) for m in monomial_basis(2)]
    ['X_2^2', 'X_1*X_2', 'X_1^2', 'X_0*X_2', 'X_0*X_1', 'X_0^2']
    """
    factors = zip(("X_0", "X_1", "X_2"), map(index, monomial), strict=True)
    return "*".join(_power_str(name, e) for name, e in factors if e) or "1"


class TorusAction:
    """A one-parameter torus acting by X_i -> t^(g^lambda_i) X_i on R_k.

    k, g and the exponents are read through operator.index and checked
    here, in order: k >= 1 (else InvalidDegree), g > 1, positive
    exponents, (2) g^lam1 > c*g^lam2 for 0 <= c <= k, and (1) g^lam0 >
    a*g^lam1 + b*g^lam2 for all a + b = k; a failure raises
    ConditionViolated naming it with the offending numbers.  Each
    condition is one comparison, at its extreme case.  Since g^lam2 > 0,
    c*g^lam2 grows with c, so (2) holds exactly when g^lam1 > k*g^lam2, at
    c = k.  Given (2), g^lam1 > k*g^lam2 >= g^lam2, so a*g^lam1 +
    (k - a)*g^lam2 = k*g^lam2 + a*(g^lam1 - g^lam2) grows with a, and (1)
    holds exactly when g^lam0 > k*g^lam1, at a = k.  The induced weights
    on degree-k monomials are then pairwise distinct: g^lam1 > g^lam2 > 0,
    so by (1) a higher X_0-exponent always weighs more, and at equal
    X_0-exponents two weights differ by a nonzero multiple of g^lam1 -
    g^lam2.  No tangent weight is zero, so a zero one is a bug: each is
    m*D + e*E, m and e integers not both 0, D = g^lam0 - g^lam1 >
    (k-1)*g^lam1 by (1), 0 < E = g^lam1 - g^lam2 < g^lam1, and |e| <= k-1
    where m and e differ in sign, so then |e*E| < |m*D|.
    """

    __slots__ = ("k", "g", "exponents", "coordinate_weights")

    def __init__(self, k, g, exponents):
        k = _degree(k)
        g, (lam0, lam1, lam2) = index(g), map(index, exponents)
        lams = (lam0, lam1, lam2)
        if g < 2:
            raise ConditionViolated("need g > 1, got g=%d" % g)
        if min(lams) < 1:
            raise ConditionViolated("exponents must be positive, got %r" % (lams,))
        weights = tuple(g ** lam for lam in lams)
        for condition, i in ((2, 1), (1, 0)):  # weights[i] > k * weights[i + 1]
            if not weights[i] > k * weights[i + 1]:
                raise ConditionViolated(
                    "condition (%d) fails: g^%d > %d*g^%d is false (%d > %d*%d)"
                    % (condition, lams[i], k, lams[i + 1], weights[i], k, weights[i + 1])
                )
        self.k, self.g, self.exponents, self.coordinate_weights = k, g, lams, weights

    def weight_system(self):
        """Induced WeightSystem on the monomial basis of R_k: X_0^a X_1^b
        X_2^c weighs a*g^lambda_0 + b*g^lambda_1 + c*g^lambda_2."""
        wa, wb, wc = self.coordinate_weights
        return WeightSystem(tuple(a * wa + b * wb + c * wc for a, b, c in monomial_basis(self.k)))

    def __repr__(self):
        return "TorusAction(k=%d, g=%d, exponents=%r)" % (self.k, self.g, self.exponents)


def build_torus_action(k, g=None):
    """TorusAction(k, g, (3, 2, 1)), which makes every check.  The default
    g = k+1 always passes: digits of a base-g expansion never exceed k < g."""
    return TorusAction(k, k + 1 if g is None else g, (3, 2, 1))


class PartitionTriple:
    """A torus-fixed point of Hilb_k(P^2): one partition per coordinate
    point of the plane, total size k.  The text form joins the three
    partitions with ';', e.g. '1;1;' for ((1), (1), empty)."""

    __slots__ = ("parts",)

    def __init__(self, mu0, mu1, mu2):
        self.parts = tuple(
            mu if isinstance(mu, Partition) else Partition(mu) for mu in (mu0, mu1, mu2)
        )

    @property
    def size(self):
        return sum(mu.size for mu in self.parts)

    def __eq__(self, other):
        if not isinstance(other, PartitionTriple):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "PartitionTriple(%r, %r, %r)" % tuple(mu.parts for mu in self.parts)

    def __str__(self):
        return ";".join(str(mu) for mu in self.parts)

    @classmethod
    def parse(cls, text):
        pieces = text.split(";")
        if len(pieces) != 3:
            raise ValueError(
                "expected three ';'-separated partitions, got %r" % (text,)
            )
        return cls(*(Partition.parse(p) for p in pieces))


def enumerate_hilb_fixed_points(k):
    """All partition triples of total size k: the torus-fixed points of
    Hilb_k(P^2).  Deterministic order: size of mu0 ascending, then size of
    mu1 ascending, then each partition slot in descending lexicographic
    order."""
    k = _degree(k)
    of_size = [partitions_in_box(s, s, s) for s in range(k + 1)]
    return [
        PartitionTriple(mu0, mu1, mu2)
        for s0 in range(k + 1)
        for s1 in range(k - s0 + 1)
        for mu0 in of_size[s0]
        for mu1 in of_size[s1]
        for mu2 in of_size[k - s0 - s1]
    ]


def _chart_positions(chart, parts, k):
    # 1-based basis positions of the monomials that the boxes of one
    # chart's diagram put outside the ideal: box (r, c) is the exponent
    # triple with (r, c) in the chart's two local slots and k - r - c in
    # its own, and (a, b, .) sits at a(2k + 3 - a)/2 + b + 1.
    positions = []
    for r, width in enumerate(parts):
        for c in range(width):
            a, b = ((k - r - c, r), (r, k - r - c), (r, c))[chart]
            positions.append(a * (2 * k + 3 - a) // 2 + b + 1)
    return positions


def outside_positions(triple):
    """The ascending 1-based positions in monomial_basis(k) of the degree-k
    monomials outside the ideal of a fixed point, k its total size.

    X_0^a X_1^b X_2^c lies outside exactly when (b, c) is a box of mu0,
    (a, c) a box of mu1 or (a, b) a box of mu2, so the positions are a
    union over the three charts, read off the k boxes rather than a scan
    of all C(k+2, 2) monomials.  Since k bounds the regularity there are
    exactly k of them; any other count trips InternalInvariantViolation.

    >>> outside_positions(PartitionTriple.parse("1;1;"))
    (3, 6)
    """
    k = triple.size
    found = set()
    for chart, mu in enumerate(triple.parts):
        found.update(_chart_positions(chart, mu.parts, k))
    if len(found) != k:
        message = "%s: leaves %d degree-%d monomials outside its ideal, expected %d"
        raise InternalInvariantViolation(message % (triple, len(found), k, k))
    return tuple(sorted(found))


def degree_k_part(triple, k):
    """The Gotzmann image of a fixed point: the coordinate subspace of R_k
    spanned by the degree-k monomials inside the monomial ideal, the
    complement of outside_positions.  Since k bounds the regularity the
    image always has dimension C(k+2,2) - k; anything else trips
    InternalInvariantViolation.
    """
    k = _degree(k)
    if triple.size != k:
        raise InvalidDegree(
            "triple has total size %d, expected k=%d" % (triple.size, k)
        )
    n = comb(k + 2, 2)
    outside = set(outside_positions(triple))
    return FixedSubspace(tuple(i for i in range(1, n + 1) if i not in outside), n)


def _chart_weights(action):
    # (phi_u, phi_w), the weights of the two local coordinates at each of
    # the three coordinate points.
    wa, wb, wc = action.coordinate_weights
    return ((wb - wa, wc - wa), (wa - wb, wc - wb), (wa - wc, wb - wc))


def _chart_tangent_weights(mu, phi_u, phi_w):
    # The two tangent weights of every box of mu at a chart with local
    # weights (phi_u, phi_w), row by row, as tangent_weights spells out.
    parts = mu.parts
    conj = _conjugate(parts) if parts else ()
    for r, width in enumerate(parts):
        for c in range(width):
            arm, leg = width - c - 1, conj[c] - r - 1
            yield -(leg + 1) * phi_u + arm * phi_w
            yield leg * phi_u - (arm + 1) * phi_w


def tangent_weights(triple, action):
    """The 2k torus weights on the tangent space of Hilb_k(P^2) at the
    fixed point.

    Chartwise: at the coordinate point carrying mu, the two local
    coordinate functions scale with weights (phi_u, phi_w), and each box
    contributes the pair

        -(leg+1)*phi_u + arm*phi_w      and      leg*phi_u - (arm+1)*phi_w.

    Boxes come row by row, mu0 then mu1 then mu2.  The leg of box (r, c),
    the number of boxes below it, is conj[c] - r - 1, where conj is the
    conjugate partition.  No weight of a TorusAction is zero (see there),
    so fixed points are isolated, and a zero one, a bug, raises
    InternalInvariantViolation.  An action built for another k than the
    triple's total size raises InvalidDegree.
    """
    if triple.size != action.k:
        raise InvalidDegree(
            "torus action built for k=%d, %s has total size %d"
            % (action.k, triple, triple.size)
        )
    weights = tuple(
        w
        for mu, phis in zip(triple.parts, _chart_weights(action))
        for w in _chart_tangent_weights(mu, *phis)
    )
    if 0 in weights:
        raise InternalInvariantViolation(
            "%s: zero tangent weight; the torus action is not generic" % (triple,)
        )
    return weights


def _name_failing_fixed_point(action):
    # chart_tables found a failed check: the first fixed point whose own
    # check fails raises, naming itself
    for triple in enumerate_hilb_fixed_points(action.k):
        hilb_minus_cell_dimension(triple, action)
    raise InternalInvariantViolation(
        "a chart table check of %r fails at no fixed point" % (action,)
    )


def chart_tables(action):
    """Per chart, the count polynomials H_0..H_k of the diagrams with at
    most k = action.k boxes at that coordinate point: q^c in H_s counts
    the diagrams of size s with c negative tangent weights.  A fixed
    point's cell dimension is the sum of its three charts' counts.  Each
    (chart, diagram) is walked once per call, and nothing is kept between
    calls.

    Every Gotzmann image of degree k is checked on the way.  A triple's
    image has exactly k monomials outside when each chart's diagram puts
    |mu| distinct ones outside and no two charts share one.  Diagrams
    (chart a, mu) and (chart b, nu) share a triple exactly when
    |mu| + |nu| <= k, so charts a < b share none exactly when, for every
    s, chart a's positions over diagrams of at most s boxes miss chart
    b's over diagrams of at most k - s.  These checks only detect: on a
    failed one, or a zero weight (a bug: see TorusAction), the per-triple
    checks of tangent_weights and outside_positions report it, raising
    InternalInvariantViolation at the first failing fixed point in
    enumerate_hilb_fixed_points order.

    >>> [[h.coeffs for h in chart] for chart in chart_tables(build_torus_action(1))]
    [[(1,), (1,)], [(1,), (0, 1)], [(1,), (0, 0, 1)]]
    """
    k = action.k
    of_size = [partitions_in_box(s, s, s) for s in range(k + 1)]
    tables, reach = [], []
    for chart, phis in enumerate(_chart_weights(action)):
        # counts[s][c]: the chart's diagrams of size s with count c;
        # reach[chart][s]: the bit mask of their outside positions,
        # united over sizes up to s
        counts, union, unions = [[0] * (2 * s + 1) for s in range(k + 1)], 0, []
        for s, diagrams in enumerate(of_size):
            for mu in diagrams:
                count = 0
                for w in _chart_tangent_weights(mu, *phis):
                    if not w:
                        _name_failing_fixed_point(action)
                    count += w < 0
                mask = 0
                for position in _chart_positions(chart, mu.parts, k):
                    mask |= 1 << position
                if mask.bit_count() != s:
                    _name_failing_fixed_point(action)
                counts[s][count] += 1
                union |= mask
            unions.append(union)
        tables.append(tuple(map(IntegerPolynomial, counts)))
        reach.append(unions)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        if any(reach[a][s] & reach[b][k - s] for s in range(k + 1)):
            _name_failing_fixed_point(action)
    return tuple(tables)


def hilb_minus_cell_dimension(triple, action):
    """Number of negative tangent weights, the dimension of the cell flowing
    in under t -> 0, after the Gotzmann image is checked as
    outside_positions does."""
    negative = sum(w < 0 for w in tangent_weights(triple, action))
    outside_positions(triple)
    return negative


def nilpotent_matrix_on_Rk(k, basis_order=None):
    """Matrix of the derivation X_0 -> X_1 -> X_2 -> 0 on R_k, in the given
    basis order (default: monomial_basis(k)).

    Column j holds the image of the j-th basis monomial: by the Leibniz
    rule X_0^a X_1^b X_2^c maps to b*X_0^a X_1^(b-1) X_2^(c+1) +
    a*X_0^(a-1) X_1^(b+1) X_2^c.  The result is nilpotent since each image
    term has strictly smaller (a, b).
    """
    if basis_order is None:
        basis_order = monomial_basis(k)
    order = [tuple(m) for m in basis_order]
    if sorted(order) != list(monomial_basis(k)):
        raise InvalidDegree("basis order is not a permutation of the degree-%d monomials" % k)
    position = {m: i for i, m in enumerate(order)}
    n = len(order)
    entries = [[0] * n for _ in range(n)]
    for j, (a, b, c) in enumerate(order):
        if b > 0:
            entries[position[(a, b - 1, c + 1)]][j] += b
        if a > 0:
            entries[position[(a - 1, b + 1, c)]][j] += a
    return RationalMatrix(entries)


def jordan_regularity_check(k):
    """Jordan type of the nilpotent action on R_k, and whether it consists
    of a single block.  A regular additive-group action would force a
    single block; more than one block obstructs regularity."""
    jt = jordan_type(nilpotent_matrix_on_Rk(k))
    return jt, len(jt) == 1
