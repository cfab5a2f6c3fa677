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

from functools import lru_cache
from operator import index

from .algebra import Partition, RationalMatrix, jordan_type, partitions_in_box
from .errors import (
    ConditionViolated,
    InternalInvariantViolation,
    InvalidDegree,
)
from .grassmann import FixedSubspace, WeightSystem

_CHART_NAMES = ("X_0", "X_1", "X_2")


class MonomialBasis:
    """The ordered monomial basis of R_k, the degree-k forms in three
    variables: exponent triples (a, b, c), a + b + c = k, sorted by
    increasing a then increasing b.  For k = 2 that is X_2^2, X_2*X_1,
    X_1^2, X_2*X_0, X_1*X_0, X_0^2."""

    __slots__ = ("k", "monomials")

    def __init__(self, k):
        if k < 1:
            raise InvalidDegree("k must be at least 1, got %d" % k)
        self.k = k
        self.monomials = tuple(
            (a, b, k - a - b) for a in range(k + 1) for b in range(k - a + 1)
        )

    def __len__(self):
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)

    def __getitem__(self, i):
        return self.monomials[i]

    def label(self, monomial):
        """Human-readable product form, e.g. 'X_1*X_0' for (1, 1, 0)."""
        a, b, c = monomial
        factors = []
        for name, e in (("X_0", a), ("X_1", b), ("X_2", c)):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append("%s^%d" % (name, e))
        return "*".join(factors) if factors else "1"

    def __repr__(self):
        return "MonomialBasis(k=%d, %d monomials)" % (self.k, len(self.monomials))


@lru_cache(maxsize=64)
def monomial_basis(k):
    """The basis of R_k in the standard order; length C(k+2, 2).  One
    shared instance per k, for the 64 most recent k."""
    return MonomialBasis(k)


class TorusAction:
    """A one-parameter torus acting by X_i -> t^(g^lambda_i) X_i, with the
    exponents arranged so the induced weights on degree-k monomials are
    pairwise distinct and generic enough to isolate the fixed points.

    Constructed through build_torus_action, which validates the two
    genericity inequalities.
    """

    __slots__ = ("k", "g", "exponents")

    def __init__(self, k, g, exponents):
        self.k = k
        self.g = g
        self.exponents = tuple(exponents)

    @property
    def coordinate_weights(self):
        """(g^lambda_0, g^lambda_1, g^lambda_2)."""
        return tuple(self.g ** e for e in self.exponents)

    def monomial_weight(self, monomial):
        a, b, c = monomial
        wa, wb, wc = self.coordinate_weights
        return a * wa + b * wb + c * wc

    def weight_system(self):
        """Induced WeightSystem on the monomial basis of R_k."""
        return WeightSystem(tuple(self.monomial_weight(m) for m in monomial_basis(self.k)))

    def __repr__(self):
        return "TorusAction(k=%d, g=%d, exponents=%r)" % (self.k, self.g, self.exponents)


def build_torus_action(k, g=None, lam0=3, lam1=2, lam2=1):
    """Validate and build the torus action for degree k.

    Checks, in order: g^lam1 > c*g^lam2 for 0 <= c <= k; then
    g^lam0 > a*g^lam1 + b*g^lam2 for all a + b = k; then pairwise
    distinctness of the induced monomial weights.  A violated inequality
    raises ConditionViolated naming it with the offending numbers.

    The default g = k+1 with exponents (3, 2, 1) always passes: digits of a
    base-g expansion never exceed k < g.
    """
    if k < 1:
        raise InvalidDegree("k must be at least 1, got %d" % k)
    if g is None:
        g = k + 1
    g, lam0, lam1, lam2 = map(index, (g, lam0, lam1, lam2))
    if g < 2:
        raise ConditionViolated("need g > 1, got g=%d" % g)
    if min(lam0, lam1, lam2) < 1:
        raise ConditionViolated(
            "exponents must be positive, got (%d, %d, %d)" % (lam0, lam1, lam2)
        )
    wa, wb, wc = g ** lam0, g ** lam1, g ** lam2
    for c in range(k + 1):
        if not wb > c * wc:
            raise ConditionViolated(
                "condition (2) fails: g^%d > %d*g^%d is false (%d > %d*%d)"
                % (lam1, c, lam2, wb, c, wc)
            )
    for a in range(k + 1):
        b = k - a
        if not wa > a * wb + b * wc:
            raise ConditionViolated(
                "condition (1) fails: g^%d > %d*g^%d + %d*g^%d is false (%d > %d)"
                % (lam0, a, lam1, b, lam2, wa, a * wb + b * wc)
            )
    action = TorusAction(k, g, (lam0, lam1, lam2))
    weights = [action.monomial_weight(m) for m in monomial_basis(k)]
    if len(set(weights)) != len(weights):
        raise ConditionViolated("induced monomial weights are not pairwise distinct")
    return action


class PartitionTriple:
    """A torus-fixed point of Hilb_k(P^2): one partition per coordinate
    point of the plane, total size k.  The text form joins the three
    partitions with ';', e.g. '1;1;' for ((1), (1), empty)."""

    __slots__ = ("mu0", "mu1", "mu2")

    def __init__(self, mu0, mu1, mu2):
        self.mu0 = mu0 if isinstance(mu0, Partition) else Partition(mu0)
        self.mu1 = mu1 if isinstance(mu1, Partition) else Partition(mu1)
        self.mu2 = mu2 if isinstance(mu2, Partition) else Partition(mu2)

    @property
    def size(self):
        return self.mu0.size + self.mu1.size + self.mu2.size

    @property
    def parts(self):
        return (self.mu0, self.mu1, self.mu2)

    def __eq__(self, other):
        if not isinstance(other, PartitionTriple):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "PartitionTriple(%r, %r, %r)" % (
            self.mu0.parts,
            self.mu1.parts,
            self.mu2.parts,
        )

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
    if k < 1:
        raise InvalidDegree("k must be at least 1, got %d" % k)
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


def outside_positions(triple, k):
    """The ascending 1-based positions in monomial_basis(k) of the degree-k
    monomials outside the ideal of a fixed point of total size k.

    X_0^a X_1^b X_2^c lies outside exactly when (b, c) is a box of mu0,
    (a, c) a box of mu1 or (a, b) a box of mu2, so the positions are a
    union over the three charts, read off the k boxes rather than a scan
    of all C(k+2, 2) monomials.  Since k bounds the regularity there are
    exactly k of them; any other count trips InternalInvariantViolation.

    >>> outside_positions(PartitionTriple.parse("1;1;"), 2)
    (3, 6)
    """
    found = set()
    for chart, mu in enumerate(triple.parts):
        found.update(_chart_positions(chart, mu.parts, k))
    _check_outside(triple, found, k)
    return tuple(sorted(found))


def _check_outside(triple, found, k):
    if len(found) != k:
        message = "%s leaves %d degree-%d monomials outside its ideal, expected %d"
        raise InternalInvariantViolation(message % (triple, len(found), k, k))


def degree_k_part(triple, k):
    """The Gotzmann image of a fixed point: the coordinate subspace of R_k
    spanned by the degree-k monomials inside the monomial ideal, the
    complement of outside_positions.  Since k bounds the regularity the
    image always has dimension C(k+2,2) - k; anything else trips
    InternalInvariantViolation.
    """
    if triple.size != k:
        raise InvalidDegree(
            "triple has total size %d, expected k=%d" % (triple.size, k)
        )
    n = len(monomial_basis(k))
    outside = set(outside_positions(triple, k))
    return FixedSubspace(tuple(i for i in range(1, n + 1) if i not in outside), n)


def _chart_weights(action):
    # (phi_u, phi_w), the weights of the two local coordinates at each of
    # the three coordinate points.
    wa, wb, wc = action.coordinate_weights
    return ((wb - wa, wc - wa), (wa - wb, wc - wb), (wa - wc, wb - wc))


def _check_degree(triple, action):
    if triple.size != action.k:
        raise InvalidDegree(
            "torus action built for k=%d, %s has total size %d"
            % (action.k, triple, triple.size)
        )


def _chart_tangent_weights(mu, phi_u, phi_w):
    # The two tangent weights of every box of mu at a chart with local
    # weights (phi_u, phi_w), row by row, as tangent_weights spells out.
    parts = mu.parts
    conj = [0] * (parts[0] if parts else 0)
    for width in parts:
        for c in range(width):
            conj[c] += 1
    for r, width in enumerate(parts):
        for c in range(width):
            arm, leg = width - c - 1, conj[c] - r - 1
            yield -(leg + 1) * phi_u + arm * phi_w
            yield leg * phi_u - (arm + 1) * phi_w


def _chart_entry(chart, mu, phis, k):
    # (negative tangent-weight count, outside positions) of one chart's
    # diagram, or None when one of its tangent weights is zero.
    count = 0
    for w in _chart_tangent_weights(mu, *phis):
        if not w:
            return None
        count += w < 0
    return count, _chart_positions(chart, mu.parts, k)


def _not_generic(triple):
    return InternalInvariantViolation(
        "zero tangent weight at %s; torus action is not generic" % (triple,)
    )


def tangent_weights(triple, action):
    """The 2k torus weights on the tangent space of Hilb_k(P^2) at the
    fixed point.

    Chartwise: at the coordinate point carrying mu, the two local
    coordinate functions scale with weights (phi_u, phi_w), and each box
    contributes the pair

        -(leg+1)*phi_u + arm*phi_w      and      leg*phi_u - (arm+1)*phi_w.

    Boxes come row by row, mu0 then mu1 then mu2.  The leg of box (r, c),
    the number of boxes below it, is conj[c] - r - 1, where conj is the
    conjugate partition.  All weights are nonzero for a valid action, so
    fixed points are isolated.  An action built for another k than the
    triple's total size raises InvalidDegree.
    """
    _check_degree(triple, action)
    weights = tuple(
        w
        for mu, phis in zip(triple.parts, _chart_weights(action))
        for w in _chart_tangent_weights(mu, *phis)
    )
    if 0 in weights:
        raise _not_generic(triple)
    return weights


def cell_dimensions(triples, action):
    """Yield hilb_minus_cell_dimension of each triple, under one action,
    and check its Gotzmann image as outside_positions does.  A chart's
    negative count and outside positions depend only on (chart, diagram),
    so each is worked out once per call, in that chart's table keyed by
    the diagram's parts.  A zero weight or an action for another k raises
    as tangent_weights does."""
    k, phis = action.k, _chart_weights(action)
    tables = ({}, {}, {})
    for triple in triples:
        _check_degree(triple, action)
        dimension, found = 0, set()
        for chart, mu in enumerate(triple.parts):
            entry = tables[chart].get(mu.parts)
            if entry is None:
                entry = _chart_entry(chart, mu, phis[chart], k)
                if entry is None:
                    raise _not_generic(triple)
                tables[chart][mu.parts] = entry
            dimension += entry[0]
            found.update(entry[1])
        _check_outside(triple, found, k)
        yield dimension


def _witness(k, placed):
    # A fixed point of total size k with the given {chart: diagram}, its
    # other boxes in one row at the first chart left free.
    parts = [placed.get(chart, ()) for chart in range(3)]
    rest = k - sum(mu.size for mu in placed.values())
    parts[min({0, 1, 2} - placed.keys())] = (rest,) if rest else ()
    return PartitionTriple(*parts)


def _add_product(acc, f, g):
    # acc += f * g, on coefficient lists in q
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                acc[i + j] += a * b


def _check_charts_disjoint(k, masks):
    # masks[c][s] pairs each chart-c diagram of size s with its outside
    # positions; chart b's union over sizes up to t grows with t, and
    # meets each chart-a diagram (a < b) of size k - t.
    for b in (1, 2):
        union = 0
        for t in range(k + 1):
            for _, mask in masks[b][t]:
                union |= mask
            for a in range(b):
                for mu, mask in masks[a][k - t]:
                    if mask & union:
                        nu = next(
                            nu for row in masks[b][: t + 1] for nu, other in row if mask & other
                        )
                        raise InternalInvariantViolation(
                            "%s: charts %s and %s put the same degree-%d monomial outside"
                            % (_witness(k, {a: mu, b: nu}), _CHART_NAMES[a], _CHART_NAMES[b], k)
                        )


def _full_set_betti(k, action):
    """[b_0, ..., b_2k]: the number of fixed points of Hilb_k(P^2) whose
    cell has dimension p, each Gotzmann image checked, from per-chart
    tables alone, with no triple built.

    A triple's cell dimension is a sum of chart terms, so with
    H_c,s(q) = sum over diagrams mu of size s of q^(chart c's negative
    count), the cell polynomial is the sum over s0 + s1 + s2 = k of
    H_0,s0 * H_1,s1 * H_2,s2: first G_s = sum H_0,s0 * H_1,s-s0, then
    sum G_s * H_2,k-s.  Each (chart, diagram) of size at most k is walked
    once.

    A triple's image has exactly k monomials outside when each chart's
    diagram puts |mu| distinct ones outside and no two charts share one.
    Diagrams (chart a, mu) and (chart b, nu) share a triple exactly when
    |mu| + |nu| <= k, so each (chart a, mu) is checked against the union
    of chart b's positions over diagrams of size at most k - |mu|.  A
    failed check or a zero weight raises InternalInvariantViolation
    naming a triple that meets it; an action for another k raises
    InvalidDegree.

    >>> _full_set_betti(2, build_torus_action(2))
    [1, 2, 3, 2, 1]
    """
    if k < 1:
        raise InvalidDegree("k must be at least 1, got %d" % k)
    if action.k != k:
        raise InvalidDegree("torus action built for k=%d, expected k=%d" % (action.k, k))
    of_size = [partitions_in_box(s, s, s) for s in range(k + 1)]
    # polys[c][s] is H_c,s; masks[c][s] pairs each diagram of size s with
    # its chart-c outside positions as a bit mask
    polys, masks = [], []
    for chart, phis in enumerate(_chart_weights(action)):
        polys.append([[0] * (2 * s + 1) for s in range(k + 1)])
        masks.append([[] for _ in range(k + 1)])
        for s, diagrams in enumerate(of_size):
            for mu in diagrams:
                entry = _chart_entry(chart, mu, phis, k)
                if entry is None:
                    raise _not_generic(_witness(k, {chart: mu}))
                mask = 0
                for position in entry[1]:
                    mask |= 1 << position
                distinct = mask.bit_count()
                if distinct != s:
                    raise InternalInvariantViolation(
                        "%s: chart %s puts %d distinct degree-%d monomials outside, expected %d"
                        % (_witness(k, {chart: mu}), _CHART_NAMES[chart], distinct, k, s)
                    )
                polys[chart][s][entry[0]] += 1
                masks[chart][s].append((mu, mask))
    _check_charts_disjoint(k, masks)
    h0, h1, h2 = polys
    betti = [0] * (2 * k + 1)
    for s in range(k + 1):
        g = [0] * (2 * s + 1)
        for s0 in range(s + 1):
            _add_product(g, h0[s0], h1[s - s0])
        _add_product(betti, g, h2[k - s])
    return betti


def hilb_minus_cell_dimension(triple, action):
    """Number of negative tangent weights, the dimension of the cell flowing
    in under t -> 0: one-triple cell_dimensions, Gotzmann image checked."""
    return next(cell_dimensions([triple], action))


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
    expected = sorted(monomial_basis(k))
    if sorted(order) != expected:
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
