"""Betti numbers from fixed-point data, by two routes.

* filtration_betti, on Grassmannian fixed subspaces: the function-theoretic
  route.  Schur polynomials evaluated at the tangent weights of the fixed
  points filter the function space on the fixed locus by partition size,
  and the rank jumps of the evaluation matrix are the Betti numbers
  (Carrell's basis theorem).

* hilb_betti, on Hilb_k(P^2): the cell route.  Each fixed point carries an
  attracting cell whose dimension is the number of negative tangent
  weights, and the cell dimensions count Betti numbers directly.  A cell
  dimension is a sum of three chart counts, read from one table,
  gotzmann.chart_tables, that checks every Gotzmann image of degree k;
  hilb_betti convolves its counts and never builds a triple.

Betti numbers and the greedy Schur basis read the one Schur-rank loop,
schur_rank_steps, which stops evaluating at the row that fills the rank:
the number of distinct points, by the interpolation theorem of
equivariant.localization_rank_check, which therefore runs no scan.

On the Hilbert scheme the pure Schur rows of size p need not span the
degree-p graded piece (already for k = 2 there is a single partition of
size 1 but b_1 = 2), so the evaluation route computes a genuinely
different, smaller filtration there; select_schur_basis reports exactly
how far the pure rows get instead of silently substituting products.
"""

from operator import index

from .algebra import (
    IntegerPolynomial,
    RowSpace,
    partitions_in_box,
    schur_evaluate,
    strip_cyclotomic_factors,
)
from .errors import InvalidDegree
from .gotzmann import _degree, build_torus_action, chart_tables
from .grassmann import box_of

NOT_REGULAR = "NOT_REGULAR"
INCONCLUSIVE = "INCONCLUSIVE"


class BettiTable:
    """Betti numbers b_0..b_P and the number of fixed points they were
    read from."""

    __slots__ = ("betti", "fixed_points")

    def __init__(self, betti, fixed_points):
        self.betti = tuple(index(b) for b in betti)
        self.fixed_points = index(fixed_points)

    def poincare_q(self):
        return IntegerPolynomial(self.betti)

    def poincare_t(self):
        """Poincare polynomial in t, so b_p sits on t^(2p)."""
        return self.poincare_q().interleave_zero()

    def is_palindromic(self):
        return self.betti == self.betti[::-1]

    def total(self):
        return sum(self.betti)

    def to_json_dict(self):
        return {
            "betti": list(self.betti),
            "poincare_t": self.poincare_t().coefficient_list(),
            "fixed_points": self.fixed_points,
        }

    def __repr__(self):
        return "BettiTable(betti=%r, fixed_points=%d)" % (self.betti, self.fixed_points)


def filtration_betti(points, ws):
    """Betti numbers of the Grassmannian carrying the given fixed
    subspaces, with their ambient WeightSystem ws: r_p is the rank of the
    evaluation matrix over the box partitions of size at most p, and
    b_p = r_p - r_{p-1}, for p = 0 up to the box area k(n-k).

    The points go to box_of, so no points raise BoxViolation and a list
    that is not all FixedSubspace raises TypeError.  The Betti numbers of
    Hilb_k(P^2) are hilb_betti(k, action).
    """
    points = list(points)
    return BettiTable([len(grew) for grew in schur_rank_steps(points, ws)], len(points))


def schur_rank_steps(points, ws, p_max=None):
    """For p = 0..p_max (default: the area of box_of(points)), the box
    partitions of size p, scanned in descending lexicographic order, whose
    evaluation rows grow the rank of one row space.  Evaluation stops at
    the row that brings the rank to the number of distinct points, as no
    later row can grow it (equivariant.localization_rank_check); the
    remaining sizes yield [].

    >>> from cohomix.grassmann import WeightSystem, enumerate_fixed_subspaces
    >>> ws, points = WeightSystem.principal(4), enumerate_fixed_subspaces(4, 2)
    >>> [[mu.parts for mu in grew] for grew in schur_rank_steps(points, ws)]
    [[()], [(1,)], [(2,), (1, 1)], [(2, 1)], [(2, 2)]]
    >>> [[mu.parts for mu in grew] for grew in schur_rank_steps(points[:2], ws)]
    [[()], [(1,)], [], [], []]
    """
    points = list(points)
    box = box_of(points)
    if p_max is None:
        p_max = box[0] * box[1]
    if p_max < 0:
        raise InvalidDegree("p_max must be nonnegative")
    weight_sets = [ws.at(pt.indices) for pt in points]
    full = len(set(points))
    space = RowSpace(len(points))
    for p in range(p_max + 1):
        grew = []
        if space.rank < full:
            for mu in partitions_in_box(box[0], box[1], p):
                row = {c: x for c, wset in enumerate(weight_sets) if (x := schur_evaluate(mu, wset))}
                if space.add(row):
                    grew.append(mu)
                    if space.rank == full:
                        break
        yield tuple(grew)


class SchurBasisSelection(dict):
    """Outcome of the greedy Schur-row selection: a dict p -> tuple of the
    chosen partitions, in increasing p, and in `deficiencies` the report
    against an expected Betti sequence when one was supplied."""

    __slots__ = ("deficiencies",)


def select_schur_basis(points, ws, p_max=None, expected_betti=None):
    """Greedily pick, for each size p, the partitions whose evaluation rows
    grow the rank past the span of all smaller sizes.

    The scan is schur_rank_steps over the box of the points (box_of), so
    the outcome is deterministic and a negative p_max raises InvalidDegree.
    The chosen rows always realize the full rank jump of the size-p block
    (greedy selection from a spanning family cannot miss an achievable
    jump), which on the Grassmannian equals the Betti number b_p.  On a
    restricted fixed set the jump can be smaller than the true Betti
    number; pass expected_betti to have the shortfall reported in
    `deficiencies` as {p: (achieved, expected)} rather than papered over.
    Only the sizes that both the scan and expected_betti reach are
    compared.  Points that are not FixedSubspace raise TypeError, and no
    points BoxViolation, both from box_of.
    """
    selection = SchurBasisSelection(enumerate(schur_rank_steps(points, ws, p_max)))
    selection.deficiencies = {
        p: (len(chosen), expected)
        for (p, chosen), expected in zip(selection.items(), expected_betti or ())
        if len(chosen) < expected
    }
    return selection


def hilb_betti(k, action=None):
    """Cell-route Betti table of Hilb_k(P^2): b_p counts the fixed points
    whose attracting cell has dimension p under the torus action (default:
    build_torus_action(k)), with no triple built.  k < 1 (read as gotzmann
    reads k), or an action for another degree, raises InvalidDegree.

    gotzmann.chart_tables, which checks every Gotzmann image, gives H_c,s(q),
    the sum of q^count over chart c's diagrams of size s.  The cell
    polynomial is the sum over s0 + s1 + s2 = k of H_0,s0 * H_1,s1 *
    H_2,s2: first G_s = sum H_0,s0 * H_1,s-s0, then sum G_s * H_2,k-s.

    >>> hilb_betti(2)
    BettiTable(betti=(1, 2, 3, 2, 1), fixed_points=9)
    """
    k = _degree(k)
    action = action or build_torus_action(k)
    if action.k != k:
        raise InvalidDegree("torus action built for k=%d, expected k=%d" % (action.k, k))
    h0, h1, h2 = chart_tables(action)
    poly = IntegerPolynomial()
    for s in range(k + 1):
        g = sum((h0[s0] * h1[s - s0] for s0 in range(s + 1)), IntegerPolynomial())
        poly += g * h2[k - s]
    betti = [poly.coefficient(p) for p in range(2 * k + 1)]
    return BettiTable(betti, sum(betti))


def poincare_of_hilb(k, action=None):
    """Poincare polynomial of Hilb_k(P^2) in t (even exponents only), the
    sum of t^(2 * cell dimension) over the fixed points: the poincare_t of
    hilb_betti, which also checks every Gotzmann image."""
    return hilb_betti(k, action).poincare_t()


def b2_regularity_verdict(poly):
    """Root-of-unity obstruction to a regular group action.

    A variety with the relevant regular action has a Poincare polynomial
    that factors over cyclotomic polynomials and powers of the variable, so
    all roots are zero or roots of unity.  A residual factor after
    stripping those proves the action cannot exist: NOT_REGULAR.  A clean
    factorization proves nothing: INCONCLUSIVE.
    """
    is_product, _residual = strip_cyclotomic_factors(poly)
    return INCONCLUSIVE if is_product else NOT_REGULAR
