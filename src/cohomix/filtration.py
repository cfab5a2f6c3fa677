"""Betti numbers from fixed-point data.

Two realizations of the same fixed-point filtration, chosen by the kind of
point handed in:

* Grassmannian fixed subspaces: the function-theoretic route.  Schur
  polynomials evaluated at the tangent weights of the fixed points filter
  the function space on the fixed locus by partition size, and the rank
  jumps of the evaluation matrix are the Betti numbers (Carrell's basis
  theorem).

* Hilbert-scheme partition triples: the cell route.  Each fixed point
  carries an attracting cell whose dimension is the number of negative
  tangent weights, and the cell dimensions count Betti numbers directly.
  For the whole fixed set of degree k, hilb_betti convolves per-chart
  counts instead and never builds a triple.

Betti numbers, the greedy Schur basis and the localization rank all read
the one Schur-rank loop, schur_rank_steps, which stops evaluating at the
row that fills the rank.

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
from .errors import BoxViolation, InvalidDegree
from .gotzmann import (
    PartitionTriple,
    _full_set_betti,
    build_torus_action,
    cell_dimensions,
)
from .grassmann import FixedSubspace

NOT_REGULAR = "NOT_REGULAR"
INCONCLUSIVE = "INCONCLUSIVE"


def box_of(points):
    """The points' common (parts, part size) box."""
    if not points:
        raise BoxViolation("need at least one fixed point")
    dims = {pt.dim for pt in points}
    ns = {pt.n for pt in points}
    if len(dims) != 1 or len(ns) != 1:
        raise BoxViolation("points live in different Grassmannians")
    n = ns.pop()
    d = dims.pop()
    return d, n - d


def check_fits(mu, box):
    """Raise BoxViolation unless the partition mu fits in the box."""
    max_parts, max_part = box
    if len(mu) > max_parts or (len(mu) > 0 and mu[0] > max_part):
        raise BoxViolation(
            "partition %s does not fit in the %d x %d box" % (mu, max_parts, max_part)
        )


class BettiTable:
    """Betti numbers b_0..b_P with their cumulative ranks and the number
    of fixed points they were read from."""

    __slots__ = ("betti", "cumulative", "fixed_points")

    def __init__(self, betti, fixed_points):
        self.betti = tuple(index(b) for b in betti)
        acc, cum = 0, []
        for b in self.betti:
            acc += b
            cum.append(acc)
        self.cumulative = tuple(cum)
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


def _is_triple_list(points):
    return bool(points) and all(isinstance(pt, PartitionTriple) for pt in points)


def _is_subspace_list(points):
    return bool(points) and all(isinstance(pt, FixedSubspace) for pt in points)


def filtration_betti(points, ws=None, p_max=None, action=None):
    """Betti numbers of the variety carrying the given fixed points.  Each
    route reads only its own arguments and raises TypeError on the others.

    Grassmannian fixed subspaces, with their ambient WeightSystem ws: r_p
    is the rank of the evaluation matrix over the box partitions of size
    at most p, and b_p = r_p - r_{p-1}, for p = 0..p_max (default: the box
    area k(n-k)).

    Hilbert-scheme partition triples of total size k: b_p, for p = 0..2k,
    counts fixed points whose attracting cell has dimension p, computed
    from the tangent weights of the torus action (default:
    build_torus_action(k)), each (chart, diagram) counted once per call.
    An action for another degree, or triples of mixed total size, raise
    InvalidDegree.  cell_dimensions checks every Gotzmann image as it counts:
    other than k degree-k monomials outside raises InternalInvariantViolation.
    """
    points = list(points)
    if _is_triple_list(points):
        if ws is not None or p_max is not None:
            raise TypeError("partition triples take only an action, not ws or p_max")
        return _cell_betti(points, action)
    if _is_subspace_list(points):
        if action is not None:
            raise TypeError("fixed subspaces take ws and p_max, not an action")
        if ws is None:
            raise ValueError("fixed subspaces need their ambient WeightSystem")
        betti = [len(grew) for grew in schur_rank_steps(points, ws, p_max)]
        return BettiTable(betti, len(points))
    raise TypeError("points must be all FixedSubspace or all PartitionTriple")


def _cell_betti(triples, action):
    k = triples[0].size
    betti = [0] * (2 * k + 1)
    for dimension in cell_dimensions(triples, action or build_torus_action(k)):
        betti[dimension] += 1
    return BettiTable(betti, len(triples))


def schur_rank_steps(points, ws, p_max=None):
    """For p = 0..p_max (default: the area of box_of(points)), the box
    partitions of size p, scanned in descending lexicographic order, whose
    evaluation rows grow the rank of one row space.  Evaluation stops at
    the row that fills the rank, as no later row can grow it; the
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
    space = RowSpace(len(points))
    for p in range(p_max + 1):
        grew = []
        if space.rank < len(points):
            for mu in partitions_in_box(box[0], box[1], p):
                if space.add([schur_evaluate(mu, wset) for wset in weight_sets]):
                    grew.append(mu)
                    if space.rank == len(points):
                        break
        yield grew


class SchurBasisSelection:
    """Outcome of the greedy Schur-row selection: for each size p the
    chosen partitions, plus a deficiency report against an expected Betti
    sequence when one was supplied.  Behaves as a read-only map
    p -> list of Partition."""

    __slots__ = ("by_degree", "deficiencies")

    def __init__(self, by_degree, deficiencies):
        self.by_degree = {p: tuple(mus) for p, mus in by_degree.items()}
        self.deficiencies = dict(deficiencies)

    def __getitem__(self, p):
        return self.by_degree[p]

    def __iter__(self):
        return iter(sorted(self.by_degree))

    def __len__(self):
        return len(self.by_degree)

    def items(self):
        return sorted(self.by_degree.items())

    def achieved(self, p):
        return len(self.by_degree.get(p, ()))

    def is_deficient(self):
        return bool(self.deficiencies)

    def __repr__(self):
        return "SchurBasisSelection(%r)" % (self.by_degree,)


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
    """
    points = list(points)
    if not _is_subspace_list(points):
        raise TypeError("select_schur_basis needs FixedSubspace points")
    by_degree = {}
    deficiencies = {}
    for p, chosen in enumerate(schur_rank_steps(points, ws, p_max)):
        by_degree[p] = chosen
        if expected_betti is not None and p < len(expected_betti):
            expected = expected_betti[p]
            if len(chosen) < expected:
                deficiencies[p] = (len(chosen), expected)
    return SchurBasisSelection(by_degree, deficiencies)


def hilb_betti(k, action=None):
    """Cell-route Betti table of Hilb_k(P^2), the same as filtration_betti
    of all its fixed points, under the torus action (default:
    build_torus_action(k)), but read off per-chart tables by convolution,
    with every Gotzmann image checked and no triple built.  k < 1, or an
    action for another degree, raises InvalidDegree.

    >>> hilb_betti(2)
    BettiTable(betti=(1, 2, 3, 2, 1), fixed_points=9)
    """
    betti = _full_set_betti(k, action or build_torus_action(k))
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
