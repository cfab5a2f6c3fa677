"""Acceptance criteria, one test per criterion.

Every equality below is exact integer or rational arithmetic with zero
tolerance.  Each test prints a single PASS line on success; pytest's own
FAILED line marks the failure case.  Time budgets are asserted where the
criterion carries one.
"""

import time
from itertools import permutations

from hypothesis import given, settings, strategies as st

from cohomix.algebra import (
    IntegerPolynomial,
    jordan_type,
    partitions_in_box,
    schur_evaluate,
)
from cohomix.equivariant import localization_rank_check
from cohomix.filtration import (
    INCONCLUSIVE,
    NOT_REGULAR,
    b2_regularity_verdict,
    filtration_betti,
    hilb_betti,
)
from cohomix.gotzmann import (
    build_torus_action,
    degree_k_part,
    enumerate_hilb_fixed_points,
    jordan_regularity_check,
    monomial_basis,
    nilpotent_matrix_on_Rk,
)
from cohomix.grassmann import (
    WeightSystem,
    enumerate_fixed_subspaces,
    equivariant_presentation,
    graded_dimension,
    ordinary_presentation,
    poincare_from_cells,
    poincare_from_regular_sequence,
    specialize_v,
    w_degree,
)

from oracles import gaussian_binomial

G3_T_COEFFS = (1, 0, 2, 0, 5, 0, 6, 0, 5, 0, 2, 0, 1)

PAPER_6x6 = [
    [0, 1, 0, 0, 0, 0],
    [0, 0, 1, 2, 0, 0],
    [0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 2],
    [0, 0, 0, 0, 0, 0],
]
REMARK_BASIS = [(0, 0, 2), (0, 1, 1), (1, 0, 1), (0, 2, 0), (1, 1, 0), (2, 0, 0)]


def _report(number, text):
    print("PASS criterion %d: %s" % (number, text))


def _w_degrees(n, k):
    return [
        w_degree(i, j, n, k) for i in range(1, n - k + 1) for j in range(1, k + 1)
    ]


def test_criterion_1_poincare_from_cells_is_gaussian():
    """Cell-dimension Poincare polynomials equal the Gaussian binomials for
    (4,2), (6,2), (10,3), each computed in under a second."""
    for n, k in ((4, 2), (6, 2), (10, 3)):
        start = time.monotonic()
        poly = poincare_from_cells(WeightSystem.principal(n), k)
        elapsed = time.monotonic() - start
        assert poly.coefficient_list() == gaussian_binomial(n, k), (n, k)
        assert elapsed < 1.0, "took %.3fs for (%d,%d)" % (elapsed, n, k)
    _report(1, "cell Poincare polynomials equal Gaussian binomials, < 1 s each")


def test_criterion_2_regular_sequence_consistency():
    """The regular-sequence product over the generator degrees, each
    relation one degree above its generator, reproduces the cell answer
    exactly for the same three Grassmannians."""
    for n, k in ((4, 2), (6, 2), (10, 3)):
        from_cells = poincare_from_cells(WeightSystem.principal(n), k)
        from_product = poincare_from_regular_sequence(_w_degrees(n, k))
        assert from_cells == from_product, (n, k)
    _report(2, "regular-sequence product formula agrees with cells exactly")


def test_criterion_3_graded_dimensions_match_gaussian():
    """Degreewise dimensions of the presented quotient ring match the
    Gaussian binomial coefficients: (4,2) for d <= 5, (6,2) for d <= 2,
    inside 30 seconds."""
    start = time.monotonic()
    gauss42 = gaussian_binomial(4, 2)
    pres42 = ordinary_presentation(4, 2)
    for d in range(6):
        expected = gauss42[d] if d < len(gauss42) else 0
        assert graded_dimension(pres42, d) == expected, ("(4,2)", d)
    gauss62 = gaussian_binomial(6, 2)
    pres62 = ordinary_presentation(6, 2)
    for d in range(3):
        assert graded_dimension(pres62, d) == gauss62[d], ("(6,2)", d)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, "took %.3fs" % elapsed
    _report(3, "graded dimensions of the presentations match, < 30 s")


def test_criterion_4_fixed_point_counts():
    """3, 9, 22 fixed points for k = 1, 2, 3, with 22 cross-checked against
    the value at t = 1 of the frozen degree-3 Poincare polynomial."""
    counts = [len(enumerate_hilb_fixed_points(k)) for k in (1, 2, 3)]
    assert counts == [3, 9, 22]
    g3 = IntegerPolynomial(G3_T_COEFFS)
    assert g3(1) == 22
    assert counts[2] == g3(1)
    _report(4, "fixed-point counts 3, 9, 22; k=3 count equals g3(1)")


def test_criterion_5_gotzmann_embedding():
    """Every embedded fixed point with k <= 4 is a coordinate subspace of
    dimension C(k+2,2) - k, and distinct fixed points embed differently."""
    for k in range(1, 5):
        n = len(monomial_basis(k))
        images = []
        for t in enumerate_hilb_fixed_points(k):
            image = degree_k_part(t, k)
            assert image.dim == n - k, (k, str(t))
            images.append(image.indices)
        assert len(set(images)) == len(images), k
    _report(5, "Gotzmann images all have dimension C(k+2,2)-k and are distinct")


def test_criterion_6_hilb_betti_numbers():
    """The cell route gives Betti numbers (1,1,1), (1,2,3,2,1),
    (1,2,5,6,5,2,1) for k = 1, 2, 3, with k = 3 inside 60 seconds."""
    expected = {
        1: (1, 1, 1),
        2: (1, 2, 3, 2, 1),
        3: (1, 2, 5, 6, 5, 2, 1),
    }
    for k in (1, 2):
        table = hilb_betti(k)
        assert table.betti == expected[k], k
    start = time.monotonic()
    table3 = hilb_betti(3)
    elapsed = time.monotonic() - start
    assert table3.betti == expected[3]
    assert table3.poincare_t().coeffs == G3_T_COEFFS
    assert elapsed < 60.0, "took %.3fs" % elapsed
    _report(6, "Hilbert-scheme Betti numbers for k = 1, 2, 3, k=3 < 60 s")


def test_criterion_7_localization():
    """Betti totals equal fixed-point counts for k <= 3, and the Schur
    evaluation matrix reaches full rank on every embedded fixed set (k <= 3)
    and on the full Grassmannian fixed sets for (4,2) and (6,2)."""
    for k in (1, 2, 3):
        triples = enumerate_hilb_fixed_points(k)
        assert hilb_betti(k).total() == len(triples), k
        ws = build_torus_action(k).weight_system()
        points = [degree_k_part(t, k) for t in triples]
        assert filtration_betti(points, ws).total() == len(points), k
        assert localization_rank_check(points, ws) == (len(points), True), k
    for n, k in ((4, 2), (6, 2)):
        ws = WeightSystem.principal(n)
        points = enumerate_fixed_subspaces(n, k)
        assert filtration_betti(points, ws).total() == len(points), (n, k)
        assert localization_rank_check(points, ws) == (len(points), True), (n, k)
    _report(7, "Betti sums equal point counts; localization rank full everywhere")


def test_criterion_8_regularity_obstructions():
    """g3 is NOT_REGULAR; both Gaussian binomials are INCONCLUSIVE; the
    degree-2 nilpotent matrix is bit-equal to the reference 6x6 with Jordan
    type (5,1) (not regular); degree 1 gives a single block (3)."""
    assert b2_regularity_verdict(IntegerPolynomial(G3_T_COEFFS)) == NOT_REGULAR
    for n, k in ((4, 2), (6, 2)):
        poly = IntegerPolynomial(gaussian_binomial(n, k))
        assert b2_regularity_verdict(poly) == INCONCLUSIVE, (n, k)
    matrix = nilpotent_matrix_on_Rk(2, REMARK_BASIS)
    assert [[int(x) for x in row] for row in matrix.entries] == PAPER_6x6
    assert jordan_type(matrix) == (5, 1)
    assert jordan_regularity_check(2) == ((5, 1), False)
    assert jordan_regularity_check(1) == ((3,), True)
    _report(8, "cyclotomic and Jordan obstructions all give the pinned verdicts")


def test_criterion_9_equivariant_specialization():
    """Setting v = 0 in the equivariant presentation gives exactly -2 times
    each ordinary relation, term by term, for (4,2) and (6,2)."""
    for n, k in ((4, 2), (6, 2)):
        ordinary = ordinary_presentation(n, k)
        specialized = specialize_v(equivariant_presentation(n, k), 0)
        assert specialized.variables == ordinary.variables, (n, k)
        assert specialized.degrees == ordinary.degrees, (n, k)
        assert len(specialized.relations) == len(ordinary.relations), (n, k)
        for got, base in zip(specialized.relations, ordinary.relations):
            assert got.terms == base.scale(-2).terms, (n, k)
    _report(9, "equivariant relations specialize at v=0 to -2 x ordinary")


@settings(deadline=None, max_examples=50)
@given(
    st.sampled_from(list(permutations((2, 5, 11, 17)))),
    st.sampled_from([(1,), (2,), (1, 1), (2, 1), (2, 2, 1)]),
)
def _schur_symmetry(points, mu):
    assert schur_evaluate(mu, points) == schur_evaluate(mu, tuple(sorted(points)))


def test_criterion_10_property_suites():
    """Palindromy of every computed Betti sequence, homogeneity of every
    generated relation, Schur symmetry under permutation of the points, and
    box-partition counts matching Gaussian coefficients, all in under two
    minutes."""
    start = time.monotonic()
    # palindromy: Grassmannian and Hilbert-scheme tables
    for n, k in ((4, 2), (6, 2), (10, 3)):
        ws = WeightSystem.principal(n)
        table = filtration_betti(enumerate_fixed_subspaces(n, k), ws)
        assert table.is_palindromic(), (n, k)
    for k in range(1, 5):
        table = hilb_betti(k)
        assert table.is_palindromic(), k
        assert table.total() == len(enumerate_hilb_fixed_points(k))
    # homogeneity of every relation over a grid of shapes
    for n, k in ((3, 1), (4, 2), (5, 2), (6, 2), (6, 3), (7, 3)):
        degrees = tuple(_w_degrees(n, k))
        relations = ordinary_presentation(n, k).relations
        for i in range(1, n - k + 1):
            for j in range(1, k + 1):
                rel = relations[(i - 1) * k + j - 1]
                assert rel.homogeneous_degree(degrees) == w_degree(i, j, n, k) + 1
    # Schur symmetry (hypothesis engine)
    _schur_symmetry()
    # box-partition counts against the Gaussian binomial, boxes up to 6x6
    for m in range(7):
        for k in range(7):
            expected = gaussian_binomial(m + k, k)
            got = [len(partitions_in_box(m, k, p)) for p in range(m * k + 1)]
            assert got == expected, (m, k)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, "took %.3fs" % elapsed
    _report(10, "palindromy, homogeneity, Schur symmetry, partition counts, < 2 min")
