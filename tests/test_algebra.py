"""Exact-algebra kernel tests against independent oracles."""

import itertools
import operator
import random
from fractions import Fraction
from functools import cache

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cohomix import algebra
from cohomix.algebra import (
    IntegerPolynomial,
    MultiPoly,
    Partition,
    RationalMatrix,
    RowSpace,
    cyclotomic_polynomial,
    euler_phi,
    jordan_type,
    matrix_rank,
    partitions_in_box,
    schur_evaluate,
    strip_cyclotomic_factors,
)
from cohomix.equivariant import LaurentPolynomial, eq_schur_class
from cohomix.errors import NotNilpotent, NotPolynomial
from cohomix.filtration import BettiTable
from cohomix.gotzmann import build_torus_action
from cohomix.grassmann import (
    FixedSubspace,
    GradedPresentation,
    WeightSystem,
    enumerate_fixed_subspaces,
    equivariant_presentation,
    specialize_v,
)

from oracles import (
    brute_force_partitions,
    gaussian_binomial,
    goettsche_betti,
    schur_bialternant,
)


class TestPartition:
    def test_parse_round_trip(self):
        for text in ("", "1", "2,1", "5,5,3,1"):
            assert str(Partition.parse(text)) == text

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_nonpositive_part(self):
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_size_and_len(self):
        mu = Partition((3, 1, 1))
        assert mu.size == 5
        assert len(mu) == 3
        assert mu == (3, 1, 1)


class TestPartitionsInBox:
    def test_matches_brute_force(self):
        for max_parts in range(5):
            for max_part in range(5):
                for size in range(7):
                    got = {p.parts for p in partitions_in_box(max_parts, max_part, size)}
                    assert got == brute_force_partitions(max_parts, max_part, size)

    def test_descending_lex_order(self):
        out = [p.parts for p in partitions_in_box(4, 4, 4)]
        assert out == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_size_zero(self):
        assert partitions_in_box(3, 3, 0) == [Partition(())]
        with pytest.raises(ValueError):
            partitions_in_box(-1, 2, 2)

    def test_many_parts_without_recursion(self):
        assert partitions_in_box(1500, 1, 1500) == [Partition((1,) * 1500)]

    def test_counts_give_gaussian_binomial(self):
        # sum over sizes of the box-partition counts is the Gaussian
        # binomial [m+k choose k]_q coefficient by coefficient
        for m, k in ((2, 2), (4, 2), (3, 3)):
            expected = gaussian_binomial(m + k, k)
            got = [len(partitions_in_box(m, k, p)) for p in range(m * k + 1)]
            assert got == expected


class TestSchurEvaluate:
    def test_against_bialternant_distinct_points(self):
        point_sets = [
            (6, 12, 18, 30),
            # rational points with two or more parts: scaled by D**|mu|
            (Fraction(1, 2), Fraction(-3, 4), 2, Fraction(5, 3)),
            # h_1 = 0 makes the first pivot zero, so Bareiss swaps rows
            (1, -1, 2, -2),
        ]
        for points in point_sets:
            for mu in [(), (1,), (2,), (1, 1), (2, 1), (3, 2, 1), (4, 4, 4, 4)]:
                assert schur_evaluate(mu, points) == schur_bialternant(mu, points)

    def test_worked_value(self):
        assert schur_evaluate((1,), (6, 12, 18, 30)) == 66

    def test_empty_partition_is_one(self):
        assert schur_evaluate((), (5, 7)) == 1

    def test_more_parts_than_points_is_zero(self):
        assert schur_evaluate((1, 1, 1), (5, 7)) == 0

    def test_handles_repeated_points(self):
        # bialternant breaks on repeated points; Jacobi-Trudi must not
        assert schur_evaluate((1,), (3, 3)) == 6
        assert schur_evaluate((1, 1), (3, 3)) == 9
        assert schur_evaluate((2,), (3, 3)) == 27

    def test_rational_points(self):
        half = Fraction(1, 2)
        assert schur_evaluate((1,), (half, half)) == 1

    @settings(deadline=None, max_examples=60)
    @given(
        st.permutations([2, 5, 11, 17]),
        st.sampled_from([(1,), (2, 1), (2, 2), (3, 1, 1)]),
    )
    def test_symmetry_under_point_permutation(self, pts, mu):
        assert schur_evaluate(mu, pts) == schur_evaluate(mu, sorted(pts))


@cache
def ssyt_sum(mu, points):
    """s_mu(points) as the sum over semistandard tableaux with entries
    1..len(points).  The cells holding the largest entry form a horizontal
    strip mu/nu, so s_mu(x_1..x_n) = sum over nu interlacing mu of
    x_n^|mu/nu| s_nu(x_1..x_(n-1)).  Valid at repeated points."""
    if not points:
        return 1 if not mu else 0
    *rest, x = points
    below = mu[1:] + (0,)
    total = 0
    for nu in itertools.product(*[range(b, a + 1) for a, b in zip(mu, below)]):
        nu = tuple(p for p in nu if p)
        total += x ** (sum(mu) - sum(nu)) * ssyt_sum(nu, tuple(rest))
    return total


# Every partition of a 4 x 5 box: both routes, 1 x 1 determinants included.
BOX_4_5 = [mu.parts for p in range(21) for mu in partitions_in_box(4, 5, p)]


class TestSchurRoutes:
    # Jacobi-Trudi in h serves mu_1 >= len(mu), the dual identity in e on the
    # conjugate serves the rest; both are checked on all of BOX_4_5.
    DISTINCT = [
        (0, -3, 2, 7),  # as many points as the box has parts, with a zero
        (-2, 0, 1, 3, -5),  # more points than parts
        (3, -2),  # fewer points than mu_1 and than len(mu)
        (Fraction(1, 2), Fraction(-2, 3), 0, 3),
        (Fraction(5, 4), -1, Fraction(1, 6)),
    ]
    REPEATED = [
        (2, 2, -1),
        (0, 0, 0, 0),
        (3, -1, 3, -1, 3),
        (1, 1, 1, 1, 1),  # s_mu(1^5) counts tableaux
        (Fraction(1, 2), Fraction(1, 2), -2, Fraction(1, 2)),
        (-4,),
    ]

    def test_distinct_points_against_bialternant(self):
        for points in self.DISTINCT:
            for mu in BOX_4_5:
                expected = schur_bialternant(mu, points) if len(mu) <= len(points) else 0
                assert schur_evaluate(mu, points) == expected, (mu, points)

    def test_all_points_against_tableaux_sum(self):
        for points in self.DISTINCT + self.REPEATED:
            for mu in BOX_4_5:
                assert schur_evaluate(mu, points) == ssyt_sum(mu, tuple(points)), (mu, points)

    def test_determinant_size_is_min_of_length_and_first_part(self, monkeypatch):
        sizes = []
        determinant = algebra._determinant
        monkeypatch.setattr(
            algebra, "_determinant", lambda rows: sizes.append(len(rows)) or determinant(rows)
        )
        for mu in BOX_4_5[1:]:
            sizes.clear()
            schur_evaluate(mu, (2, 5, -1, 7, 3))
            size = min(len(mu), mu[0])
            assert sizes == ([size] if size > 1 else []), mu

    def test_cold_and_warm_caches_agree(self):
        for points in self.DISTINCT + self.REPEATED:
            for cached in (algebra._complete_homogeneous, algebra._elementary, algebra._conjugate):
                cached.cache_clear()
            cold = [schur_evaluate(mu, points) for mu in BOX_4_5]
            warm = [schur_evaluate(mu, points) for mu in BOX_4_5]
            assert cold == warm

    def test_whole_fraction_points_cached_first_still_give_ints(self):
        # Whole Fractions equal the ints but are cached apart from them, as
        # the caches are keyed by type: each entry must still read as ints.
        ints = (4, 0, -3, 4)
        fractions = tuple(Fraction(x) for x in ints)
        for cached in (algebra._complete_homogeneous, algebra._elementary):
            cached.cache_clear()
        first = [schur_evaluate(mu, fractions) for mu in BOX_4_5]
        second = [schur_evaluate(mu, ints) for mu in BOX_4_5]
        assert first == second
        assert {type(v) for v in first + second} == {int}

    def test_list_tuple_and_whole_fraction_points_agree(self):
        points = (4, 0, -3, 4)
        for mu in BOX_4_5:
            value = schur_evaluate(mu, points)
            assert type(value) is int
            for same in (list(points), [Fraction(x) for x in points]):
                got = schur_evaluate(mu, same)
                assert got == value and type(got) is int, (mu, same)


class TestDeterminant:
    @staticmethod
    def random_rows(rng, size):
        return [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]

    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_against_sympy(self, size):
        rng = random.Random(65537 + size)
        for _ in range(40):
            rows = self.random_rows(rng, size)
            assert algebra._determinant(rows) == sympy.Matrix(rows).det(), rows

    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_zero_leading_pivot(self, size):
        # A zero in the top-left corner makes Bareiss swap rows first.
        rng = random.Random(size)
        for _ in range(40):
            rows = self.random_rows(rng, size)
            rows[0][0] = 0
            assert algebra._determinant(rows) == sympy.Matrix(rows).det(), rows

    def test_singular(self):
        for size in (2, 3, 4, 5):
            rows = [[i * j for j in range(size)] for i in range(size)]
            assert algebra._determinant(rows) == 0


class TestSchurPartitionInput:
    def test_trailing_zeros_dropped(self):
        assert schur_evaluate((2, 0), (3,)) == 9
        assert schur_evaluate((1, 0, 0), (4, 5)) == 9
        assert schur_evaluate((0, 0), (4, 5)) == 1
        for mu in BOX_4_5:
            assert schur_evaluate(mu + (0, 0), (2, -1, 5)) == schur_evaluate(Partition(mu), (2, -1, 5))

    @pytest.mark.parametrize("mu", [(1, 3), (2, 0, 1), (2, -1), (-1,), (0, 1)])
    def test_non_partitions_rejected(self, mu):
        with pytest.raises(ValueError):
            schur_evaluate(mu, (2, 3, 5))


@pytest.mark.parametrize(
    "build",
    [
        lambda: WeightSystem([Fraction(1, 2), 1, 2]),
        lambda: Partition((2.9, 1)),
        lambda: FixedSubspace((1.5, 2.2), 4),
        lambda: IntegerPolynomial([1.5, 1]),
        lambda: strip_cyclotomic_factors([1, 1.9, 1]),
        lambda: MultiPoly(("x",), {(1.7,): 1}),
        lambda: build_torus_action(2, 3.5),
        lambda: build_torus_action(2, 3, 3, 2.0, 1),
        lambda: GradedPresentation(("x",), [1.5], []),
        lambda: LaurentPolynomial({1.5: 1}),
        lambda: BettiTable([1, 2.7, 1], 4),
        lambda: BettiTable([1, 2, 1], 4.9),
        lambda: RationalMatrix([[0.1, 1]]),
        lambda: schur_evaluate((1,), (1.5, 2)),
        lambda: (schur_evaluate((1,), (Fraction(3, 2), 2)), schur_evaluate((1,), (1.5, 2))),
        lambda: (schur_evaluate((1, 1), (2, 3)), schur_evaluate((1, 1), (2.0, 3))),
        lambda: schur_evaluate((), (1.5,)),
        lambda: schur_evaluate((1, 1), (1.5,)),
        lambda: RowSpace(2).add([1.5, 2]),
        lambda: RowSpace(2).add({0: 1.5}),
        lambda: matrix_rank([[0.1, 1]]),
        lambda: MultiPoly(("x",), {(1,): 0.1}),
        lambda: MultiPoly(("x",), {(1,): "1/3"}),
        lambda: MultiPoly(("x",), {(1,): 1}).scale(0.5),
        lambda: LaurentPolynomial({1: 0.5}),
        lambda: LaurentPolynomial({1: 1})(0.5),
        lambda: RationalMatrix([["1/2"]]),
        lambda: specialize_v(equivariant_presentation(4, 2), 0.1),
        lambda: IntegerPolynomial([1, 1]) * 0.5,
        lambda: IntegerPolynomial([1, 1])(0.5),
        lambda: MultiPoly(("x",), {(1,): 1}) * 0.5,
        lambda: LaurentPolynomial({1: 1}) * 0.5,
        lambda: eq_schur_class(
            (1,), enumerate_fixed_subspaces(4, 2), WeightSystem.principal(4)
        ) * 0.5,
    ],
    ids=[
        "WeightSystem",
        "Partition",
        "FixedSubspace",
        "IntegerPolynomial",
        "strip_cyclotomic_factors",
        "MultiPoly",
        "torus-g",
        "torus-exponent",
        "GradedPresentation",
        "LaurentPolynomial",
        "BettiTable-betti",
        "BettiTable-fixed-points",
        "RationalMatrix",
        "schur_evaluate",
        "schur_evaluate-after-equal-Fraction",
        "schur_evaluate-after-equal-int",
        "schur_evaluate-empty-partition",
        "schur_evaluate-more-parts-than-points",
        "RowSpace.add",
        "RowSpace.add-mapping",
        "matrix_rank",
        "MultiPoly-float-coefficient",
        "MultiPoly-str-coefficient",
        "MultiPoly.scale",
        "LaurentPolynomial-coefficient",
        "LaurentPolynomial-value",
        "RationalMatrix-str",
        "specialize_v",
        "IntegerPolynomial-scalar",
        "IntegerPolynomial-value",
        "MultiPoly-scalar",
        "LaurentPolynomial-scalar",
        "EquivariantClass-scalar",
    ],
)
def test_non_integer_input_rejected_not_truncated(build):
    # an integer slot given a fraction or a float raises instead of
    # silently rounding toward zero; a rational slot given a float raises
    # instead of reading its binary expansion
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
@pytest.mark.parametrize(
    "poly",
    [
        IntegerPolynomial([1, 1]),
        MultiPoly(("x",), {(1,): 1}),
        LaurentPolynomial({1: 1}),
    ],
    ids=["IntegerPolynomial", "MultiPoly", "LaurentPolynomial"],
)
def test_scalar_sum_rejected(poly, op):
    # a polynomial plus or minus a scalar is a TypeError, as for * 0.5,
    # not an AttributeError from reading the scalar's terms
    for scalar in (1, Fraction(1, 2), 0.5):
        with pytest.raises(TypeError):
            op(poly, scalar)


@pytest.mark.parametrize("other", [1, "a"])
@pytest.mark.parametrize(
    "poly",
    [
        IntegerPolynomial([1, 1]),
        MultiPoly(("x",), {(1,): 1}),
        LaurentPolynomial({1: 1}),
    ],
    ids=["IntegerPolynomial", "MultiPoly", "LaurentPolynomial"],
)
def test_foreign_subtrahend_reported_as_subtraction(poly, other):
    # a foreign operand is refused by - itself, not reported as a failed +
    # or a failed unary -
    with pytest.raises(TypeError, match="for -:"):
        poly - other


class TestRankAndRowSpace:
    def test_rank_of_identity(self):
        assert matrix_rank(RationalMatrix.identity(5)) == 5

    def test_rank_with_dependent_rows(self):
        m = [[1, 2, 3], [2, 4, 6], [1, 0, 0]]
        assert matrix_rank(m) == 2

    def test_rank_of_zero_rows(self):
        assert matrix_rank([[0, 0], [0, 0]]) == 0
        assert matrix_rank([]) == 0

    def test_rank_against_sympy(self):
        rows = [
            [Fraction(1, 2), 3, Fraction(-2, 7), 1],
            [4, Fraction(1, 3), 0, 2],
            [Fraction(9, 2), Fraction(10, 3), Fraction(-2, 7), 3],  # row1+row2
            [0, 0, 1, 1],
        ]
        assert matrix_rank(rows) == sympy.Matrix(rows).rank()

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=4, max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    def test_rank_matches_sympy_random(self, rows):
        assert matrix_rank(rows) == sympy.Matrix(rows).rank()

    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=3, max_size=3),
            min_size=2,
            max_size=4,
        ),
        st.integers(1, 5),
    )
    def test_rank_invariant_under_row_scaling(self, rows, c):
        scaled = [[c * x for x in row] for row in rows]
        assert matrix_rank(rows) == matrix_rank(scaled)

    def test_rowspace_incremental(self):
        space = RowSpace(3)
        assert space.add([1, 0, 0])
        assert not space.add([2, 0, 0])
        assert space.add([Fraction(1, 3), 1, 0])
        assert space.rank == 2
        with pytest.raises(ValueError):
            space.add([1, 2])

    @settings(deadline=None, max_examples=80)
    @given(st.data())
    def test_dense_and_mapping_rows_agree(self, data):
        width = data.draw(st.integers(1, 7))
        entry = st.one_of(
            st.integers(-9, 9),
            st.fractions(min_value=-9, max_value=9, max_denominator=6),
        )
        rows = []
        for _ in range(data.draw(st.integers(1, 6))):
            # each row keeps a random subset of its columns
            mask = data.draw(st.lists(st.booleans(), min_size=width, max_size=width))
            rows.append([data.draw(entry) if keep else 0 for keep in mask])
        for _ in range(data.draw(st.integers(0, 3))):
            # planted dependent row: a rational combination of two rows
            i, j = data.draw(st.tuples(*[st.integers(0, len(rows) - 1)] * 2))
            a, b = data.draw(st.tuples(entry, entry))
            rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
        rows = data.draw(st.permutations(rows))
        dense, sparse = RowSpace(width), RowSpace(width)
        for row in rows:
            # the mapping lists its columns in any order, zeros or not
            items = [(c, x) for c, x in enumerate(row) if x or data.draw(st.booleans())]
            mapping = dict(data.draw(st.permutations(items)))
            assert dense.add(row) == sparse.add(mapping)
        assert dense.rank == sparse.rank == sympy.Matrix(rows).rank()

    @pytest.mark.parametrize("row", [{3: 1}, {-1: 1}, {0: 1, 5: 2}])
    def test_mapping_column_outside_width_rejected(self, row):
        with pytest.raises(ValueError):
            RowSpace(3).add(row)


class TestJordanType:
    def test_single_block(self):
        n = [[0, 1], [0, 0]]
        assert jordan_type(n) == (2,)

    def test_zero_matrix(self):
        assert jordan_type([[0, 0], [0, 0]]) == (1, 1)

    def test_rejects_non_nilpotent(self):
        with pytest.raises(NotNilpotent):
            jordan_type([[1, 0], [0, 0]])
        # a matrix of the wrong shape is rejected before any power
        with pytest.raises(ValueError, match="square"):
            jordan_type([[0, 1]])
        with pytest.raises(ValueError, match="at least one row"):
            RationalMatrix([])
        with pytest.raises(ValueError, match="ragged"):
            RationalMatrix([[1, 2], [3]])
        with pytest.raises(ValueError, match="shape mismatch"):
            RationalMatrix([[1, 2]]).mul(RationalMatrix([[1, 2]]))

    def test_against_sympy_jordan_form(self):
        m = [
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 2, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 2],
            [0, 0, 0, 0, 0, 0],
        ]
        _p, cells = sympy.Matrix(m).jordan_cells()
        sizes = tuple(sorted((c.rows for c in cells), reverse=True))
        assert jordan_type(m) == sizes == (5, 1)

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    def test_block_sums_and_reconstruction(self, sizes):
        sizes = sorted(sizes, reverse=True)
        dim = sum(sizes)
        m = [[0] * dim for _ in range(dim)]
        offset = 0
        for s in sizes:
            for i in range(s - 1):
                m[offset + i][offset + i + 1] = 1
            offset += s
        assert jordan_type(m) == tuple(sizes)


class TestCyclotomic:
    def test_euler_phi_table(self):
        assert [euler_phi(d) for d in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]

    def test_small_cyclotomics(self):
        assert cyclotomic_polynomial(1).coeffs == (-1, 1)
        assert cyclotomic_polynomial(2).coeffs == (1, 1)
        assert cyclotomic_polynomial(3).coeffs == (1, 1, 1)
        assert cyclotomic_polynomial(4).coeffs == (1, 0, 1)
        assert cyclotomic_polynomial(6).coeffs == (1, -1, 1)

    def test_product_over_divisors(self):
        for d in (6, 12):
            product = IntegerPolynomial.one()
            for e in range(1, d + 1):
                if d % e == 0:
                    product = product * cyclotomic_polynomial(e)
            expected = IntegerPolynomial([-1] + [0] * (d - 1) + [1])
            assert product == expected

    def test_strip_gaussian_binomial_to_constant(self):
        ok, residual = strip_cyclotomic_factors(IntegerPolynomial([1, 1, 2, 1, 1]))
        assert ok and residual.is_constant()

    def test_strip_leaves_g3_untouched(self):
        g3 = IntegerPolynomial([1, 0, 2, 0, 5, 0, 6, 0, 5, 0, 2, 0, 1])
        ok, residual = strip_cyclotomic_factors(g3)
        assert not ok
        assert residual == g3

    def test_strip_removes_variable_powers(self):
        ok, residual = strip_cyclotomic_factors(IntegerPolynomial([0, 0, 0, 7]))
        assert ok and residual.coeffs == (7,)

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.sampled_from([1, 2, 3, 4, 5, 6]), min_size=0, max_size=4), st.integers(0, 3))
    def test_strip_reconstruction(self, ds, shift):
        # a planted product of cyclotomics and a q-power strips completely
        p = IntegerPolynomial.monomial(1, shift)
        for d in ds:
            p = p * cyclotomic_polynomial(d)
        ok, residual = strip_cyclotomic_factors(p)
        assert ok
        assert residual.is_constant()


def _sympy_strip(coeffs):
    # Oracle: factor over Z, drop q and every cyclotomic factor, multiply
    # back the content and the rest.
    q = sympy.symbols("q")
    content, factors = sympy.factor_list(sympy.Poly(list(reversed(coeffs)), q))
    residual = sympy.Poly(content, q)
    for f, mult in factors:
        if f.is_cyclotomic or f == sympy.Poly(q, q):
            continue
        residual *= f ** mult
    return IntegerPolynomial(reversed(residual.all_coeffs()))


def _degree_80_product(rng, plant):
    # Phi_d for seeded d in 3..60 while they fit, padded with Phi_2 to
    # degree 80; when planted, the last three degrees are a monic cubic
    # with |constant| >= 2, which has a root off the unit circle
    target = 77 if plant else 80
    p = IntegerPolynomial.one()
    while True:
        phi = cyclotomic_polynomial(rng.randint(3, 60))
        if p.degree + phi.degree > target:
            break
        p = p * phi
    while p.degree < target:
        p = p * cyclotomic_polynomial(2)
    if plant:
        cubic = [rng.choice((2, -2, 3, -3)), rng.randint(-2, 2), rng.randint(-2, 2), 1]
        p = p * IntegerPolynomial(cubic)
    return p


class TestStripAgainstSympy:
    def check(self, p):
        ok, residual = strip_cyclotomic_factors(p)
        expected = _sympy_strip(p.coeffs)
        assert (ok, residual) == (expected.is_constant(), expected), p

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_degree_80_products(self, seed):
        # the size of the benchmark's verdict inputs, planted on odd seeds
        p = _degree_80_product(random.Random(seed), plant=seed % 2 == 1)
        assert p.degree == 80
        self.check(p)

    def test_small_sweep(self):
        # every nonzero polynomial of degree <= 4 with coefficients in {-1, 0, 1, 2}
        for coeffs in itertools.product((-1, 0, 1, 2), repeat=5):
            if any(coeffs):
                self.check(IntegerPolynomial(coeffs))

    def test_planted_products(self):
        phi = cyclotomic_polynomial
        quadratic = IntegerPolynomial([2, 1, 1])  # q^2 + q + 2, not cyclotomic
        assert min(phi(105).coeffs) == -2
        planted = [
            phi(60),
            phi(105),
            phi(1) * phi(1) * phi(2) * phi(6) * phi(6) * phi(6),
            IntegerPolynomial.monomial(3, 4) * phi(12) * phi(105),
            quadratic * quadratic * phi(60) * phi(3) * phi(3),
            IntegerPolynomial.monomial(-1, 2) * quadratic * phi(7) * phi(30) * phi(1),
        ]
        for p in planted:
            self.check(p)


def reference_d_scan_strip(p):
    # every d up to 2 deg^2 with euler_phi(d) <= deg, each divided out as
    # often as it divides, with deg read afresh after each division
    low = next(i for i, c in enumerate(p.coeffs) if c != 0)
    p = IntegerPolynomial(p.coeffs[low:])
    d = 1
    while d <= 2 * p.degree ** 2:
        if euler_phi(d) <= p.degree:
            try:
                p = p.exact_divide(cyclotomic_polynomial(d))
                continue
            except NotPolynomial:
                pass
        d += 1
    return p.degree <= 0, p


class TestStripCandidates:
    def test_candidates_are_the_inverse_totient(self):
        phis = [None] + [euler_phi(d) for d in range(1, 2 * 60 ** 2 + 1)]
        for bound in range(61):
            expected = [
                (d, phis[d]) for d in range(1, 2 * bound ** 2 + 1) if phis[d] <= bound
            ]
            assert list(algebra._cyclotomic_candidates(bound)) == expected, bound

    def test_moebius_value_at_two(self):
        for d in range(1, 501):
            assert algebra._cyclotomic_at_two(d) == cyclotomic_polynomial(d)(2), d

    def test_hilbert_polynomials_as_before(self):
        for k in range(1, 11):
            betti = goettsche_betti(k, 2 * k)
            p = IntegerPolynomial(betti).interleave_zero()
            assert strip_cyclotomic_factors(p) == reference_d_scan_strip(p), k

    def test_gaussian_binomials_as_before(self):
        for n in range(1, 11):
            for k in range(n + 1):
                p = IntegerPolynomial(gaussian_binomial(n, k))
                ok, residual = strip_cyclotomic_factors(p)
                assert (ok, residual) == reference_d_scan_strip(p), (n, k)
                assert ok

    def test_root_at_two_passes_every_filter(self):
        # p(2) = 0 lets every Phi_d through the q = 2 filter, so only the
        # exact division decides
        p = IntegerPolynomial([-2, 1]) * cyclotomic_polynomial(5) * cyclotomic_polynomial(1)
        assert strip_cyclotomic_factors(p) == (False, IntegerPolynomial([-2, 1]))


class TestIntegerPolynomial:
    def test_exact_divide_round_trip(self):
        a = IntegerPolynomial([1, 2, 1])
        b = IntegerPolynomial([1, 1])
        assert a.exact_divide(b) == b

    def test_exact_divide_rejects_remainder(self):
        with pytest.raises(NotPolynomial):
            IntegerPolynomial([1, 0, 1]).exact_divide(IntegerPolynomial([1, 1]))
        # a leading coefficient that does not divide, a larger degree
        with pytest.raises(NotPolynomial):
            IntegerPolynomial([0, 1]).exact_divide(IntegerPolynomial([0, 2]))
        with pytest.raises(NotPolynomial):
            IntegerPolynomial([1, 1]).exact_divide(IntegerPolynomial([1, 0, 1]))
        with pytest.raises(ZeroDivisionError):
            IntegerPolynomial([1, 1]).exact_divide(IntegerPolynomial())

    def test_exact_divide_non_monic(self):
        two_q_plus_two = IntegerPolynomial([2, 2])
        p = two_q_plus_two * IntegerPolynomial([1, 0, 1])
        assert p.exact_divide(two_q_plus_two) == IntegerPolynomial([1, 0, 1])
        assert (-p).exact_divide(-two_q_plus_two) == IntegerPolynomial([1, 0, 1])
        assert p.exact_divide(IntegerPolynomial([-1, 0, -1])) == -two_q_plus_two
        # the leading coefficient does not divide the top of a later step
        with pytest.raises(NotPolynomial):
            IntegerPolynomial([1, 3, 2]).exact_divide(two_q_plus_two)
        # every step divides, but a remainder is left
        with pytest.raises(NotPolynomial):
            IntegerPolynomial([1, 2, 4]).exact_divide(two_q_plus_two)

    def test_exact_divide_zero_inner_terms(self):
        phi4, phi12 = cyclotomic_polynomial(4), cyclotomic_polynomial(12)
        assert phi12.coeffs == (1, 0, -1, 0, 1)
        p = phi4 * phi12 * IntegerPolynomial([3, 1])
        assert p.exact_divide(phi12) == phi4 * IntegerPolynomial([3, 1])
        assert p.exact_divide(phi4) == phi12 * IntegerPolynomial([3, 1])
        with pytest.raises(NotPolynomial):
            (p + IntegerPolynomial([0, 1])).exact_divide(phi12)

    def test_power_of_phi_2_stripped_to_constant(self):
        phi2 = cyclotomic_polynomial(2)
        p = IntegerPolynomial([5])
        for _ in range(40):
            p = p * phi2
        assert p.degree == 40
        assert strip_cyclotomic_factors(p) == (True, IntegerPolynomial([5]))
        for _ in range(40):
            p = p.exact_divide(phi2)
        assert p == IntegerPolynomial([5])

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=8),
        st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(lambda b: b[-1]),
        st.lists(st.integers(-9, 9), max_size=4),
    )
    def test_exact_divide_against_multiplication(self, a, b, r):
        # (a * b) / b is a; adding a nonzero r of lower degree than b
        # makes the division inexact
        a, b, r = IntegerPolynomial(a), IntegerPolynomial(b), IntegerPolynomial(r[: len(b) - 1])
        if a.is_zero():
            return
        assert (a * b).exact_divide(b) == a
        if not r.is_zero():
            with pytest.raises(NotPolynomial):
                (a * b + r).exact_divide(b)

    def test_evaluation(self):
        p = IntegerPolynomial([1, 0, 2, 0, 5, 0, 6, 0, 5, 0, 2, 0, 1])
        assert p(1) == 22
        # an int value gives an int, a Fraction a Fraction
        assert type(p(2)) is int
        value = IntegerPolynomial([1, 1])(Fraction(1, 2))
        assert type(value) is Fraction and value == Fraction(3, 2)

    def test_interleave(self):
        assert IntegerPolynomial([1, 2, 3]).interleave_zero().coeffs == (1, 0, 2, 0, 3)

    def test_str(self):
        assert str(IntegerPolynomial([1, 1, 2, 1, 1])) == "1 + q + 2*q^2 + q^3 + q^4"
        assert str(IntegerPolynomial()) == "0"
        assert IntegerPolynomial([-1, -1, 0, 2, 1]).str_with_variable("t") == "-1 + -t + 2*t^3 + t^4"


class TestMultiPoly:
    def test_canonical_str_order_and_coefficients(self):
        p = MultiPoly(
            ("x", "y"),
            {(1, 1): Fraction(-1), (0, 1): Fraction(1, 2), (2, 0): 3},
        )
        assert p.canonical_str() == "3*x^2 + -1*x*y + 1/2*y"

    def test_substitute(self):
        p = MultiPoly(("x", "v"), {(1, 1): 2, (1, 0): -1})
        q = p.substitute("v", 0)
        assert q.variables == ("x",)
        assert q.terms == {(1,): Fraction(-1)}

    def test_substitute_polynomial(self):
        # x = y - 2/3*z in 1/2*x^2*y + 3*x*z - y^2, expanded by hand
        p = MultiPoly(("x", "y", "z"), {(2, 1, 0): Fraction(1, 2), (1, 0, 1): 3, (0, 2, 0): -1})
        value = MultiPoly(("y", "z"), {(1, 0): 1, (0, 1): Fraction(-2, 3)})
        assert p.substitute("x", value) == MultiPoly(("y", "z"), {
            (3, 0): Fraction(1, 2),
            (2, 1): Fraction(-2, 3),
            (1, 2): Fraction(2, 9),
            (1, 1): 3,
            (0, 2): -2,
            (2, 0): -1,
        })
        # a value must live over the remaining variables, in order
        with pytest.raises(ValueError):
            p.substitute("x", MultiPoly(("z", "y"), {(1, 0): 1}))

    def test_repeated_variable_name_rejected(self):
        with pytest.raises(ValueError, match="repeated variable"):
            MultiPoly(("v", "v"), {(0, 1): 1})
        # as is an exponent vector longer than the variable tuple
        with pytest.raises(ValueError, match="bad exponent vector"):
            MultiPoly(("x",), {(1, 2): 1})

    def test_homogeneous_degree(self):
        p = MultiPoly(("x", "y"), {(1, 1): 1, (0, 3): -1})
        assert p.homogeneous_degree((2, 1)) == 3
        assert p.homogeneous_degree((1, 1)) is None

    def test_hash_by_value_and_stable(self):
        terms = {(2, 0): 3, (1, 1): Fraction(-1, 2), (0, 3): 1}
        p = MultiPoly(("x", "y"), terms)
        q = MultiPoly(("x", "y"), dict(reversed(list(terms.items()))))
        assert p == q and hash(p) == hash(q)
        assert hash(p) == hash(p) == hash(MultiPoly(("x", "y"), terms))
        assert hash(p + q) == hash(q.scale(2))

    def test_arithmetic(self):
        x = MultiPoly(("x",), {(1,): 1})
        assert (x * x - x).terms == {(2,): Fraction(1), (1,): Fraction(-1)}
        assert (x - x).is_zero()
        # a polynomial over other variables is still a ValueError
        with pytest.raises(ValueError, match="different variables"):
            x + MultiPoly(("y",), {(1,): 1})
