"""Exact-algebra kernel tests against independent oracles."""

import itertools
import operator
import random
from fractions import Fraction
from functools import cache
from math import lcm, prod

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from cohomix import algebra
from cohomix.algebra import (
    IntegerPolynomial,
    MultiPoly,
    Partition,
    RationalMatrix,
    RowSpace,
    jordan_type,
    matrix_rank,
    partitions_in_box,
    schur_evaluate,
    strip_cyclotomic_factors,
)
from cohomix.errors import NotNilpotent
from cohomix.filtration import BettiTable, filtration_betti, select_schur_basis
from cohomix.gotzmann import (
    TorusAction,
    build_torus_action,
    degree_k_part,
    enumerate_hilb_fixed_points,
    jordan_regularity_check,
    monomial_label,
)
from cohomix.grassmann import (
    FixedSubspace,
    GradedPresentation,
    WeightSystem,
    enumerate_fixed_subspaces,
    equivariant_presentation,
    generator_variables,
    graded_dimension,
    graded_dimensions,
    ordinary_presentation,
    poincare_from_regular_sequence,
    specialize_v,
    w_degree,
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
    ]
    REPEATED = [
        (2, 2, -1),
        (0, 0, 0, 0),
        (3, -1, 3, -1, 3),
        (1, 1, 1, 1, 1),  # s_mu(1^5) counts tableaux
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
        # mu_1 >= len(mu) reads the h sums up to mu_1 + len(mu) - 1, the
        # rest the e sums; sizes up to 3 are read off the sums, and only
        # from size 4 on does a determinant go to Bareiss, with that size.
        routes, sizes = [], []
        h, e, determinant = algebra._complete_homogeneous, algebra._elementary, algebra._determinant
        monkeypatch.setattr(
            algebra, "_complete_homogeneous",
            lambda top, *points: routes.append(("h", top)) or h(top, *points),
        )
        monkeypatch.setattr(
            algebra, "_elementary", lambda *points: routes.append(("e",)) or e(*points)
        )
        monkeypatch.setattr(
            algebra, "_determinant", lambda rows: sizes.append(len(rows)) or determinant(rows)
        )
        for mu in BOX_4_5:
            routes.clear()
            sizes.clear()
            schur_evaluate(mu, (2, 5, -1, 7, 3))
            if not mu:
                assert routes == sizes == []
                continue
            route = ("h", mu[0] + len(mu) - 1) if mu[0] >= len(mu) else ("e",)
            size = min(len(mu), mu[0])
            assert routes == [route], mu
            assert sizes == ([size] if size >= 4 else []), mu

    def test_bareiss_sizes_against_tableaux_sum(self):
        # Every partition of a 5 x 5 box whose determinant has size 4 or 5,
        # at distinct and repeated points.
        box = [
            mu.parts
            for p in range(26)
            for mu in partitions_in_box(5, 5, p)
            if len(mu) >= 4 and mu[0] >= 4
        ]
        assert len(box) == 160
        for points in [
            (3, -1, 0, 2, -4, 5),
            (2, 2, -1, 2, -1, 0),
        ]:
            for mu in box:
                assert schur_evaluate(mu, points) == ssyt_sum(mu, points), (mu, points)

    def test_cold_and_warm_caches_agree(self):
        for points in self.DISTINCT + self.REPEATED:
            for cached in (algebra._complete_homogeneous, algebra._elementary, algebra._conjugate):
                cached.cache_clear()
            cold = [schur_evaluate(mu, points) for mu in BOX_4_5]
            warm = [schur_evaluate(mu, points) for mu in BOX_4_5]
            assert cold == warm

    def test_non_integer_points_refused_once_the_ints_are_cached(self):
        # Whole Fractions and floats equal the cached ints, but the caches
        # are keyed by type, so they miss and are refused, never read as
        # the ints' entries.
        ints = (4, 0, -3, 4)
        for cached in (algebra._complete_homogeneous, algebra._elementary):
            cached.cache_clear()
        assert {type(schur_evaluate(mu, ints)) for mu in BOX_4_5} == {int}
        for convert in (Fraction, float):
            same = tuple(map(convert, ints))
            for mu in BOX_4_5:
                with pytest.raises(TypeError):
                    schur_evaluate(mu, same)

    def test_list_and_tuple_points_agree(self):
        points = (4, 0, -3, 4)
        for mu in BOX_4_5:
            value = schur_evaluate(mu, points)
            assert type(value) is int
            got = schur_evaluate(mu, list(points))
            assert got == value and type(got) is int, (mu, points)


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
        lambda: TorusAction(2, 3, (3, 2.0, 1)),
        lambda: GradedPresentation(("x",), [1.5], []),
        lambda: BettiTable([1, 2.7, 1], 4),
        lambda: BettiTable([1, 2, 1], 4.9),
        lambda: RationalMatrix([[0.1, 1]]),
        lambda: schur_evaluate((1,), (1.5, 2)),
        lambda: (schur_evaluate((1, 1), (2, 3)), schur_evaluate((1, 1), (2.0, 3))),
        lambda: schur_evaluate((), (1.5,)),
        lambda: schur_evaluate((1, 1), (1.5,)),
        lambda: schur_evaluate((1, 1, 1), (0, 1.5)),
        lambda: matrix_rank([[0.1, 1]]),
        lambda: matrix_rank([[Fraction(1, 2), 1], [Fraction(1, 3), 0.5]]),
        lambda: matrix_rank([[1, "1/3"]]),
        lambda: MultiPoly(("x",), {(1,): 0.1}),
        lambda: MultiPoly(("x",), {(1,): "1/3"}),
        lambda: MultiPoly(("x",), {(1,): 1}).scale(0.5),
        lambda: MultiPoly(("x",), {(1,): Fraction(1, 2)}),
        lambda: MultiPoly(("x",), {(1,): 1}).scale(Fraction(2)),
        lambda: specialize_v(equivariant_presentation(4, 2), Fraction(1, 2)),
        lambda: RationalMatrix([["1/2"]]),
        lambda: specialize_v(equivariant_presentation(4, 2), 0.1),
        lambda: IntegerPolynomial([1, 1]) * 0.5,
        lambda: IntegerPolynomial([1, 1])(0.5),
        lambda: MultiPoly(("x",), {(1,): 1}) * 0.5,
        lambda: FixedSubspace((1, 2), 2.5),
        lambda: FixedSubspace((), "x"),
        lambda: partitions_in_box(Fraction(5, 2), 1, 2),
        lambda: partitions_in_box(1, 2.5, 3),
        lambda: partitions_in_box(3, 3, 0.0),
        lambda: w_degree(1.0, 1, 3, 1),
        lambda: w_degree(1, 1, Fraction(3), 1),
        lambda: graded_dimension(ordinary_presentation(4, 2), Fraction(5, 2)),
        lambda: graded_dimension(ordinary_presentation(4, 2), 2.0),
        lambda: graded_dimensions(ordinary_presentation(4, 2), Fraction(2)),
        lambda: TorusAction(Fraction(2), 3, (3, 2, 1)),
        lambda: TorusAction(2, 3, (3.0, 2, 1)),
        lambda: generator_variables(4, Fraction(2)),
        lambda: poincare_from_regular_sequence((0.5,)),
        lambda: poincare_from_regular_sequence((2.0, 3)),
        lambda: poincare_from_regular_sequence((Fraction(2),)),
        lambda: WeightSystem.principal(4).at((0.5,)),
        lambda: WeightSystem.principal(4).at((Fraction(2),)),
        lambda: WeightSystem.principal(4).at(("2",)),
        lambda: monomial_label((2.5, 0, 0)),
        lambda: monomial_label((Fraction(2), 0, 0)),
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
        "BettiTable-betti",
        "BettiTable-fixed-points",
        "RationalMatrix",
        "schur_evaluate",
        "schur_evaluate-after-equal-int",
        "schur_evaluate-empty-partition",
        "schur_evaluate-more-parts-than-points",
        "schur_evaluate-short-branch-zero-point",
        "matrix_rank",
        "matrix_rank-float-among-Fractions",
        "matrix_rank-str",
        "MultiPoly-float-coefficient",
        "MultiPoly-str-coefficient",
        "MultiPoly.scale",
        "MultiPoly-Fraction-coefficient",
        "MultiPoly.scale-whole-Fraction",
        "specialize_v-Fraction",
        "RationalMatrix-str",
        "specialize_v",
        "IntegerPolynomial-scalar",
        "IntegerPolynomial-value",
        "MultiPoly-scalar",
        "FixedSubspace-n",
        "FixedSubspace-n-str",
        "partitions_in_box-max-parts",
        "partitions_in_box-max-part",
        "partitions_in_box-size",
        "w_degree",
        "w_degree-whole-Fraction",
        "graded_dimension-Fraction",
        "graded_dimension-float",
        "graded_dimensions-Fraction",
        "TorusAction-k",
        "TorusAction-exponent",
        "generator_variables-whole-Fraction",
        "poincare_from_regular_sequence",
        "poincare_from_regular_sequence-float-among-ints",
        "poincare_from_regular_sequence-whole-Fraction",
        "WeightSystem.at",
        "WeightSystem.at-whole-Fraction",
        "WeightSystem.at-str",
        "monomial_label",
        "monomial_label-whole-Fraction",
    ],
)
def test_non_integer_input_rejected_not_truncated(build):
    # an integer slot given a fraction or a float raises instead of
    # silently rounding toward zero; a rational slot given a float raises
    # instead of reading its binary expansion
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: GradedPresentation(("x",), (1,), [{"a": 1}]), "dict"),
        (lambda: GradedPresentation(("x",), (1,), ["x"]), "str"),
        (lambda: MultiPoly(("x",), [((1,), 1)]), "list"),
    ],
    ids=["GradedPresentation-dict-relation", "GradedPresentation-str-relation", "MultiPoly-list-terms"],
)
def test_container_of_the_wrong_type_named(build, name):
    # a relation that is not a MultiPoly, or terms that are not a dict, is a
    # TypeError naming the type given, not an AttributeError from inside
    with pytest.raises(TypeError, match=r"got %s\b" % name):
        build()


@pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
@pytest.mark.parametrize(
    "poly",
    [
        IntegerPolynomial([1, 1]),
        MultiPoly(("x",), {(1,): 1}),
    ],
    ids=["IntegerPolynomial", "MultiPoly"],
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
    ],
    ids=["IntegerPolynomial", "MultiPoly"],
)
def test_foreign_subtrahend_reported_as_subtraction(poly, other):
    # a foreign operand is refused by - itself, not reported as a failed +
    # or a failed unary -
    with pytest.raises(TypeError, match="for -:"):
        poly - other


class TestRationalMatrix:
    def test_equality_and_hash_by_entries(self):
        m = RationalMatrix([[1, Fraction(1, 2)], [0, 2]])
        same = RationalMatrix([[Fraction(2, 2), Fraction(2, 4)], [0, 2]])
        assert m == same and hash(m) == hash(same)
        assert m != RationalMatrix([[1, Fraction(1, 2)], [0, 3]])
        assert m != m.entries
        assert len({m, same, RationalMatrix([[1, 0], [0, 1]])}) == 2


class TestRankAndRowSpace:
    def test_rank_of_identity(self):
        assert matrix_rank(RationalMatrix([[int(i == j) for j in range(5)] for i in range(5)])) == 5

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
        assert space.add({0: 1})
        assert not space.add({0: 2})
        assert space.add({0: 1, 1: 3})
        assert space.rank == 2
        # a ragged row is caught at the rational edge, not in RowSpace
        with pytest.raises(ValueError):
            matrix_rank([[1, 2], [1]])

    @settings(deadline=None, max_examples=80)
    @given(st.data())
    def test_dense_and_mapping_rows_agree(self, data):
        # matrix_rank of rational rows against sympy, and one RowSpace fed
        # the same rows as cleared dicts, columns in any order
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
        rank = sympy.Matrix(rows).rank()
        assert matrix_rank(rows) == rank
        space = RowSpace(width)
        for row in rows:
            den = lcm(*[x.denominator for x in row])
            items = [(c, int(x * den)) for c, x in enumerate(row) if x]
            space.add(dict(data.draw(st.permutations(items))))
        assert space.rank == rank

    def test_producers_hand_over_integer_dicts(self, monkeypatch):
        # RowSpace.add checks nothing of its row, so every producer in the
        # package must build the one format: a dict of nonzero ints with
        # columns in 0..width-1
        seen = []
        add = RowSpace.add

        def checked_add(space, row):
            assert type(row) is dict
            assert all(type(x) is int and x for x in row.values())
            assert all(type(c) is int and 0 <= c < space.width for c in row)
            seen.append(row)
            return add(space, row)

        monkeypatch.setattr(RowSpace, "add", checked_add)
        assert filtration_betti(enumerate_fixed_subspaces(6, 3), WeightSystem.principal(6)).betti == (
            1, 1, 2, 3, 3, 3, 3, 2, 1, 1,
        )
        action = build_torus_action(3)
        images = [degree_k_part(t, 3) for t in enumerate_hilb_fixed_points(3)]
        selection = select_schur_basis(images, action.weight_system(), p_max=6)
        assert [len(selection[p]) for p in range(7)] == [1, 1, 2, 3, 4, 5, 5]
        assert graded_dimensions(ordinary_presentation(6, 3), 9) == [1, 1, 2, 3, 3, 3, 3, 2, 1, 1]
        assert graded_dimensions(equivariant_presentation(5, 2), 6) == [1, 2, 4, 6, 8, 9, 10]
        assert jordan_regularity_check(3) == (Partition((7, 3)), False)
        assert len(seen) > 100


def jordan_blocks(sizes):
    # the block-diagonal nilpotent with one Jordan block per size, as rows
    dim = sum(sizes)
    m = [[0] * dim for _ in range(dim)]
    offset = 0
    for s in sizes:
        for i in range(s - 1):
            m[offset + i][offset + i + 1] = 1
        offset += s
    return m


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
        assert jordan_type(jordan_blocks(sizes)) == tuple(sizes)

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.data())
    def test_conjugated_blocks(self, sizes, data):
        # N -> E N E^-1 for E = I + c*e_ij, i != j: row i gains c times row
        # j, then column j loses c times column i.  A run of these is a
        # unimodular change of basis, so the Jordan type stays while N
        # leaves Jordan form.
        sizes = sorted(sizes, reverse=True)
        m = jordan_blocks(sizes)
        slot = st.integers(0, len(m) - 1)
        steps = st.lists(st.tuples(slot, slot, st.integers(-3, 3)), max_size=12)
        for i, j, c in data.draw(steps):
            if i != j:
                m[i] = [x + c * y for x, y in zip(m[i], m[j])]
                for row in m:
                    row[j] -= c * row[i]
        assert jordan_type(m) == tuple(sizes)


class TestCyclotomic:
    def test_small_cyclotomics(self):
        assert _kernel_phi(1).coeffs == (-1, 1)
        assert _kernel_phi(2).coeffs == (1, 1)
        assert _kernel_phi(3).coeffs == (1, 1, 1)
        assert _kernel_phi(4).coeffs == (1, 0, 1)
        assert _kernel_phi(6).coeffs == (1, -1, 1)
        for d in range(1, 201):
            assert _kernel_phi(d) == _phi(d), d

    def test_product_over_divisors(self):
        # q^d - 1 is the product of Phi_e over e | d, multiplied out by
        # IntegerPolynomial, not by the binomial kernel
        for d in range(1, 201):
            product = IntegerPolynomial([1])
            for e in range(1, d + 1):
                if d % e == 0:
                    product = product * _kernel_phi(e)
            expected = IntegerPolynomial([-1] + [0] * (d - 1) + [1])
            assert product == expected, d

    def test_phi_of_twice_an_odd_number_is_phi_at_minus_q(self):
        # the identities behind the sweep's q -> -q step
        assert _kernel_phi(2) == -_at_minus_q(_kernel_phi(1))
        for m in range(3, 200, 2):
            assert _kernel_phi(2 * m) == _at_minus_q(_kernel_phi(m)), m

    def test_strip_gaussian_binomial_to_constant(self):
        ok, residual = strip_cyclotomic_factors(IntegerPolynomial([1, 1, 2, 1, 1]))
        assert ok and len(residual.coeffs) <= 1

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
        p = IntegerPolynomial([0] * shift + [1])
        for d in ds:
            p = p * _phi(d)
        ok, residual = strip_cyclotomic_factors(p)
        assert ok
        assert len(residual.coeffs) <= 1


def _at_minus_q(p):
    return IntegerPolynomial([-c if i % 2 else c for i, c in enumerate(p.coeffs)])


def _kernel_phi(d):
    # Phi_d multiplied out of its Moebius binomials by the binomial kernel
    return IntegerPolynomial(
        reversed(algebra._binomial_quotient([1], *algebra._cyclotomic_binomials(d)[:2]))
    )


@cache
def _phi(d):
    # Phi_d from sympy, which the strip tests build their inputs from
    return IntegerPolynomial(reversed(sympy.cyclotomic_poly(d, polys=True).all_coeffs()))


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


def _sympy_verdict(p):
    # what strip_cyclotomic_factors(p) must return, read off _sympy_strip
    residual = _sympy_strip(p.coeffs)
    return len(residual.coeffs) <= 1, residual


def _degree_80_product(rng, plant):
    # Phi_d for seeded d in 3..60 while they fit, padded with Phi_2 to
    # degree 80; when planted, the last three degrees are a monic cubic
    # with |constant| >= 2, which has a root off the unit circle
    target = 77 if plant else 80
    p = IntegerPolynomial([1])
    while True:
        phi = _phi(rng.randint(3, 60))
        if len(p.coeffs) + len(phi.coeffs) - 2 > target:
            break
        p = p * phi
    while len(p.coeffs) - 1 < target:
        p = p * _phi(2)
    if plant:
        cubic = [rng.choice((2, -2, 3, -3)), rng.randint(-2, 2), rng.randint(-2, 2), 1]
        p = p * IntegerPolynomial(cubic)
    return p


class TestStripAgainstSympy:
    def check(self, p):
        assert strip_cyclotomic_factors(p) == _sympy_verdict(p), p

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_degree_80_products(self, seed):
        # the size of the benchmark's verdict inputs, planted on odd seeds
        p = _degree_80_product(random.Random(seed), plant=seed % 2 == 1)
        assert len(p.coeffs) - 1 == 80
        self.check(p)

    def test_small_sweep(self):
        # every nonzero polynomial of degree <= 4 with coefficients in {-1, 0, 1, 2}
        for coeffs in itertools.product((-1, 0, 1, 2), repeat=5):
            if any(coeffs):
                self.check(IntegerPolynomial(coeffs))

    def test_failed_division_leaves_the_polynomial_as_it_was(self):
        # each input passes the q = 2 filter of a Phi_d that does not
        # divide it, for d = 1, 2, 6 and the odd prime 5, and a later
        # factor does divide: the failed division must not have written
        # into the working coefficients.  sympy confirms each failure: it
        # leaves a remainder
        phi = _phi
        q = sympy.symbols("q")
        cases = [
            (IntegerPolynomial([1, 1]), (1,)),  # Phi_2 after a failed Phi_1
            (IntegerPolynomial([4, 1]) * phi(3), (1, 2)),
            (IntegerPolynomial([4, 1]) * phi(10), (1, 2, 6)),
            (IntegerPolynomial([29, 1]) * phi(7), (1, 5)),
            (IntegerPolynomial([29, 1]) * phi(2) * phi(7), (1, 5)),
        ]
        for p, failing in cases:
            for d in failing:
                assert p(2) % phi(d)(2) == 0, (p, d)
                dividend, divisor = (sympy.Poly(f.coeffs[::-1], q) for f in (p, phi(d)))
                _quotient, remainder = dividend.div(divisor)
                assert not remainder.is_zero, (p, d)
            self.check(p)
        assert strip_cyclotomic_factors([1, 1]) == (True, IntegerPolynomial([1]))

    def test_residual_sign_after_odd_and_even_runs_of_phi_2(self):
        # Phi_2(q) = -Phi_1(-q): the sign of the residual depends on the
        # parity of the number of Phi_2 divided out
        cubic = IntegerPolynomial([5, -1, 0, 2])
        for power in (44, 45):
            p = cubic
            for _ in range(power):
                p = p * _phi(2)
            for sign in (1, -1):
                ok, residual = strip_cyclotomic_factors(sign * p)
                assert (ok, residual) == (False, sign * cubic), (power, sign)
                self.check(sign * p)

    def test_t_polynomials(self):
        # q = t^2 turns each Phi_d(q) into Phi_d(t) Phi_2d(t) for odd d and
        # into Phi_2d(t) for even d: the q -> -q step at high multiplicity
        for n in range(1, 13):
            for k in range(n // 2 + 1):  # [n, k]_q = [n, n - k]_q
                self.check(IntegerPolynomial(gaussian_binomial(n, k)).interleave_zero())
        for k in range(1, 7):
            self.check(IntegerPolynomial(goettsche_betti(k, 2 * k)).interleave_zero())

    def test_planted_products(self):
        phi = _phi
        quadratic = IntegerPolynomial([2, 1, 1])  # q^2 + q + 2, not cyclotomic
        assert min(phi(105).coeffs) == -2
        planted = [
            phi(60),
            phi(105),
            phi(1) * phi(1) * phi(2) * phi(6) * phi(6) * phi(6),
            IntegerPolynomial([0, 0, 0, 0, 3]) * phi(12) * phi(105),
            quadratic * quadratic * phi(60) * phi(3) * phi(3),
            IntegerPolynomial([0, 0, -1]) * quadratic * phi(7) * phi(30) * phi(1),
        ]
        for p in planted:
            self.check(p)


class TestStripCandidates:
    def test_candidates_are_the_inverse_totient(self):
        # phi(d) >= sqrt(d / 2), so phi(d) <= bound means d <= 2 bound^2;
        # sympy's sieve gives phi(d) for every d at once
        phis = [None] + list(map(int, sympy.sieve.totientrange(1, 2 * 60 ** 2 + 1)))
        for bound in range(61):
            expected = [
                (d, phis[d]) for d in range(1, 2 * bound ** 2 + 1) if phis[d] <= bound
            ]
            assert list(algebra._cyclotomic_candidates(bound)) == expected, bound

    def test_moebius_value_at_two(self):
        # the helper's binomials are the Moebius ones, its Phi_d(2) is the
        # value of sympy's Phi_d at 2, and the values multiply
        # over the divisors to 2^d - 1, which fixes each of them
        mobius = [None, 1] + [0] * 499
        for n in range(2, 501):
            mobius[n] = -sum(mobius[e] for e in range(1, n) if n % e == 0)
        values = [None]
        for d in range(1, 501):
            num, den, at_two = algebra._cyclotomic_binomials(d)
            divisors = [e for e in range(1, d + 1) if d % e == 0]
            assert sorted(num) == [e for e in divisors if mobius[d // e] == 1], d
            assert sorted(den) == [e for e in divisors if mobius[d // e] == -1], d
            assert at_two == sympy.cyclotomic_poly(d, 2), d
            values.append(at_two)
            assert prod(values[e] for e in divisors) == 2 ** d - 1, d

    def test_hilbert_polynomials_as_before(self):
        for k in range(1, 11):
            betti = goettsche_betti(k, 2 * k)
            p = IntegerPolynomial(betti).interleave_zero()
            assert strip_cyclotomic_factors(p) == _sympy_verdict(p), k

    def test_gaussian_binomials_as_before(self):
        for n in range(1, 11):
            for k in range(n + 1):
                p = IntegerPolynomial(gaussian_binomial(n, k))
                ok, residual = strip_cyclotomic_factors(p)
                assert (ok, residual) == _sympy_verdict(p), (n, k)
                assert ok

    def test_root_at_two_passes_every_filter(self):
        # p(2) = 0 lets every Phi_d through the q = 2 filter, so only the
        # exact division decides
        p = IntegerPolynomial([-2, 1]) * _phi(5) * _phi(1)
        assert strip_cyclotomic_factors(p) == (False, IntegerPolynomial([-2, 1]))


@st.composite
def _dividend_and_binomial(draw):
    # a coefficient list (highest degree first) and e from 1 to n + 2, so
    # that every branch of the kernel runs: e = 1, e * e <= n, e * e > n,
    # e = n and e > n; half the time the remainder mod q^e - 1 (the sums
    # of the coefficients over each class of exponents mod e) is
    # subtracted, which makes the division exact
    rr = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=40))
    n = len(rr)
    e = draw(st.integers(1, n + 2))
    if draw(st.booleans()):
        for j in range(min(e, n)):
            rr[n - 1 - j] -= sum(rr[n - 1 - i] for i in range(j, n, e))
    return rr, e


def _check_binomial_quotient(rr, times, over):
    # rr (highest degree first) times each q^e - 1 of times, over each of
    # over: the kernel answers None exactly when sympy leaves a remainder,
    # and otherwise sympy's quotient, without writing rr
    before = list(rr)
    got = algebra._binomial_quotient(rr, times, over)
    assert rr == before
    q = sympy.symbols("q")
    product = sympy.Poly(rr, q) * prod(sympy.Poly(q**e - 1, q) for e in times)
    quotient, remainder = product.div(prod(sympy.Poly(q**e - 1, q) for e in over))
    if remainder.is_zero:
        assert got is not None
        assert IntegerPolynomial(reversed(got)) == IntegerPolynomial(
            reversed(quotient.all_coeffs())
        )
    else:
        assert got is None


class TestBinomialQuotient:
    @settings(deadline=None, max_examples=300)
    @given(_dividend_and_binomial())
    @example(([1, 2, 3], 1))
    @example(([1, 2, 3], 3))
    @example(([0, 0, 0], 3))
    @example(([1, 2, 3], 5))
    def test_against_sympy_division(self, case):
        rr, e = case
        _check_binomial_quotient(rr, (), (e,))

    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=20),
        st.lists(st.integers(1, 12), min_size=1, max_size=3),
        st.lists(st.integers(1, 12), min_size=1, max_size=3),
    )
    @example([1], [6], [2, 3])
    @example([1, 2, 3], [6], [4])
    @example([1], [2, 3], [1, 6])
    @example([2, -1], [1, 1, 2], [1, 1, 2])
    def test_products_and_quotients_against_sympy(self, rr, times, over):
        # both lists non-empty, the way strip_cyclotomic_factors and
        # _kernel_phi call the kernel
        _check_binomial_quotient(rr, times, over)

    def test_several_blocks_and_a_short_last_one(self):
        # n = 23, e = 5: 25 > 23, so the division runs block by block,
        # four steps with a last block of 3
        quotient = list(range(1, 19))
        rr = [a - b for a, b in zip(quotient + [0] * 5, [0] * 5 + quotient)]  # times q^5 - 1
        assert len(rr) == 23
        before = list(rr)
        assert algebra._binomial_quotient(rr, (), (5,)) == quotient
        assert rr == before
        rr[-3] += 1
        before = list(rr)
        assert algebra._binomial_quotient(rr, (), (5,)) is None
        assert rr == before


class TestIntegerPolynomial:
    def test_power_of_phi_2_stripped_to_constant(self):
        phi2 = _phi(2)
        p = IntegerPolynomial([5])
        for _ in range(40):
            p = p * phi2
        assert len(p.coeffs) - 1 == 40
        assert strip_cyclotomic_factors(p) == (True, IntegerPolynomial([5]))

    def test_evaluation(self):
        p = IntegerPolynomial([1, 0, 2, 0, 5, 0, 6, 0, 5, 0, 2, 0, 1])
        assert p(1) == 22
        # an int value gives an int; a Fraction, even a whole one, is refused
        assert type(p(2)) is int
        for x in (Fraction(1, 2), Fraction(2)):
            with pytest.raises(TypeError):
                IntegerPolynomial([1, 1])(x)

    def test_interleave(self):
        assert IntegerPolynomial([1, 2, 3]).interleave_zero().coeffs == (1, 0, 2, 0, 3)

    def test_zero_polynomial_products_and_interleave(self):
        zero, p = IntegerPolynomial(), IntegerPolynomial([1, -2, 3])
        assert (zero * p).is_zero() and (p * zero).is_zero()
        assert (zero * zero).is_zero()
        assert zero.interleave_zero().is_zero()

    def test_subtraction(self):
        p, q = IntegerPolynomial([1, 2, 3]), IntegerPolynomial([4, -5])
        # operands of unequal length, either way round
        assert (p - q).coeffs == (-3, 7, 3)
        assert (q - p).coeffs == (3, -7, -3)
        assert q - p == -(p - q)
        # a cancelling top coefficient is trimmed, and p - p is zero
        assert (p - IntegerPolynomial([0, 0, 3])).coeffs == (1, 2)
        assert (p - p).coeffs == ()

    def test_equality_and_hash_by_coefficients(self):
        p = IntegerPolynomial([1, 2, 0, 0])
        assert p == IntegerPolynomial((1, 2)) and hash(p) == hash(IntegerPolynomial((1, 2)))
        assert p != IntegerPolynomial([1, 2, 1])
        assert p != (1, 2)
        assert len({p, IntegerPolynomial([1, 2]), IntegerPolynomial()}) == 2

    def test_str(self):
        assert str(IntegerPolynomial([1, 1, 2, 1, 1])) == "1 + q + 2*q^2 + q^3 + q^4"
        assert str(IntegerPolynomial()) == "0"
        assert IntegerPolynomial([-1, -1, 0, 2, 1]).str_with_variable("t") == "-1 + -t + 2*t^3 + t^4"


class TestMultiPoly:
    def test_canonical_str_order_and_coefficients(self):
        p = MultiPoly(
            ("x", "y"),
            {(1, 1): -1, (0, 1): -12, (2, 0): 3, (0, 0): 5},
        )
        assert p.canonical_str() == "3*x^2 + -1*x*y + -12*y + 5"

    def test_substitute(self):
        p = MultiPoly(("x", "v"), {(1, 1): 2, (1, 0): -1})
        q = p.substitute("v", 0)
        assert q.variables == ("x",)
        assert q.terms == {(1,): -1}
        # a name that is not a variable is named, with the variables
        with pytest.raises(ValueError, match=r"'y' in \('x', 'v'\)"):
            p.substitute("y", 1)

    def test_substitute_polynomial(self):
        # x = y - 2*z in 2*x^2*y + 3*x*z - y^2, expanded by hand
        p = MultiPoly(("x", "y", "z"), {(2, 1, 0): 2, (1, 0, 1): 3, (0, 2, 0): -1})
        value = MultiPoly(("y", "z"), {(1, 0): 1, (0, 1): -2})
        assert p.substitute("x", value) == MultiPoly(("y", "z"), {
            (3, 0): 2,
            (2, 1): -8,
            (1, 2): 8,
            (1, 1): 3,
            (0, 2): -6,
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
        terms = {(2, 0): 3, (1, 1): -2, (0, 3): 1}
        p = MultiPoly(("x", "y"), terms)
        q = MultiPoly(("x", "y"), dict(reversed(list(terms.items()))))
        assert p == q and hash(p) == hash(q)
        assert hash(p) == hash(p) == hash(MultiPoly(("x", "y"), terms))
        assert hash(p + q) == hash(q.scale(2))

    def test_arithmetic(self):
        x = MultiPoly(("x",), {(1,): 1})
        assert (x * x - x).terms == {(2,): 1, (1,): -1}
        assert (x - x).is_zero()
        # a polynomial over other variables is still a ValueError
        with pytest.raises(ValueError, match="different variables"):
            x + MultiPoly(("y",), {(1,): 1})
