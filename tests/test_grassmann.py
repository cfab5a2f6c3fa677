"""Grassmannian cells, Poincare polynomials, and ring presentations."""

import random
from fractions import Fraction
from itertools import accumulate, product

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from cohomix.algebra import IntegerPolynomial, MultiPoly
from cohomix.errors import (
    IndexOutOfRange,
    InvalidDegree,
    InvalidDimensions,
    NotPolynomial,
)
from cohomix.grassmann import (
    FixedSubspace,
    GradedPresentation,
    _eliminate_linear,
    _macaulay_dimension,
    _weighted_monomials,
    WeightSystem,
    enumerate_fixed_subspaces,
    equivariant_presentation,
    generator_variables,
    graded_dimension,
    graded_dimensions,
    minus_cell_dimension,
    ordinary_presentation,
    plus_cell_dimension,
    poincare_from_cells,
    poincare_from_regular_sequence,
    relation_generator,
    specialize_v,
    w_degree,
)

from oracles import gaussian_binomial, grassmannian_cells_brute


def reference_minus_cells(point, weights):
    # the defining pair count over (i in I, j not in I)
    inside = set(point.indices)
    outside = [j for j in range(1, point.n + 1) if j not in inside]
    return sum(
        1 for i in point.indices for j in outside if weights[j - 1] < weights[i - 1]
    )


class TestWeightSystem:
    def test_principal(self):
        assert WeightSystem.principal(4).weights == (3, 1, -1, -3)

    def test_rejects_repeats(self):
        with pytest.raises(InvalidDimensions):
            WeightSystem((1, 1, 2))
        with pytest.raises(InvalidDimensions):
            WeightSystem([])

    def test_at_bounds(self):
        ws = WeightSystem((5, 6, 7))
        assert ws.at((1, 3)) == (5, 7)
        with pytest.raises(IndexOutOfRange):
            ws.at((0,))
        with pytest.raises(IndexOutOfRange):
            ws.at((4,))


class TestFixedSubspaces:
    def test_enumeration_counts(self):
        assert len(enumerate_fixed_subspaces(2, 1)) == 2
        assert len(enumerate_fixed_subspaces(4, 2)) == 6
        assert len(enumerate_fixed_subspaces(10, 3)) == 120

    def test_lexicographic_order(self):
        pts = enumerate_fixed_subspaces(4, 2)
        assert [p.indices for p in pts] == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        ]

    def test_degenerate_k(self):
        assert [p.indices for p in enumerate_fixed_subspaces(3, 0)] == [(1, 2, 3)]
        assert [p.indices for p in enumerate_fixed_subspaces(3, 3)] == [()]

    def test_rejects_bad_dims(self):
        with pytest.raises(InvalidDimensions):
            enumerate_fixed_subspaces(2, 5)

    def test_complement(self):
        assert FixedSubspace((1, 3), 4).complement() == (2, 4)

    def test_rejects_unordered_indices(self):
        for indices in ((2, 2), (3, 1)):
            with pytest.raises(ValueError):
                FixedSubspace(indices, 4)

    def test_rejects_indices_out_of_range(self):
        for indices in ((0, 2), (1, 5)):
            with pytest.raises(IndexOutOfRange):
                FixedSubspace(indices, 4)


class TestCellDimensions:
    def test_worked_example(self):
        # weights (1,2,3,4), I = {1,3}: tangent weights {1,-1,3,1}
        ws = WeightSystem((1, 2, 3, 4))
        assert minus_cell_dimension(FixedSubspace((1, 3), 4), ws) == 1

    def test_extremes(self):
        ws = WeightSystem((10, 20, 30, 40))
        smallest = FixedSubspace((1, 2), 4)  # the two smallest weights
        largest = FixedSubspace((3, 4), 4)
        assert minus_cell_dimension(smallest, ws) == 0
        assert minus_cell_dimension(largest, ws) == 4

    def test_plus_minus_duality(self):
        ws = WeightSystem.principal(6)
        for pt in enumerate_fixed_subspaces(6, 2):
            assert minus_cell_dimension(pt, ws) + plus_cell_dimension(pt, ws) == 8

    def test_plus_is_minus_of_negated_weights(self):
        # an independent route: the plus cell under ws is the minus cell
        # under the negated weights
        for ws in (WeightSystem.principal(6), WeightSystem((5, -2, 9, 0, 3, 11))):
            flipped = WeightSystem([-a for a in ws.weights])
            for pt in enumerate_fixed_subspaces(6, 3):
                assert plus_cell_dimension(pt, ws) == minus_cell_dimension(pt, flipped)


    def test_rank_sum_matches_pair_count(self):
        weights = random.Random(7).sample(range(-40, 40), 9)
        assert min(weights) < 0 < max(weights)
        ws = WeightSystem(weights)
        cells = [0] * 21
        for pt in enumerate_fixed_subspaces(9, 4):
            d = reference_minus_cells(pt, weights)
            assert minus_cell_dimension(pt, ws) == d
            assert plus_cell_dimension(pt, ws) == 20 - d
            cells[d] += 1
        assert poincare_from_cells(ws, 4).coefficient_list() == cells

    def test_only_first_n_weights_count(self):
        # weights past point.n are ignored, however they compare
        weights = (4, -3, 8, 1, 0, 20)
        for pt in enumerate_fixed_subspaces(4, 2):
            assert minus_cell_dimension(pt, WeightSystem(weights)) == (
                reference_minus_cells(pt, weights[:4])
            )

    def test_short_weight_system_rejected(self):
        with pytest.raises(IndexOutOfRange):
            minus_cell_dimension(FixedSubspace((1, 2), 4), WeightSystem((1, 2, 3)))


class TestPoincareFromCells:
    def test_matches_gaussian_binomial(self):
        for n, k in ((4, 2), (6, 2), (10, 3)):
            poly = poincare_from_cells(WeightSystem.principal(n), k)
            assert poly.coefficient_list() == gaussian_binomial(n, k)

    def test_matches_brute_force(self):
        weights = (7, -2, 5, 11)
        poly = poincare_from_cells(WeightSystem(weights), 2)
        assert poly.coefficient_list() == grassmannian_cells_brute(4, 2, weights)

    def test_k_zero(self):
        assert poincare_from_cells(WeightSystem.principal(3), 0).coeffs == (1,)

    def test_rejects_bad_dims(self):
        # the same check as enumerate_fixed_subspaces, which it no longer calls
        for k in (-1, 4):
            with pytest.raises(InvalidDimensions):
                poincare_from_cells(WeightSystem.principal(3), k)

    @settings(deadline=None, max_examples=25)
    @given(st.permutations([3, -1, 4, 1, -5, 9]))
    def test_weight_choice_irrelevant(self, weights):
        poly = poincare_from_cells(WeightSystem(weights), 2)
        assert poly.coefficient_list() == gaussian_binomial(6, 2)


class TestPoincareFromRegularSequence:
    def test_gr24(self):
        poly = poincare_from_regular_sequence((2, 3, 1, 2), 1)
        assert poly.coefficient_list() == [1, 1, 2, 1, 1]

    def test_projective_line(self):
        assert poincare_from_regular_sequence((1,), 1).coeffs == (1, 1)

    def test_empty(self):
        assert poincare_from_regular_sequence((), 1).coeffs == (1,)

    def test_noncancelling_raises(self):
        with pytest.raises(NotPolynomial):
            poincare_from_regular_sequence((3,), 1)
        # a shift or a degree that is not positive
        with pytest.raises(ValueError, match="shift"):
            poincare_from_regular_sequence([1], 0)
        with pytest.raises(ValueError, match="degrees"):
            poincare_from_regular_sequence([0], 1)

    def test_agrees_with_cells(self):
        for n, k in ((4, 2), (6, 2), (10, 3)):
            degrees = [
                w_degree(i, j, n, k)
                for i in range(1, n - k + 1)
                for j in range(1, k + 1)
            ]
            assert poincare_from_regular_sequence(degrees, 1) == poincare_from_cells(
                WeightSystem.principal(n), k
            )


class TestWDegree:
    def test_values(self):
        assert w_degree(2, 1, 4, 2) == 1  # (n-k, 1) is minimal
        assert w_degree(1, 2, 4, 2) == 3  # (1, k) is n-1
        assert w_degree(1, 1, 4, 2) == 2

    def test_bounds(self):
        with pytest.raises(IndexOutOfRange):
            w_degree(0, 1, 4, 2)
        with pytest.raises(IndexOutOfRange):
            w_degree(1, 3, 4, 2)
        with pytest.raises(InvalidDimensions):
            w_degree(1, 1, 2, 2)
        with pytest.raises(InvalidDimensions):
            generator_variables(2, 2)


class TestRelationGenerator:
    def test_both_boundary_terms_drop(self):
        rel = relation_generator(1, 2, 6, 2)
        assert rel.canonical_str() == "-1*w_1_1*w_4_2"

    def test_interior(self):
        rel = relation_generator(2, 1, 6, 2)
        assert rel.canonical_str() == "-1*w_2_1*w_4_1 + -1*w_1_1 + 1*w_2_2"

    def test_small(self):
        rel = relation_generator(1, 1, 4, 2)
        assert rel.canonical_str() == "-1*w_1_1*w_2_1 + 1*w_1_2"

    def test_homogeneity_all_indices(self):
        for n, k in ((4, 2), (6, 2), (5, 3)):
            pres = ordinary_presentation(n, k)
            for i in range(1, n - k + 1):
                for j in range(1, k + 1):
                    rel = relation_generator(i, j, n, k)
                    assert rel.homogeneous_degree(pres.degrees) == w_degree(i, j, n, k) + 1


class TestPresentations:
    def test_shapes(self):
        pres = ordinary_presentation(4, 2)
        assert len(pres.variables) == 4
        assert pres.degrees == (2, 3, 1, 2)
        assert pres.relation_degrees() == (3, 4, 2, 3)
        assert ordinary_presentation(6, 2).variables == (
            "w_1_1", "w_1_2", "w_2_1", "w_2_2",
            "w_3_1", "w_3_2", "w_4_1", "w_4_2",
        )

    def test_homogeneous(self):
        assert ordinary_presentation(6, 2).is_homogeneous()
        assert equivariant_presentation(6, 2).is_homogeneous()

    def test_equivariant_adds_v(self):
        pres = equivariant_presentation(4, 2)
        assert pres.variables[-1] == "v"
        assert pres.degrees[-1] == 1
        assert len(pres.relations) == 4

    def test_equivariant_worked_example(self):
        # (i,j) = (1,1), (n,k) = (6,2): 8*v*w_1_1 - 2*(-w_1_1*w_4_1 + w_1_2)
        pres = equivariant_presentation(6, 2)
        rel = pres.relations[0]
        assert rel.canonical_str() == "2*w_1_1*w_4_1 + 8*w_1_1*v + -2*w_1_2"

    @pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (6, 3), (7, 2)])
    def test_equivariant_relations_from_the_formula(self, n, k):
        # 2((n-k) - (i-j)) * v * w_{i,j} - 2 * (ordinary relation lifted to
        # the variables with v), built with MultiPoly arithmetic
        variables = generator_variables(n, k) + ("v",)
        v = MultiPoly(variables, {(0,) * (len(variables) - 1) + (1,): 1})
        expected = []
        for i in range(1, n - k + 1):
            for j in range(1, k + 1):
                w = MultiPoly(variables, {
                    tuple(int(name == "w_%d_%d" % (i, j)) for name in variables): 1
                })
                ordinary = relation_generator(i, j, n, k)
                lifted = MultiPoly(variables, {e + (0,): c for e, c in ordinary.terms.items()})
                expected.append(v * w * (2 * ((n - k) - (i - j))) - lifted.scale(2))
        assert equivariant_presentation(n, k).relations == tuple(expected)

    def test_specialize_v_at_zero(self):
        for n, k in ((4, 2), (6, 2)):
            ordinary = ordinary_presentation(n, k)
            specialized = specialize_v(equivariant_presentation(n, k), 0)
            assert specialized.variables == ordinary.variables
            for got, base in zip(specialized.relations, ordinary.relations):
                assert got == base.scale(-2)

    def test_specialize_v_rejects_plain_presentation(self):
        with pytest.raises(ValueError):
            specialize_v(ordinary_presentation(4, 2), 0)


class TestGradedDimension:
    def test_constants(self):
        assert graded_dimension(ordinary_presentation(4, 2), 0) == 1
        with pytest.raises(InvalidDegree):
            graded_dimension(ordinary_presentation(4, 2), -1)

    def test_gr24_full_profile(self):
        pres = ordinary_presentation(4, 2)
        assert graded_dimensions(pres, 5) == [1, 1, 2, 1, 1, 0]

    def test_gr26_low_degrees(self):
        pres = ordinary_presentation(6, 2)
        expected = gaussian_binomial(6, 2)
        assert graded_dimensions(pres, 4) == expected[:5]

    def test_gr73_full_profile(self):
        pres = ordinary_presentation(7, 3)
        assert graded_dimensions(pres, 12) == gaussian_binomial(7, 3)

    @pytest.mark.parametrize("n, k", [(8, 3), (9, 3), (10, 4), (11, 4)])
    def test_full_profile_matches_gaussian(self, n, k):
        pres = ordinary_presentation(n, k)
        assert graded_dimensions(pres, k * (n - k)) == gaussian_binomial(n, k)

    @pytest.mark.slow
    def test_equivariant_gr84_to_degree_16(self):
        sums = list(accumulate(gaussian_binomial(8, 4)))
        assert graded_dimensions(equivariant_presentation(8, 4), 16) == sums[:17]

    def test_equivariant_gr63_full_profile(self):
        # H_T = H tensor Q[v], so degree d has dimension b_0 + ... + b_d
        top = 3 * 3 + 1
        sums = list(accumulate(gaussian_binomial(6, 3)))
        expected = sums + [sums[-1]] * (top + 1 - len(sums))
        assert graded_dimensions(equivariant_presentation(6, 3), top) == expected

    def test_permuted_presentation_same_profile(self):
        rng = random.Random(2024)
        for pres, top in (
            (ordinary_presentation(7, 3), 12),
            (equivariant_presentation(5, 2), 7),
        ):
            perm = list(range(len(pres.variables)))
            rng.shuffle(perm)
            variables = tuple(pres.variables[i] for i in perm)
            relations = [
                MultiPoly(variables, {tuple(e[i] for i in perm): c for e, c in rel.terms.items()})
                for rel in pres.relations
            ]
            rng.shuffle(relations)
            permuted = GradedPresentation(
                variables, (pres.degrees[i] for i in perm), relations
            )
            assert graded_dimensions(permuted, top) == graded_dimensions(pres, top)

    def test_nonpositive_degrees_rejected(self):
        with pytest.raises(InvalidDegree):
            GradedPresentation(("x",), (0,), [])
        with pytest.raises(InvalidDegree):
            GradedPresentation(("x", "y"), (1, -1), [])
        # one degree per variable, and every relation over those variables
        with pytest.raises(ValueError):
            GradedPresentation(("x",), (1, 2), [])
        with pytest.raises(ValueError):
            GradedPresentation(("x",), (1,), [MultiPoly(("y",), {(1,): 1})])

    def test_repeated_variable_names_rejected(self):
        # substitution goes by name, so a second v would be skipped: with
        # distinct names this presentation's profile is [1, 1, 1, 1, 1]
        with pytest.raises(ValueError, match="repeated variable"):
            GradedPresentation(("x", "x"), (1, 1), [])
        with pytest.raises(ValueError, match="repeated variable"):
            specialize_v(GradedPresentation(
                ("v", "v"), (1, 2), [MultiPoly(("v", "v"), {(0, 1): 1})]
            ))
        distinct = GradedPresentation(("u", "v"), (1, 2), [MultiPoly(("u", "v"), {(0, 1): 1})])
        assert graded_dimensions(specialize_v(distinct), 4) == [1, 1, 1, 1, 1]

    def test_not_homogeneous_raises_at_every_degree(self):
        # x + x^2 with deg x = 2: degree 1 has no monomials, and still raises
        rel = MultiPoly(("x",), {(1,): 1, (2,): 1})
        pres = GradedPresentation(("x",), (2,), [rel])
        for d in range(5):
            with pytest.raises(InvalidDegree):
                graded_dimension(pres, d)


def _reduced(pres):
    return _eliminate_linear(pres)


def _profile_both_routes(pres, top):
    # the eliminated route, then the Macaulay rank on the full presentation
    return (
        graded_dimensions(pres, top),
        [_macaulay_dimension(pres, d) for d in range(top + 1)],
    )


def _brute_monomials(degrees, d):
    # every exponent in 0..d, kept when the weighted degree is d
    return [
        e for e in product(range(d + 1), repeat=len(degrees))
        if sum(a * w for a, w in zip(e, degrees)) == d
    ]


def _dense_macaulay_dimension(pres, d):
    # Built here, apart from the library: dense (monomial x relation) rows
    # over brute-force monomials, ranked by sympy.
    monomials = _brute_monomials(pres.degrees, d)
    column = {m: pos for pos, m in enumerate(monomials)}
    rows = []
    for rel in pres.relations:
        rd = rel.homogeneous_degree(pres.degrees)
        if rel.is_zero() or rd > d:
            continue
        for shift in _brute_monomials(pres.degrees, d - rd):
            row = [0] * len(monomials)
            for exps, c in rel.terms.items():
                row[column[tuple(a + b for a, b in zip(exps, shift))]] = c
            rows.append(row)
    return len(monomials) - (sympy.Matrix(rows).rank() if rows else 0)


def _coefficient_two(c):
    # c*x - y^2 and x*y, with deg x = 2 and deg y = 1
    variables = ("x", "y")
    return GradedPresentation(
        variables,
        (2, 1),
        [
            MultiPoly(variables, {(1, 0): c, (0, 2): -1}),
            MultiPoly(variables, {(1, 1): 1}),
        ],
    )


class TestMacaulayDimension:
    @pytest.mark.parametrize(
        "pres, top",
        [
            (_reduced(ordinary_presentation(4, 2)), 5),
            (_reduced(ordinary_presentation(5, 2)), 7),
            (_reduced(equivariant_presentation(4, 2)), 6),
            (_reduced(equivariant_presentation(5, 2)), 8),
            (equivariant_presentation(4, 2), 6),
            (_coefficient_two(2), 5),
            (_coefficient_two(-2), 5),
            (_reduced(_coefficient_two(2)), 5),
            (_reduced(_coefficient_two(-2)), 5),
            (_coefficient_two(Fraction(2, 3)), 5),
            (_reduced(_coefficient_two(Fraction(2, 3))), 5),
            # x^2 and y share degree 2: a monomial code in base d would
            # give them one column
            (GradedPresentation(("x", "y"), (1, 2), [
                MultiPoly(("x", "y"), {(2, 0): 1}),
                MultiPoly(("x", "y"), {(0, 1): 1}),
            ]), 4),
        ],
        ids=[
            "ordinary-4-2",
            "ordinary-5-2",
            "equivariant-4-2",
            "equivariant-5-2",
            "equivariant-4-2-unreduced",
            "coefficient-2",
            "coefficient-minus-2",
            "coefficient-2-reduced",
            "coefficient-minus-2-reduced",
            "coefficient-two-thirds",
            "coefficient-two-thirds-reduced",
            "square-beside-degree-two",
        ],
    )
    def test_matches_dense_sympy_rank(self, pres, top):
        got = [_macaulay_dimension(pres, d) for d in range(top + 1)]
        assert got == [_dense_macaulay_dimension(pres, d) for d in range(top + 1)]

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.integers(1, 4), max_size=4).map(tuple), st.integers(0, 8))
    @example((3,), 6)
    @example((3,), 7)
    @example((2, 2, 2), 4)
    @example((1, 1), 0)
    @example((2, 4), 3)  # no solution
    @example((), 0)  # every variable eliminated
    @example((), 2)
    def test_weighted_monomials_brute_force(self, degrees, d):
        assert _weighted_monomials(degrees, d) == _brute_monomials(degrees, d)


class TestLinearElimination:
    def test_gr_reduces_to_k_variables(self):
        assert len(_reduced(ordinary_presentation(8, 3)).variables) == 3
        reduced = _reduced(equivariant_presentation(6, 3))
        assert len(reduced.variables) == 4
        assert reduced.variables[-1] == "v"

    def test_no_linear_term_left_alone(self):
        pres = GradedPresentation(("x",), (1,), [MultiPoly(("x",), {(3,): 1})])
        reduced = _reduced(pres)
        assert reduced.variables == pres.variables
        assert reduced.relations == pres.relations
        assert graded_dimensions(pres, 3) == [1, 1, 1, 0]

    def test_relation_with_two_linear_terms(self):
        # x - 2y eliminates x, the first variable; Q[y]/(y^3) is left
        variables = ("x", "y")
        pres = GradedPresentation(
            variables,
            (1, 1),
            [
                MultiPoly(variables, {(1, 0): 1, (0, 1): -2}),
                MultiPoly(variables, {(2, 1): 1, (0, 3): 1}),
            ],
        )
        reduced = _reduced(pres)
        assert reduced.variables == ("y",)
        assert reduced.relations == (MultiPoly(("y",), {(3,): 5}),)
        assert _profile_both_routes(pres, 4) == ([1, 1, 1, 0, 0],) * 2

    def test_relation_that_vanishes_is_dropped(self):
        variables = ("x", "y")
        x_minus_y = MultiPoly(variables, {(1, 0): 1, (0, 1): -1})
        pres = GradedPresentation(
            variables,
            (1, 1),
            [x_minus_y, x_minus_y.scale(3), MultiPoly(variables, {(0, 2): 1})],
        )
        reduced = _reduced(pres)
        assert reduced.relations == (MultiPoly(("y",), {(2,): 1}),)
        assert _profile_both_routes(pres, 3) == ([1, 1, 0, 0],) * 2

    @pytest.mark.parametrize("c", [2, -2, Fraction(2, 3)])
    def test_coefficient_two(self, c):
        # c*x - y^2 with deg x = 2 gives x = y^2/c, so x*y becomes y^3/c
        pres = _coefficient_two(c)
        reduced = _reduced(pres)
        assert reduced.relations == (MultiPoly(("y",), {(3,): Fraction(1, c)}),)
        assert _profile_both_routes(pres, 4) == ([1, 1, 1, 0, 0],) * 2

    def test_equivariant_matches_full_macaulay(self):
        pres = equivariant_presentation(4, 2)
        got, reference = _profile_both_routes(pres, 6)
        assert got == reference == [1, 2, 4, 5, 6, 6, 6]

    def test_same_dimensions_cold_and_warm(self):
        cold = []
        for d in range(13):
            _eliminate_linear.cache_clear()
            cold.append(graded_dimension(ordinary_presentation(7, 3), d))
        before = _eliminate_linear.cache_info()
        # one presentation object is reduced once, whatever degrees it asks for
        warm = graded_dimensions(ordinary_presentation(7, 3), 12)
        after = _eliminate_linear.cache_info()
        assert (after.misses, after.hits) == (before.misses + 1, before.hits + 12)
        assert cold == warm == gaussian_binomial(7, 3)
