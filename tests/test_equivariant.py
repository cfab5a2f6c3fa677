"""Localization representation of equivariant classes."""

from fractions import Fraction

import pytest

from cohomix.algebra import Partition, partitions_in_box, schur_evaluate
from cohomix.equivariant import (
    EquivariantClass,
    LaurentPolynomial,
    eq_schur_class,
    localization_rank_check,
    restrict_class,
)
from cohomix.errors import BoxViolation, UnknownFixedPoint
from cohomix.gotzmann import (
    build_torus_action,
    degree_k_part,
    enumerate_hilb_fixed_points,
)
from cohomix.grassmann import FixedSubspace, WeightSystem, enumerate_fixed_subspaces


def hilb_points(k):
    triples = enumerate_hilb_fixed_points(k)
    action = build_torus_action(k)
    return [degree_k_part(t, k) for t in triples], action.weight_system()


class TestLaurentPolynomial:
    def test_arithmetic(self):
        v = LaurentPolynomial.monomial(1, 1)
        inv = LaurentPolynomial.monomial(1, -1)
        assert (v * inv).coeffs == {0: Fraction(1)}
        assert (v + v).coeffs == {1: Fraction(2)}
        assert (v - v).is_zero()

    def test_polynomial_flag(self):
        assert LaurentPolynomial({0: 1, 3: 2}).is_polynomial()
        assert not LaurentPolynomial({-1: 1}).is_polynomial()

    def test_evaluation(self):
        p = LaurentPolynomial({2: 3, 0: 1})
        assert p(2) == 13

    def test_scalar_product(self):
        p = LaurentPolynomial({-1: 2, 3: Fraction(1, 3)})
        assert p * 3 == LaurentPolynomial({-1: 6, 3: 1})
        assert Fraction(1, 2) * p == LaurentPolynomial({-1: 1, 3: Fraction(1, 6)})
        assert (p * 0).is_zero()

    def test_str(self):
        assert str(LaurentPolynomial({1: 66})) == "66*v"
        assert str(LaurentPolynomial({0: Fraction(1, 2)})) == "1/2"
        assert str(LaurentPolynomial()) == "0"
        p = LaurentPolynomial({-2: Fraction(-1, 2), -1: -1, 0: 3, 1: 1, 2: Fraction(2, 3)})
        assert str(p) == "2/3*v^2 + v + 3 + -v^-1 + -1/2*v^-2"


class TestEqSchurClass:
    def test_empty_partition_constant_one(self):
        points, ws = hilb_points(1)
        c = eq_schur_class(Partition(()), points, ws)
        assert all(v == LaurentPolynomial.constant(1) for v in c.values)

    def test_worked_66v(self):
        _points, ws = hilb_points(2)
        ambient = enumerate_fixed_subspaces(6, 2)
        c = eq_schur_class(Partition((1,)), ambient, ws)
        assert c.value_at(FixedSubspace((1, 2, 3, 4), 6)) == LaurentPolynomial({1: 66})

    def test_v_power_tracks_partition_size(self):
        points, ws = hilb_points(2)
        for mu in partitions_in_box(4, 2, 3):
            c = eq_schur_class(mu, points, ws)
            for pt, val in zip(c.support, c.values):
                expected = schur_evaluate(mu, ws.at(pt.indices))
                assert val.coefficient(mu.size) == expected
                assert all(e == mu.size for e in val.coeffs)

    def test_setting_v_to_one_recovers_ordinary_row(self):
        points, ws = hilb_points(2)
        mu = Partition((2, 1))
        c = eq_schur_class(mu, points, ws)
        for pt, val in zip(c.support, c.values):
            assert val(1) == schur_evaluate(mu, ws.at(pt.indices))

    def test_box_violation(self):
        points, ws = hilb_points(1)
        with pytest.raises(BoxViolation):
            eq_schur_class(Partition((2,)), points, ws)

    def test_box_violation_on_gr24(self):
        # Gr(2,4) has a 2 x 2 box: too long a row, or too many rows
        ws = WeightSystem.principal(4)
        points = enumerate_fixed_subspaces(4, 2)
        with pytest.raises(BoxViolation):
            eq_schur_class(Partition((3,)), points, ws)
        with pytest.raises(BoxViolation):
            eq_schur_class(Partition((1, 1, 1)), points, ws)

    def test_integer_values_for_integer_weights(self):
        points, ws = hilb_points(2)
        for mu in partitions_in_box(4, 2, 3):
            for val in eq_schur_class(mu, points, ws).values:
                assert val.coefficient(mu.size).denominator == 1

    def test_pointwise_square(self):
        points, ws = hilb_points(1)
        c = eq_schur_class(Partition((1,)), points, ws)
        sq = c * c
        for pt, val in zip(sq.support, sq.values):
            s = schur_evaluate((1,), ws.at(pt.indices))
            assert val == LaurentPolynomial({2: s * s})


class TestEquivariantClass:
    def test_one_value_per_point(self):
        points, _ = hilb_points(1)
        values = [LaurentPolynomial.constant(1)] * (len(points) - 1)
        with pytest.raises(ValueError, match="one value per fixed point"):
            EquivariantClass(points, values)

    def test_scalar_product(self):
        points, ws = hilb_points(1)
        c = eq_schur_class(Partition((1,)), points, ws)
        for scaled in (c * Fraction(-1, 2), Fraction(-1, 2) * c):
            assert scaled.support == c.support
            assert scaled.values == tuple(v * Fraction(-1, 2) for v in c.values)


class TestPartitionTriplesRejected:
    # the box reads the Grassmannian of each point, which a partition
    # triple does not have: a TypeError, not an AttributeError
    def test_localization_rank_check(self):
        ws = build_torus_action(2).weight_system()
        with pytest.raises(TypeError, match="FixedSubspace"):
            localization_rank_check(enumerate_hilb_fixed_points(2), ws)

    def test_eq_schur_class(self):
        ws = build_torus_action(2).weight_system()
        with pytest.raises(TypeError, match="FixedSubspace"):
            eq_schur_class(Partition((1,)), enumerate_hilb_fixed_points(2), ws)

    def test_mixed_points(self):
        points, ws = hilb_points(2)
        with pytest.raises(TypeError, match="FixedSubspace"):
            localization_rank_check(points + enumerate_hilb_fixed_points(2)[:1], ws)


class TestRestrictClass:
    def test_identity_on_full_support(self):
        points, ws = hilb_points(2)
        c = eq_schur_class(Partition((1,)), points, ws)
        assert restrict_class(c, points) == c

    def test_coordinate_projection(self):
        points, ws = hilb_points(2)
        ambient = enumerate_fixed_subspaces(6, 2)
        c = eq_schur_class(Partition((1,)), ambient, ws)
        restricted = restrict_class(c, points)
        assert restricted.support == tuple(points)
        for pt in points:
            assert restricted.value_at(pt) == c.value_at(pt)

    def test_unknown_point(self):
        points, ws = hilb_points(2)
        c = eq_schur_class(Partition((1,)), points[:3], ws)
        with pytest.raises(UnknownFixedPoint):
            restrict_class(c, [points[4]])

    def test_commutes_with_products(self):
        points, ws = hilb_points(2)
        c = eq_schur_class(Partition((1,)), points, ws)
        d = eq_schur_class(Partition((1, 1)), points, ws)
        sub = points[:4]
        assert restrict_class(c * d, sub) == restrict_class(c, sub) * restrict_class(d, sub)


class TestLocalizationRankCheck:
    def test_full_on_hilb_fixed_sets(self):
        for k in (1, 2, 3, 4, 5):
            points, ws = hilb_points(k)
            rank, full = localization_rank_check(points, ws)
            assert full
            assert rank == len(points)

    def test_full_on_grassmannians(self):
        for n, k in ((4, 2), (6, 2)):
            ws = WeightSystem.principal(n)
            points = enumerate_fixed_subspaces(n, k)
            rank, full = localization_rank_check(points, ws)
            assert full
            assert rank == len(points)

    def test_single_point(self):
        ws = WeightSystem.principal(4)
        rank, full = localization_rank_check([FixedSubspace((1, 2), 4)], ws)
        assert (rank, full) == (1, True)

    def test_duplicated_point_cannot_reach_full_rank(self):
        ws = WeightSystem.principal(4)
        pt = FixedSubspace((1, 2), 4)
        rank, full = localization_rank_check([pt, pt], ws)
        assert (rank, full) == (1, False)
