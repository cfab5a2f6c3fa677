"""Betti numbers through the fixed-point filtration, both routes."""

import pytest
from hypothesis import given, settings, strategies as st

from cohomix.algebra import IntegerPolynomial, Partition, partitions_in_box
from cohomix.equivariant import localization_rank_check
from cohomix.errors import BoxViolation, InvalidDegree
from cohomix.filtration import (
    INCONCLUSIVE,
    NOT_REGULAR,
    BettiTable,
    b2_regularity_verdict,
    evaluation_matrix,
    filtration_betti,
    poincare_of_hilb,
    select_schur_basis,
)
from cohomix.gotzmann import (
    build_torus_action,
    degree_k_part,
    enumerate_hilb_fixed_points,
)
from cohomix.grassmann import (
    FixedSubspace,
    WeightSystem,
    enumerate_fixed_subspaces,
)

from oracles import gaussian_binomial, goettsche_betti

G3_T_COEFFS = [1, 0, 2, 0, 5, 0, 6, 0, 5, 0, 2, 0, 1]


def hilb_points(k):
    triples = enumerate_hilb_fixed_points(k)
    action = build_torus_action(k)
    return [degree_k_part(t, k) for t in triples], action.weight_system()


class TestEvaluationMatrix:
    def test_empty_partition_row_is_ones(self):
        ws = WeightSystem.principal(4)
        points = enumerate_fixed_subspaces(4, 2)
        m = evaluation_matrix([Partition(())], points, ws)
        assert m.row(()) == (1,) * 6

    def test_worked_66(self):
        points, ws = hilb_points(2)
        m = evaluation_matrix([Partition((1,))], [FixedSubspace((1, 2, 3, 4), 6)], ws)
        assert m.entry((1,), FixedSubspace((1, 2, 3, 4), 6)) == 66

    def test_box_violation(self):
        ws = WeightSystem.principal(4)
        points = enumerate_fixed_subspaces(4, 2)
        with pytest.raises(BoxViolation):
            evaluation_matrix([Partition((3,))], points, ws)
        with pytest.raises(BoxViolation):
            evaluation_matrix([Partition((1, 1, 1))], points, ws)

    def test_integer_entries_for_integer_weights(self):
        points, ws = hilb_points(2)
        m = evaluation_matrix(partitions_in_box(4, 2, 3), points, ws)
        for row in m.entries:
            for x in row:
                assert x.denominator == 1


class TestGrassmannianRoute:
    def test_gr24_betti(self):
        ws = WeightSystem.principal(4)
        table = filtration_betti(enumerate_fixed_subspaces(4, 2), ws, p_max=4)
        assert table.betti == (1, 1, 2, 1, 1)
        assert table.cumulative == (1, 2, 4, 5, 6)

    def test_matches_box_partition_counts(self):
        # Carrell's basis theorem at desk scale
        for n, k in ((4, 2), (6, 2)):
            ws = WeightSystem.principal(n)
            table = filtration_betti(enumerate_fixed_subspaces(n, k), ws)
            expected = tuple(
                len(partitions_in_box(n - k, k, p)) for p in range(k * (n - k) + 1)
            )
            assert table.betti == expected
            assert table.poincare_q().coefficient_list() == gaussian_binomial(n, k)

    def test_gr103_betti(self):
        ws = WeightSystem.principal(10)
        table = filtration_betti(enumerate_fixed_subspaces(10, 3), ws)
        assert table.poincare_q().coefficient_list() == gaussian_binomial(10, 3)

    @settings(deadline=None, max_examples=10)
    @given(st.integers(1, 7), st.integers(-20, 20))
    def test_affine_weight_invariance(self, alpha, beta):
        base = WeightSystem.principal(4)
        moved = WeightSystem(tuple(alpha * a + beta for a in base.weights))
        points = enumerate_fixed_subspaces(4, 2)
        assert filtration_betti(points, base).betti == filtration_betti(points, moved).betti


class TestHilbRoute:
    def test_betti_k1(self):
        table = filtration_betti(enumerate_hilb_fixed_points(1))
        assert table.betti == (1, 1, 1)

    def test_betti_k2(self):
        table = filtration_betti(enumerate_hilb_fixed_points(2))
        assert table.betti == (1, 2, 3, 2, 1)

    def test_betti_k3(self):
        table = filtration_betti(enumerate_hilb_fixed_points(3))
        assert table.betti == (1, 2, 5, 6, 5, 2, 1)

    def test_against_goettsche_product(self):
        for k in range(1, 11):
            table = filtration_betti(enumerate_hilb_fixed_points(k))
            assert list(table.betti) == goettsche_betti(k, 2 * k)

    def test_palindromic_and_total(self):
        for k in range(1, 5):
            table = filtration_betti(enumerate_hilb_fixed_points(k))
            assert table.is_palindromic()
            assert table.total() == table.fixed_points

    def test_restriction_monotonicity_of_rank_filtration(self):
        # dropping columns (restricting the fixed set) can only shrink the
        # per-degree rank jumps of the evaluation filtration
        for k in (2, 3):
            points, ws = hilb_points(k)
            n = points[0].n
            restricted = filtration_betti(points, ws, p_max=2 * k)
            ambient = filtration_betti(enumerate_fixed_subspaces(n, k), ws, p_max=2 * k)
            for bp_sub, bp_amb in zip(restricted.betti, ambient.betti):
                assert bp_sub <= bp_amb

    def test_true_betti_can_exceed_ambient(self):
        # the honest counterpoint: the actual second Betti number of the
        # k=2 Hilbert scheme is 2, larger than the ambient Grassmannian's 1,
        # which is why the pure evaluation filtration cannot compute it
        points, ws = hilb_points(2)
        hilb = filtration_betti(enumerate_hilb_fixed_points(2))
        ambient = filtration_betti(enumerate_fixed_subspaces(6, 2), ws, p_max=4)
        assert hilb.betti[1] == 2
        assert ambient.betti[1] == 1

    def test_rank_route_on_hilb_points_differs(self):
        # the function-theoretic filtration on the embedded fixed set is a
        # genuinely different (smaller) object; frozen for documentation
        points, ws = hilb_points(2)
        table = filtration_betti(points, ws, p_max=4)
        assert table.betti == (1, 1, 2, 2, 2)
        assert table.cumulative == (1, 2, 4, 6, 8)

    def test_mixed_points_rejected(self):
        points, _ = hilb_points(2)
        with pytest.raises(TypeError):
            filtration_betti(points + enumerate_hilb_fixed_points(2))


class TestBettiTable:
    def test_poincare_t_interleaves(self):
        table = BettiTable((1, 2, 1), 4)
        assert table.poincare_t().coeffs == (1, 0, 2, 0, 1)

    def test_json_shape(self):
        table = BettiTable((1, 1), 2, basis={0: (Partition(()),), 1: (Partition((1,)),)})
        doc = table.to_json_dict()
        assert list(doc.keys()) == ["betti", "poincare_t", "fixed_points", "basis"]
        assert doc["basis"] == {"0": [""], "1": ["1"]}


class TestSelectSchurBasis:
    def test_grassmannian_full_selection(self):
        ws = WeightSystem.principal(4)
        points = enumerate_fixed_subspaces(4, 2)
        sel = select_schur_basis(points, ws, p_max=4)
        assert [len(sel[p]) for p in range(5)] == [1, 1, 2, 1, 1]
        assert not sel.is_deficient()
        assert sel[1] == (Partition((1,)),)

    def test_descending_lex_within_degree(self):
        ws = WeightSystem.principal(6)
        points = enumerate_fixed_subspaces(6, 2)
        sel = select_schur_basis(points, ws, p_max=2)
        assert sel[2] == (Partition((2,)), Partition((1, 1)))

    def test_hilb_deficiency_reported(self):
        points, ws = hilb_points(2)
        expected = filtration_betti(enumerate_hilb_fixed_points(2)).betti
        sel = select_schur_basis(points, ws, p_max=4, expected_betti=expected)
        assert sel.deficiencies[1] == (1, 2)
        assert sel.deficiencies[2] == (2, 3)
        assert 3 not in sel.deficiencies
        assert sel.achieved(1) == 1

    def test_negative_p_max_rejected(self):
        points, ws = hilb_points(2)
        with pytest.raises(InvalidDegree):
            select_schur_basis(points, ws, p_max=-1)

    def test_no_silent_substitution(self):
        # every selected partition at level p really has size p
        points, ws = hilb_points(2)
        sel = select_schur_basis(points, ws, p_max=4)
        for p, mus in sel.items():
            assert all(mu.size == p for mu in mus)


class TestPoincareOfHilb:
    def test_k1_is_p2(self):
        assert poincare_of_hilb(1).coefficient_list() == [1, 0, 1, 0, 1]

    def test_k3_matches_frozen_polynomial(self):
        assert poincare_of_hilb(3).coefficient_list() == G3_T_COEFFS

    def test_value_at_one_counts_fixed_points(self):
        for k in (1, 2, 3):
            assert poincare_of_hilb(k)(1) == len(enumerate_hilb_fixed_points(k))


class TestRegularityVerdict:
    def test_g3_not_regular(self):
        assert b2_regularity_verdict(IntegerPolynomial(G3_T_COEFFS)) == NOT_REGULAR

    def test_gaussian_binomials_inconclusive(self):
        for n, k in ((4, 2), (6, 2)):
            poly = IntegerPolynomial(gaussian_binomial(n, k))
            assert b2_regularity_verdict(poly) == INCONCLUSIVE

    def test_constant_inconclusive(self):
        assert b2_regularity_verdict(IntegerPolynomial([1])) == INCONCLUSIVE

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            b2_regularity_verdict(IntegerPolynomial([]))

    def test_hilb_poincare_verdicts(self):
        # k=3 has a root off the unit circle; k=1 and k=2 factor over
        # cyclotomics ((1+t^2+t^4) and its square), so the one-directional
        # criterion says nothing there
        assert b2_regularity_verdict(poincare_of_hilb(3)) == NOT_REGULAR
        assert b2_regularity_verdict(poincare_of_hilb(1)) == INCONCLUSIVE
        assert b2_regularity_verdict(poincare_of_hilb(2)) == INCONCLUSIVE

    def test_grassmannian_poincare_inconclusive(self):
        poly = filtration_betti(
            enumerate_fixed_subspaces(4, 2), WeightSystem.principal(4)
        ).poincare_t()
        assert b2_regularity_verdict(poly) == INCONCLUSIVE


class TestSharedSchurRankLoop:
    # filtration_betti, select_schur_basis and localization_rank_check all
    # read the same scan, so their answers must agree with each other
    def cases(self):
        yield enumerate_fixed_subspaces(6, 3), WeightSystem.principal(6), 9
        for k in (2, 3):
            points, ws = hilb_points(k)
            yield points, ws, 2 * k

    def test_betti_equals_selection_sizes(self):
        for points, ws, p_max in self.cases():
            table = filtration_betti(points, ws, p_max=p_max)
            sel = select_schur_basis(points, ws, p_max=p_max)
            assert list(table.betti) == [len(sel[p]) for p in range(p_max + 1)]

    def test_full_scan_total_is_localization_rank(self):
        for points, ws, _p_max in self.cases():
            table = filtration_betti(points, ws)
            assert table.total() == localization_rank_check(points, ws)[0]
