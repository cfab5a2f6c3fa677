"""Betti numbers through the fixed-point filtration, both routes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cohomix import filtration, gotzmann
from cohomix.algebra import (
    IntegerPolynomial,
    Partition,
    partitions_in_box,
    schur_evaluate,
    strip_cyclotomic_factors,
)
from cohomix.equivariant import localization_rank_check
from cohomix.errors import BoxViolation, InternalInvariantViolation, InvalidDegree
from cohomix.filtration import (
    INCONCLUSIVE,
    NOT_REGULAR,
    BettiTable,
    b2_regularity_verdict,
    filtration_betti,
    hilb_betti,
    poincare_of_hilb,
    schur_rank_steps,
    select_schur_basis,
)
from cohomix.gotzmann import (
    PartitionTriple,
    TorusAction,
    build_torus_action,
    degree_k_part,
    enumerate_hilb_fixed_points,
    monomial_basis,
    outside_positions,
)
from cohomix.grassmann import (
    FixedSubspace,
    WeightSystem,
    enumerate_fixed_subspaces,
)

from oracles import gaussian_binomial, goettsche_betti

G3_T_COEFFS = [1, 0, 2, 0, 5, 0, 6, 0, 5, 0, 2, 0, 1]


def overlap_charts(monkeypatch, a, b):
    # chart b reports chart a's outside positions for the same diagram:
    # every chart's set keeps its |mu| distinct positions, but a triple
    # with boxes at both points has fewer than k monomials outside
    real = gotzmann._chart_positions
    monkeypatch.setattr(
        gotzmann,
        "_chart_positions",
        lambda chart, parts, k: real(a if chart == b else chart, parts, k),
    )


def hilb_points(k):
    triples = enumerate_hilb_fixed_points(k)
    action = build_torus_action(k)
    return [degree_k_part(t, k) for t in triples], action.weight_system()


class TestEvaluationMatrix:
    # the Schur values at fixed points that the rank filtration ranks: the
    # entry of mu at a point is s_mu of the weights there
    def test_empty_partition_row_is_ones(self):
        ws = WeightSystem.principal(4)
        points = enumerate_fixed_subspaces(4, 2)
        row = tuple(schur_evaluate(Partition(()), ws.at(pt.indices)) for pt in points)
        assert row == (1,) * 6

    def test_worked_66(self):
        _points, ws = hilb_points(2)
        point = FixedSubspace((1, 2, 3, 4), 6)
        assert schur_evaluate(Partition((1,)), ws.at(point.indices)) == 66


class TestGrassmannianRoute:
    def test_gr24_betti(self):
        ws = WeightSystem.principal(4)
        table = filtration_betti(enumerate_fixed_subspaces(4, 2), ws)
        assert table.betti == (1, 1, 2, 1, 1)

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

    def test_gr94_betti(self):
        ws = WeightSystem.principal(9)
        table = filtration_betti(enumerate_fixed_subspaces(9, 4), ws)
        assert table.poincare_q().coefficient_list() == gaussian_binomial(9, 4)

    def test_one_schur_evaluation_per_partition_and_point(self, monkeypatch):
        # The rank loop evaluates each row through schur_evaluate itself,
        # one call per (partition, point), with no batching around it.
        calls = []
        real = filtration.schur_evaluate

        def counting(mu, points):
            calls.append((mu, points))
            return real(mu, points)

        monkeypatch.setattr(filtration, "schur_evaluate", counting)
        points = enumerate_fixed_subspaces(4, 2)
        table = filtration_betti(points, WeightSystem.principal(4))
        assert table.betti == (1, 1, 2, 1, 1)
        assert len(calls) == 36 == len(set(calls))

    def test_early_exit_stops_schur_evaluation(self, monkeypatch):
        # Two distinct points reach full rank at size 1, after () and (1,):
        # one call per point and partition, and none for the sizes after.
        # A repeated point does not hold the scan to the length of the list.
        calls = []
        real = filtration.schur_evaluate
        monkeypatch.setattr(
            filtration, "schur_evaluate", lambda mu, points: calls.append(mu) or real(mu, points)
        )
        pts = enumerate_fixed_subspaces(4, 2)
        for points in (pts[:2], pts[:2] + pts[:1]):
            calls.clear()
            table = filtration_betti(points, WeightSystem.principal(4))
            assert table.betti == (1, 1, 0, 0, 0)
            assert [mu.parts for mu in calls] == [()] * len(points) + [(1,)] * len(points)

    @settings(deadline=None, max_examples=10)
    @given(st.integers(1, 7), st.integers(-20, 20))
    def test_affine_weight_invariance(self, alpha, beta):
        base = WeightSystem.principal(4)
        moved = WeightSystem(tuple(alpha * a + beta for a in base.weights))
        points = enumerate_fixed_subspaces(4, 2)
        assert filtration_betti(points, base).betti == filtration_betti(points, moved).betti


class TestHilbRoute:
    def test_betti_k1(self):
        table = hilb_betti(1)
        assert table.betti == (1, 1, 1)

    def test_betti_k2(self):
        table = hilb_betti(2)
        assert table.betti == (1, 2, 3, 2, 1)

    def test_betti_k3(self):
        table = hilb_betti(3)
        assert table.betti == (1, 2, 5, 6, 5, 2, 1)

    def test_against_goettsche_product(self):
        # under another generic action than the default one, which
        # TestFullSetRoute holds against the same product
        for k in range(1, 11):
            table = hilb_betti(k, TorusAction(k, k + 3, (4, 2, 1)))
            assert list(table.betti) == goettsche_betti(k, 2 * k)

    def test_palindromic_and_total(self):
        for k in range(1, 5):
            table = hilb_betti(k)
            assert table.is_palindromic()
            assert table.total() == table.fixed_points == len(enumerate_hilb_fixed_points(k))

    def test_restriction_monotonicity_of_rank_filtration(self):
        # dropping columns (restricting the fixed set) can only shrink the
        # per-degree rank jumps of the evaluation filtration
        for k in (2, 3):
            points, ws = hilb_points(k)
            n = points[0].n
            restricted = filtration_betti(points, ws).betti[: 2 * k + 1]
            ambient = filtration_betti(enumerate_fixed_subspaces(n, k), ws).betti[: 2 * k + 1]
            for bp_sub, bp_amb in zip(restricted, ambient):
                assert bp_sub <= bp_amb

    def test_true_betti_can_exceed_ambient(self):
        # the honest counterpoint: the actual second Betti number of the
        # k=2 Hilbert scheme is 2, larger than the ambient Grassmannian's 1,
        # which is why the pure evaluation filtration cannot compute it
        points, ws = hilb_points(2)
        hilb = hilb_betti(2)
        ambient = filtration_betti(enumerate_fixed_subspaces(6, 2), ws)
        assert hilb.betti[1] == 2
        assert ambient.betti[1] == 1

    def test_rank_route_on_hilb_points_differs(self):
        # the function-theoretic filtration on the embedded fixed set is a
        # genuinely different (smaller) object; frozen for documentation
        points, ws = hilb_points(2)
        table = filtration_betti(points, ws)
        assert table.betti == (1, 1, 2, 2, 2, 1, 0, 0, 0)

    def test_mixed_points_rejected(self):
        points, ws = hilb_points(2)
        with pytest.raises(TypeError, match="the box needs FixedSubspace points"):
            filtration_betti(points + enumerate_hilb_fixed_points(2), ws)
        with pytest.raises(BoxViolation):
            filtration_betti(
                enumerate_fixed_subspaces(4, 2) + enumerate_fixed_subspaces(5, 2),
                WeightSystem.principal(5),
            )

    def test_arguments_of_the_other_route_rejected(self):
        # triples belong to hilb_betti: they meet box_of, with or without ws
        triples = enumerate_hilb_fixed_points(2)
        for ws in (WeightSystem.principal(4), None):
            with pytest.raises(TypeError, match="the box needs FixedSubspace points"):
                filtration_betti(triples, ws)

    def test_action_for_another_degree_rejected(self):
        triples = enumerate_hilb_fixed_points(4)
        for j in (1, 2, 3, 5):
            action = build_torus_action(j)
            with pytest.raises(InvalidDegree):
                hilb_betti(4, action)
            with pytest.raises(InvalidDegree):
                poincare_of_hilb(4, action)
            for t in triples:
                with pytest.raises(InvalidDegree):
                    gotzmann.hilb_minus_cell_dimension(t, action)
                with pytest.raises(InvalidDegree):
                    gotzmann.tangent_weights(t, action)

    def test_every_gotzmann_image_checked(self, monkeypatch):
        # a chart that loses one outside monomial leaves k - 1 of them for
        # some triple, which the cell route must catch
        real = gotzmann._chart_positions
        monkeypatch.setattr(
            gotzmann, "_chart_positions", lambda *args: real(*args)[:-1]
        )
        with pytest.raises(InternalInvariantViolation):
            poincare_of_hilb(3)


class TestFullSetRoute:
    def test_routes_agree(self):
        # the cell route reads one chart table for the whole fixed set, so
        # it is held against the per-triple cell dimensions
        for k in range(1, 11):
            triples = enumerate_hilb_fixed_points(k)
            for g in (k + 1, k + 2, k + 3):
                action = build_torus_action(k, g)
                expected = [0] * (2 * k + 1)
                for t in triples:
                    expected[gotzmann.hilb_minus_cell_dimension(t, action)] += 1
                table = hilb_betti(k, action)
                assert table.betti == tuple(expected), (k, g)
                assert table.fixed_points == len(triples)

    def test_against_goettsche_product(self):
        for k in range(1, 21):
            table = hilb_betti(k)
            assert list(table.betti) == goettsche_betti(k, 2 * k)
            assert table.fixed_points == sum(table.betti)

    @pytest.mark.slow
    def test_against_goettsche_product_k25(self):
        assert list(hilb_betti(25).betti) == goettsche_betti(25, 50)

    def test_walks_each_chart_once_and_builds_no_triple(self, monkeypatch):
        # every (chart, diagram) pair with at most 9 boxes, 3 * 97 = 291 of
        # them, is walked once, and no triple is listed or built
        walked = {"_chart_tangent_weights": [], "_chart_positions": []}
        for name, calls in walked.items():
            real = getattr(gotzmann, name)

            def counting(*args, real=real, calls=calls):
                calls.append(args[:2])
                return real(*args)

            monkeypatch.setattr(gotzmann, name, counting)
        built = []
        real_init = PartitionTriple.__init__

        def building(self, *parts):
            built.append(parts)
            real_init(self, *parts)

        monkeypatch.setattr(PartitionTriple, "__init__", building)

        def listing(k):
            raise AssertionError("the full-set route listed the fixed points")

        monkeypatch.setattr(gotzmann, "enumerate_hilb_fixed_points", listing)
        diagrams = sum(len(partitions_in_box(s, s, s)) for s in range(10))
        assert 3 * diagrams == 291
        for _ in range(2):
            for calls in walked.values():
                calls.clear()
            expected = []
            for b in goettsche_betti(9, 18):
                expected += [b, 0]
            assert poincare_of_hilb(9).coefficient_list() == expected[:-1]
            assert {name: len(calls) for name, calls in walked.items()} == {
                "_chart_tangent_weights": 291,
                "_chart_positions": 291,
            }
            assert len(set(walked["_chart_positions"])) == 291
        assert built == []

    def test_invalid_degree(self):
        for k in (0, -1):
            with pytest.raises(InvalidDegree):
                hilb_betti(k)
            with pytest.raises(InvalidDegree):
                hilb_betti(k, build_torus_action(2))
        for j in (1, 2, 3, 5):
            with pytest.raises(InvalidDegree):
                hilb_betti(4, build_torus_action(j))

    def test_k_read_before_the_action_is_compared(self):
        # k goes through gotzmann's rule before it meets the action's k, so
        # a k that is no int raises TypeError where it enters
        action = build_torus_action(2)
        for enter in (hilb_betti, poincare_of_hilb):
            for k in (2.5, 2.0, Fraction(2), "2"):
                with pytest.raises(TypeError):
                    enter(k, action)
            with pytest.raises(InvalidDegree, match="k must be at least 1, got 0"):
                enter(0, action)

    @pytest.mark.parametrize("a, b", [(0, 1), (0, 2), (1, 2)])
    def test_overlapping_charts_caught(self, monkeypatch, a, b):
        overlap_charts(monkeypatch, a, b)
        for k in range(1, 6):
            for chart in range(3):
                for s in range(k + 1):
                    for mu in partitions_in_box(s, s, s):
                        positions = gotzmann._chart_positions(chart, mu.parts, k)
                        assert len(set(positions)) == s
        for k in (2, 3, 5):
            with pytest.raises(InternalInvariantViolation) as caught:
                poincare_of_hilb(k)
            # the message names a triple with boxes at both charts, whose
            # image really has too few monomials outside
            triple = PartitionTriple.parse(str(caught.value).split(":")[0])
            assert triple.size == k
            assert triple.parts[a].size and triple.parts[b].size
            with pytest.raises(InternalInvariantViolation):
                outside_positions(triple)
        # k = 1 has no triple with boxes at two points
        assert hilb_betti(1).betti == (1, 1, 1)

    def test_overlap_of_small_diagrams_caught(self, monkeypatch):
        # at k = 5 no diagram of at most 5 boxes, in any chart, reaches
        # X_0 X_1^2 X_2^2; putting it outside for (1,) at both X_0 and X_1
        # makes only that pair overlap, and its sizes add up to 2 < k, so
        # the check must compare unions over all smaller sizes
        k, basis = 5, monomial_basis(5)
        stray = basis.index((1, 2, 2)) + 1
        real = gotzmann._chart_positions
        for chart in range(3):
            for s in range(k + 1):
                for mu in partitions_in_box(s, s, s):
                    assert stray not in real(chart, mu.parts, k)

        def stray_positions(chart, parts, k):
            if chart < 2 and parts == (1,):
                return [stray]
            return real(chart, parts, k)

        monkeypatch.setattr(gotzmann, "_chart_positions", stray_positions)
        with pytest.raises(InternalInvariantViolation) as caught:
            poincare_of_hilb(k)
        triple = PartitionTriple.parse(str(caught.value).split(":")[0])
        assert triple.parts[:2] == (Partition((1,)), Partition((1,)))

    def test_dropped_position_names_a_failing_triple(self, monkeypatch):
        real = gotzmann._chart_positions
        monkeypatch.setattr(
            gotzmann, "_chart_positions", lambda *args: real(*args)[:-1]
        )
        for k in (2, 4):
            with pytest.raises(InternalInvariantViolation) as caught:
                hilb_betti(k)
            triple = PartitionTriple.parse(str(caught.value).split(":")[0])
            assert triple.size == k
            with pytest.raises(InternalInvariantViolation):
                outside_positions(triple)

    def test_fault_in_the_last_triples_named(self, monkeypatch):
        # only chart X_0's k-box diagrams lose a position; their triples
        # come last in enumeration order, so the walk that names the
        # failing fixed point passes every other triple first
        real = gotzmann._chart_positions

        def dropping(chart, parts, k):
            positions = real(chart, parts, k)
            return positions[:-1] if chart == 0 and sum(parts) == k else positions

        monkeypatch.setattr(gotzmann, "_chart_positions", dropping)
        triples = enumerate_hilb_fixed_points(4)
        assert [t.parts[0].size for t in triples[-6:]] == [3, 4, 4, 4, 4, 4]
        assert str(triples[-5]) == "4;;"
        with pytest.raises(InternalInvariantViolation) as caught:
            hilb_betti(4)
        assert str(caught.value).split(":")[0] == "4;;"


class TestBettiTable:
    def test_poincare_t_interleaves(self):
        table = BettiTable((1, 2, 1), 4)
        assert table.poincare_t().coeffs == (1, 0, 2, 0, 1)

    def test_json_shape(self):
        doc = BettiTable((1, 1), 2).to_json_dict()
        assert doc == {"betti": [1, 1], "poincare_t": [1, 0, 1], "fixed_points": 2}
        assert list(doc.keys()) == ["betti", "poincare_t", "fixed_points"]


class TestSelectSchurBasis:
    def test_grassmannian_full_selection(self):
        ws = WeightSystem.principal(4)
        points = enumerate_fixed_subspaces(4, 2)
        sel = select_schur_basis(points, ws, p_max=4)
        assert [len(sel[p]) for p in range(5)] == [1, 1, 2, 1, 1]
        assert sel.deficiencies == {}
        assert sel[1] == (Partition((1,)),)

    def test_descending_lex_within_degree(self):
        ws = WeightSystem.principal(6)
        points = enumerate_fixed_subspaces(6, 2)
        sel = select_schur_basis(points, ws, p_max=2)
        assert sel[2] == (Partition((2,)), Partition((1, 1)))

    def test_hilb_deficiency_reported(self):
        points, ws = hilb_points(2)
        expected = hilb_betti(2).betti
        sel = select_schur_basis(points, ws, p_max=4, expected_betti=expected)
        assert sel.deficiencies[1] == (1, 2)
        assert sel.deficiencies[2] == (2, 3)
        assert 3 not in sel.deficiencies
        assert len(sel[1]) == 1

    def test_negative_p_max_rejected(self):
        points, ws = hilb_points(2)
        with pytest.raises(InvalidDegree):
            select_schur_basis(points, ws, p_max=-1)
        with pytest.raises(TypeError):
            select_schur_basis(enumerate_hilb_fixed_points(2), ws)

    def test_no_points_is_a_box_violation(self):
        with pytest.raises(BoxViolation, match="need at least one fixed point"):
            select_schur_basis([], WeightSystem.principal(4))

    def test_length_and_sizes_in_increasing_order(self):
        ws = WeightSystem.principal(4)
        sel = select_schur_basis(enumerate_fixed_subspaces(4, 2), ws, p_max=3)
        assert len(sel) == 4
        assert list(sel) == [0, 1, 2, 3]
        assert isinstance(sel, dict)
        assert all(isinstance(mus, tuple) for mus in sel.values())

    def test_expected_betti_compares_only_the_sizes_both_reach(self):
        # Hilb_3: the levels have 1, 1, 2, 3, 4, 5, 5 rows against
        # b = 1, 2, 5, 6, 5, 2, 1
        points, ws = hilb_points(3)
        betti = hilb_betti(3).betti
        full = select_schur_basis(points, ws, p_max=6, expected_betti=betti)
        assert full.deficiencies == {1: (1, 2), 2: (2, 5), 3: (3, 6), 4: (4, 5)}
        # in increasing p, the order `hilb schur-basis` prints them in
        assert list(full.deficiencies) == [1, 2, 3, 4]
        shorter = select_schur_basis(points, ws, p_max=6, expected_betti=betti[:3])
        assert shorter.deficiencies == {1: (1, 2), 2: (2, 5)}
        longer = select_schur_basis(points, ws, p_max=6, expected_betti=betti + (9, 9))
        assert longer.deficiencies == full.deficiencies
        for none in (None, ()):
            assert select_schur_basis(points, ws, p_max=6, expected_betti=none).deficiencies == {}

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

    def test_against_goettsche_product(self):
        for k in range(1, 21):
            expected = []
            for b in goettsche_betti(k, 2 * k):
                expected += [b, 0]
            assert poincare_of_hilb(k).coefficient_list() == expected[:-1]


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

    def test_sparse_high_degree_not_regular(self):
        # 1 + 2q + q^300 = (1 + q) * residual, the residual with a root off
        # the unit circle; phi(d) <= 300 admits d far past 300, and only
        # Phi_2 divides
        p = IntegerPolynomial([1, 2] + [0] * 298 + [1])
        assert b2_regularity_verdict(p) == NOT_REGULAR
        ok, residual = strip_cyclotomic_factors(p)
        assert not ok and len(residual.coeffs) - 1 == 299
        assert residual * IntegerPolynomial([1, 1]) == p

    def test_grassmannian_poincare_inconclusive(self):
        poly = filtration_betti(
            enumerate_fixed_subspaces(4, 2), WeightSystem.principal(4)
        ).poincare_t()
        assert b2_regularity_verdict(poly) == INCONCLUSIVE


class TestSharedSchurRankLoop:
    # filtration_betti and select_schur_basis read the same scan, so their
    # answers must agree with each other, and its total with the distinct
    # point count that localization_rank_check returns without a scan
    def cases(self):
        yield enumerate_fixed_subspaces(6, 3), WeightSystem.principal(6), 9
        for k in (2, 3):
            points, ws = hilb_points(k)
            yield points, ws, 2 * k

    def test_betti_equals_selection_sizes(self):
        for points, ws, p_max in self.cases():
            table = filtration_betti(points, ws)
            sel = select_schur_basis(points, ws, p_max=p_max)
            assert list(table.betti[: p_max + 1]) == [len(sel[p]) for p in range(p_max + 1)]

    def test_full_scan_total_is_localization_rank(self):
        for points, ws, _p_max in self.cases():
            table = filtration_betti(points, ws)
            assert table.total() == localization_rank_check(points, ws)[0]

    def test_empty_point_list(self):
        ws = WeightSystem.principal(4)
        with pytest.raises(BoxViolation, match="need at least one fixed point"):
            list(schur_rank_steps([], ws))
        with pytest.raises(BoxViolation, match="need at least one fixed point"):
            filtration_betti([], ws)
        assert localization_rank_check([], ws) == (0, True)
