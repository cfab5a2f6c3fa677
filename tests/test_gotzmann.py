"""Hilbert-scheme fixed points, torus actions, embeddings, nilpotents."""

import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cohomix import gotzmann
from cohomix.algebra import IntegerPolynomial, jordan_type, partitions_in_box
from cohomix.errors import (
    ConditionViolated,
    InternalInvariantViolation,
    InvalidDegree,
)
from cohomix.filtration import hilb_betti, poincare_of_hilb
from cohomix.gotzmann import (
    PartitionTriple,
    TorusAction,
    build_torus_action,
    degree_k_part,
    enumerate_hilb_fixed_points,
    hilb_minus_cell_dimension,
    jordan_regularity_check,
    monomial_basis,
    monomial_label,
    nilpotent_matrix_on_Rk,
    outside_positions,
    tangent_weights,
)

from oracles import jordan_sl2


def reference_tangent_weights(triple, action):
    # the defining formula: each leg counted by scanning the rows below
    # its box
    wa, wb, wc = action.coordinate_weights
    charts = (
        (triple.parts[0], wb - wa, wc - wa),
        (triple.parts[1], wa - wb, wc - wb),
        (triple.parts[2], wa - wc, wb - wc),
    )
    weights = []
    for mu, phi_u, phi_w in charts:
        parts = mu.parts
        for r, width in enumerate(parts):
            for c in range(width):
                arm = width - c - 1
                leg = sum(1 for r2 in range(r + 1, len(parts)) if parts[r2] > c)
                weights.append(-(leg + 1) * phi_u + arm * phi_w)
                weights.append(leg * phi_u - (arm + 1) * phi_w)
    return tuple(weights)


def reference_degree_k_indices(triple, k):
    # the defining membership test: a monomial lies in the ideal when its
    # exponent pairs avoid the three diagrams, taken as sets of boxes
    d0, d1, d2 = (
        {(r, c) for r, w in enumerate(mu) for c in range(w)} for mu in triple.parts
    )
    return tuple(
        pos + 1
        for pos, (a, b, c) in enumerate(monomial_basis(k))
        if (b, c) not in d0 and (a, c) not in d1 and (a, b) not in d2
    )


def reference_padded_scan(triple, k):
    # the full scan of all C(k+2, 2) monomials against the diagrams padded
    # with zero parts to length k + 1: box (r, c) lies in mu exactly when
    # c < mu[r]
    mu0, mu1, mu2 = (mu.parts + (0,) * (k + 1 - len(mu)) for mu in triple.parts)
    return tuple(
        pos
        for pos, (a, b, c) in enumerate(monomial_basis(k), 1)
        if c >= mu0[b] and c >= mu1[a] and b >= mu2[a]
    )


def reference_negative_count(triple, action):
    # every box's two weights from its arm and its leg, the leg read off
    # the conjugate partition; None on a zero weight
    wa, wb, wc = action.coordinate_weights
    charts = (
        (triple.parts[0], wb - wa, wc - wa),
        (triple.parts[1], wa - wb, wc - wb),
        (triple.parts[2], wa - wc, wb - wc),
    )
    negative = 0
    for mu, phi_u, phi_w in charts:
        parts = mu.parts
        conj = [sum(1 for w in parts if w > c) for c in range(parts[0] if parts else 0)]
        for r, width in enumerate(parts):
            for c in range(width):
                arm, leg = width - c - 1, conj[c] - r - 1
                for w in (-(leg + 1) * phi_u + arm * phi_w, leg * phi_u - (arm + 1) * phi_w):
                    if w == 0:
                        return None
                    negative += w < 0
    return negative


def forge_coordinate_weights(monkeypatch, k, weights):
    # fault injection: no TorusAction has a zero tangent weight, so every
    # chart weight is read off the forged coordinate weights instead.
    # Returns a valid action for k, and the forged weights for the
    # reference formulas.
    forged = SimpleNamespace(coordinate_weights=weights)
    real = gotzmann._chart_weights
    monkeypatch.setattr(gotzmann, "_chart_weights", lambda action: real(forged))
    return build_torus_action(k), forged


def count_histogram(triples, action, k):
    # b_p: how many of the triples have reference_negative_count p
    betti = [0] * (2 * k + 1)
    for t in triples:
        betti[reference_negative_count(t, action)] += 1
    return tuple(betti)


def partitions_count(m):
    # Euler's pentagonal-free DP, small m only
    table = [1] + [0] * m
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            table[total] += table[total - part]
    return table[m]


class TestMonomialBasis:
    def test_k1_order(self):
        assert monomial_basis(1) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))

    def test_k2_order(self):
        assert monomial_basis(2) == (
            (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0),
        )

    def test_k2_labels(self):
        assert [monomial_label(m) for m in monomial_basis(2)] == [
            "X_2^2", "X_1*X_2", "X_1^2", "X_0*X_2", "X_0*X_1", "X_0^2",
        ]

    def test_length(self):
        for k in range(1, 6):
            assert len(monomial_basis(k)) == (k + 2) * (k + 1) // 2

    def test_rejects_k0(self):
        # one rule for k at every Hilb_k(P^2) entry point: k < 1 raises
        # InvalidDegree, and a float or Fraction k, even a whole one,
        # raises TypeError
        entry_points = (
            monomial_basis,
            enumerate_hilb_fixed_points,
            lambda k: TorusAction(k, 5, (3, 2, 1)),
            build_torus_action,
            nilpotent_matrix_on_Rk,
            jordan_regularity_check,
        )
        for enter in entry_points:
            for k in (0, -1):
                with pytest.raises(InvalidDegree, match="k must be at least 1"):
                    enter(k)
            for k in (2.0, Fraction(2)):
                with pytest.raises(TypeError):
                    enter(k)
        # degree_k_part reads k before it compares the triple's size, so
        # a k that is no int raises TypeError whatever the triple
        for triple in (";;", "1;1;", "1;1;1"):
            with pytest.raises(InvalidDegree, match="k must be at least 1, got 0"):
                degree_k_part(PartitionTriple.parse(triple), 0)
            for k in (2.0, 2.5, Fraction(5, 2), "3"):
                with pytest.raises(TypeError):
                    degree_k_part(PartitionTriple.parse(triple), k)


class TestTorusAction:
    def test_worked_weights(self):
        action = TorusAction(2, 3, (3, 2, 1))
        assert action.weight_system().weights == (6, 12, 18, 30, 36, 54)
        assert action.coordinate_weights == (27, 9, 3)
        assert TorusAction(3, 5, (5, 3, 1)).coordinate_weights == (3125, 125, 5)

    def test_weight_system_is_linear_in_the_exponents(self):
        # X_0^a X_1^b X_2^c weighs a*w0 + b*w1 + c*w2 with w_i = g^lambda_i,
        # under the default exponents and under others
        for k in range(1, 7):
            actions = (
                build_torus_action(k),
                TorusAction(k, k + 3, (4, 2, 1)),
                TorusAction(k, k + 2, (5, 3, 1)),
            )
            for action in actions:
                w0, w1, w2 = (action.g ** e for e in action.exponents)
                expected = tuple(a * w0 + b * w1 + c * w2 for a, b, c in monomial_basis(k))
                assert action.weight_system().weights == expected

    def test_condition_two_failure(self):
        with pytest.raises(ConditionViolated) as exc:
            TorusAction(2, 2, (3, 2, 1))
        assert "condition (2)" in str(exc.value)

    def test_condition_one_failure(self):
        # (2) holds (16 > 3*4) but (1) fails (16 > 3*16 is false)
        with pytest.raises(ConditionViolated) as exc:
            TorusAction(3, 4, (2, 2, 1))
        assert "condition (1)" in str(exc.value)

    def test_condition_two_checked_before_one(self):
        # k=2, g=2 violates both; the reported failure must be (2)
        with pytest.raises(ConditionViolated) as exc:
            TorusAction(2, 2, (3, 2, 1))
        assert "condition (2)" in str(exc.value)

    def test_defaults_valid_through_k6(self):
        for k in range(1, 7):
            action = build_torus_action(k)
            assert action.g == k + 1
            weights = action.weight_system().weights
            assert len(set(weights)) == len(weights)

    def test_two_conditions_give_distinct_weights(self):
        # conditions (1) and (2) alone make the monomial weights distinct:
        # every action they let through, over a grid of small parameters
        built = 0
        for k, g, *lams in itertools.product(
            range(1, 9), range(2, 12), range(1, 6), range(1, 6), range(1, 6)
        ):
            try:
                action = TorusAction(k, g, lams)
            except ConditionViolated:
                continue
            weights = action.weight_system().weights
            assert len(set(weights)) == len(weights)
            built += 1
        assert built == 543

    def test_one_comparison_per_condition_as_the_loops(self):
        # each condition checked at its extreme case accepts and rejects
        # exactly as the loops over every c and every a + b = k did, and
        # names the same failure
        def loops(k, g, lam0, lam1, lam2):
            if g < 2:
                return "need g > 1"
            if min(lam0, lam1, lam2) < 1:
                return "exponents must be positive"
            wa, wb, wc = g ** lam0, g ** lam1, g ** lam2
            if any(not wb > c * wc for c in range(k + 1)):
                return "condition (2) fails"
            if any(not wa > a * wb + (k - a) * wc for a in range(k + 1)):
                return "condition (1) fails"
            return None

        cases = list(itertools.product(range(1, 12), range(1, 14), *[range(7)] * 3))
        assert len(cases) == 49049
        for k, g, *lams in cases:
            expected = loops(k, g, *lams)
            try:
                TorusAction(k, g, lams)
            except ConditionViolated as exc:
                assert expected and str(exc).startswith(expected), (k, g, lams, str(exc))
            else:
                assert expected is None, (k, g, lams, expected)

    def test_hand_built_action_checked_at_construction(self):
        # a TorusAction built directly is refused where it is built, with
        # the failure named, not later as a broken internal invariant
        with pytest.raises(ConditionViolated, match=r"condition \(2\)"):
            TorusAction(6, 5, (1, 2, 3))
        with pytest.raises(ConditionViolated, match=r"condition \(2\)"):
            TorusAction(2, 2, (1, 1, 1))
        with pytest.raises(InvalidDegree, match="k must be at least 1"):
            TorusAction(0, 2, (3, 2, 1))
        with pytest.raises(TypeError):
            TorusAction(2, 3.0, (3, 2, 1))

    def test_rejects_small_g(self):
        with pytest.raises(ConditionViolated):
            TorusAction(2, 1, (3, 2, 1))
        with pytest.raises(ConditionViolated, match="exponents must be positive"):
            TorusAction(2, 3, (0, 2, 1))


class TestPartitionTriple:
    def test_parse_round_trip(self):
        for text in ("1;1;", ";;3", "2,1;;", "1;1;1"):
            assert str(PartitionTriple.parse(text)) == text

    def test_parse_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            PartitionTriple.parse("1;1")

    def test_size(self):
        assert PartitionTriple.parse("2,1;;1").size == 4

    def test_equality_and_hash_by_partitions(self):
        t = PartitionTriple((2, 1), (), (1,))
        same = PartitionTriple.parse("2,1;;1")
        assert t == same and hash(t) == hash(same)
        assert t != PartitionTriple((1,), (2, 1), ())
        assert t != "2,1;;1"
        assert len({t, same, PartitionTriple((1,), (2, 1), ())}) == 2


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_hilb_fixed_points(1)) == 3
        assert len(enumerate_hilb_fixed_points(2)) == 9
        assert len(enumerate_hilb_fixed_points(3)) == 22

    def test_counts_against_triple_partition_oracle(self):
        # number of triples of partitions with total size k
        for k in range(1, 6):
            expected = sum(
                partitions_count(s0) * partitions_count(s1) * partitions_count(k - s0 - s1)
                for s0 in range(k + 1)
                for s1 in range(k - s0 + 1)
            )
            assert len(enumerate_hilb_fixed_points(k)) == expected

    def test_deterministic_order_k2(self):
        got = [str(t) for t in enumerate_hilb_fixed_points(2)]
        assert got == [
            ";;2", ";;1,1", ";1;1", ";2;", ";1,1;",
            "1;;1", "1;1;", "2;;", "1,1;;",
        ]

    def test_all_distinct(self):
        pts = enumerate_hilb_fixed_points(4)
        assert len(set(pts)) == len(pts)


class TestDegreeKPart:
    def test_worked_example_k2(self):
        image = degree_k_part(PartitionTriple.parse("1;1;"), 2)
        assert image.indices == (1, 2, 4, 5)
        assert image.n == 6

    def test_worked_example_k1(self):
        image = degree_k_part(PartitionTriple.parse("1;;"), 1)
        assert image.indices == (1, 2)

    def test_size_always_nk_minus_k(self):
        for k in range(1, 5):
            n = len(monomial_basis(k))
            for t in enumerate_hilb_fixed_points(k):
                assert degree_k_part(t, k).dim == n - k

    def test_injective(self):
        for k in range(1, 5):
            images = [degree_k_part(t, k).indices for t in enumerate_hilb_fixed_points(k)]
            assert len(set(images)) == len(images)

    def test_size_mismatch_raises(self):
        with pytest.raises(InvalidDegree):
            degree_k_part(PartitionTriple.parse("1;1;"), 3)
        with pytest.raises(InvalidDegree, match="at least 1"):
            degree_k_part(PartitionTriple.parse(";;"), 0)

    def test_matches_box_set_definition(self):
        for k in range(1, 9):
            n = len(monomial_basis(k))
            for t in enumerate_hilb_fixed_points(k):
                image = degree_k_part(t, k)
                assert image.indices == reference_degree_k_indices(t, k)
                assert image.n == n

    def test_outside_positions_complement_the_full_scan(self):
        for k in range(1, 9):
            everything = set(range(1, len(monomial_basis(k)) + 1))
            for t in enumerate_hilb_fixed_points(k):
                expected = tuple(sorted(everything - set(reference_padded_scan(t, k))))
                assert outside_positions(t) == expected

    def test_outside_positions_wrong_count_raises(self, monkeypatch):
        # a chart entry that loses its position leaves k - 1 monomials
        # outside, and one that gains a position leaves k + 1
        real = gotzmann._chart_positions
        monkeypatch.setattr(gotzmann, "_chart_positions", lambda *args: real(*args)[:-1])
        with pytest.raises(InternalInvariantViolation):
            outside_positions(PartitionTriple.parse("1;;"))
        monkeypatch.setattr(
            gotzmann, "_chart_positions", lambda chart, parts, k: (1, 2) if parts else ()
        )
        with pytest.raises(InternalInvariantViolation):
            outside_positions(PartitionTriple.parse("1;;"))

    def test_weights_consistent_with_ambient(self):
        # the action's weights at the image indices are the monomial weights
        # of the monomials in the ideal
        k = 2
        action = build_torus_action(k)
        ws = action.weight_system()
        basis = monomial_basis(k)
        w0, w1, w2 = action.g ** 3, action.g ** 2, action.g
        for t in enumerate_hilb_fixed_points(k):
            image = degree_k_part(t, k)
            got = ws.at(image.indices)
            expected = tuple(
                a * w0 + b * w1 + c * w2 for a, b, c in (basis[i - 1] for i in image.indices)
            )
            assert got == expected


class TestTangentWeights:
    def test_count_and_nonzero(self):
        for k in (1, 2, 3):
            action = build_torus_action(k)
            for t in enumerate_hilb_fixed_points(k):
                weights = tangent_weights(t, action)
                assert len(weights) == 2 * k
                assert all(w != 0 for w in weights)

    def test_k2_cell_dimensions_frozen(self):
        action = build_torus_action(2)
        dims = [
            hilb_minus_cell_dimension(t, action)
            for t in enumerate_hilb_fixed_points(2)
        ]
        assert dims == [4, 3, 3, 2, 2, 2, 1, 1, 0]

    def test_unique_source_and_sink(self):
        # exactly one fully attracting and one fully repelling point
        for k in (1, 2, 3):
            action = build_torus_action(k)
            dims = [
                hilb_minus_cell_dimension(t, action)
                for t in enumerate_hilb_fixed_points(k)
            ]
            assert dims.count(0) == 1
            assert dims.count(2 * k) == 1

    def test_matches_row_scan_formula(self):
        for k in range(1, 8):
            actions = (build_torus_action(k), TorusAction(k, k + 3, (4, 2, 1)))
            for action in actions:
                for t in enumerate_hilb_fixed_points(k):
                    expected = reference_tangent_weights(t, action)
                    assert tangent_weights(t, action) == expected
                    assert hilb_minus_cell_dimension(t, action) == sum(
                        1 for w in expected if w < 0
                    )

    def test_chart_sum_matches_box_weight_count(self):
        for k in range(1, 9):
            actions = (build_torus_action(k), TorusAction(k, k + 3, (4, 2, 1)))
            for action in actions:
                for t in enumerate_hilb_fixed_points(k):
                    expected = reference_negative_count(t, action)
                    assert hilb_minus_cell_dimension(t, action) == expected

    def test_one_pass_over_a_fixed_set_matches_every_triple(self):
        # charts shared between triples are counted once per call, under
        # the call's own action
        for k in range(1, 7):
            triples = enumerate_hilb_fixed_points(k)
            for action in (build_torus_action(k), TorusAction(k, k + 3, (4, 2, 1))):
                expected = count_histogram(triples, action, k)
                table = hilb_betti(k, action)
                assert table.betti == expected
                assert table.fixed_points == len(triples)

    def test_interleaved_actions_and_degrees_answer_independently(self):
        # no call keeps chart data for the next one: alternating two actions
        # of one k, or two values of k, gives each call its own answer
        actions = (build_torus_action(3), TorusAction(3, 5, (5, 3, 1)))
        for t in enumerate_hilb_fixed_points(3):
            for action in actions:
                expected = reference_negative_count(t, action)
                assert hilb_minus_cell_dimension(t, action) == expected
        pairs = zip(enumerate_hilb_fixed_points(3), enumerate_hilb_fixed_points(4))
        for t3, t4 in pairs:
            for t, k in ((t3, 3), (t4, 4)):
                everything = set(range(1, len(monomial_basis(k)) + 1))
                expected = tuple(sorted(everything - set(reference_padded_scan(t, k))))
                assert outside_positions(t) == expected

    def test_gotzmann_image_checked_per_triple(self, monkeypatch):
        # a chart that loses an outside monomial leaves k - 1 of them
        real = gotzmann._chart_positions
        monkeypatch.setattr(gotzmann, "_chart_positions", lambda *args: real(*args)[:-1])
        action = build_torus_action(3)
        for t in enumerate_hilb_fixed_points(3):
            with pytest.raises(InternalInvariantViolation):
                hilb_minus_cell_dimension(t, action)

    def test_chart_tables_count_every_diagram_once(self):
        # H_c,s at q = 1 is the number of partitions of s, and q^c in it
        # counts the diagrams of size s whose triple, alone at chart c, has
        # c negative weights
        for k in range(1, 8):
            for action in (build_torus_action(k), TorusAction(k, k + 3, (4, 2, 1))):
                for chart, table in enumerate(gotzmann.chart_tables(action)):
                    assert len(table) == k + 1
                    for s, h in enumerate(table):
                        assert h(1) == partitions_count(s)
                        expected = [0] * (2 * s + 1)
                        for mu in partitions_in_box(s, s, s):
                            parts = [(), (), ()]
                            parts[chart] = mu
                            expected[reference_negative_count(PartitionTriple(*parts), action)] += 1
                        assert h == IntegerPolynomial(expected)

    def test_chart_zero_weight_signalled(self, monkeypatch):
        triple = PartitionTriple.parse("2;;1")
        action, forged = forge_coordinate_weights(monkeypatch, 3, (4, 2, 2))
        assert reference_negative_count(triple, forged) is None
        with pytest.raises(InternalInvariantViolation):
            hilb_minus_cell_dimension(triple, action)

    def test_zero_weight_raises(self, monkeypatch):
        # equal coordinate weights make every tangent weight zero
        action, _ = forge_coordinate_weights(monkeypatch, 2, (2, 2, 2))
        triple = PartitionTriple.parse("1;1;")
        with pytest.raises(InternalInvariantViolation):
            tangent_weights(triple, action)
        with pytest.raises(InternalInvariantViolation):
            hilb_minus_cell_dimension(triple, action)
        with pytest.raises(InternalInvariantViolation):
            poincare_of_hilb(2, action)

    def test_zero_weight_names_its_first_fixed_point(self, monkeypatch):
        # coordinate weights (4, 2, 2) make phi_w zero at X_1 and X_2, so
        # a box there with none below it has a zero tangent weight; the
        # cell route names the first such fixed point in enumeration order
        action, forged = forge_coordinate_weights(monkeypatch, 3, (4, 2, 2))
        with pytest.raises(InternalInvariantViolation) as caught:
            hilb_betti(3, action)
        named = PartitionTriple.parse(str(caught.value).split(":")[0])
        assert 0 in reference_tangent_weights(named, forged)
        first = next(
            t for t in enumerate_hilb_fixed_points(3)
            if 0 in reference_tangent_weights(t, forged)
        )
        assert named == first

    def test_naming_on_a_healthy_action_names_no_fixed_point(self, monkeypatch):
        # every fixed point's own check passes, so after walking all 22 the
        # search raises, naming the action instead
        real, walked = gotzmann.hilb_minus_cell_dimension, []
        monkeypatch.setattr(
            gotzmann,
            "hilb_minus_cell_dimension",
            lambda t, a: walked.append(t) or real(t, a),
        )
        with pytest.raises(InternalInvariantViolation) as caught:
            gotzmann._name_failing_fixed_point(build_torus_action(3))
        assert walked == enumerate_hilb_fixed_points(3) and len(walked) == 22
        assert str(caught.value) == (
            "a chart table check of TorusAction(k=3, g=4, exponents=(3, 2, 1))"
            " fails at no fixed point"
        )

    def test_zero_weight_after_negative_raises(self, monkeypatch):
        # coordinate weights (4, 2, 2): the box at X_1 has weights (-2, 0),
        # so a count of negatives alone would answer 1
        action, forged = forge_coordinate_weights(monkeypatch, 1, (4, 2, 2))
        triple = PartitionTriple.parse(";1;")
        assert reference_tangent_weights(triple, forged) == (-2, 0)
        with pytest.raises(InternalInvariantViolation):
            hilb_minus_cell_dimension(triple, action)
        with pytest.raises(InternalInvariantViolation):
            tangent_weights(triple, action)

    @settings(deadline=None, max_examples=20)
    @given(st.sampled_from([(3, 2, 1), (4, 2, 1), (5, 3, 1), (4, 3, 2)]))
    def test_histogram_independent_of_exponents(self, lams):
        k = 2
        try:
            action = TorusAction(k, k + 1, lams)
        except ConditionViolated:
            return
        dims = sorted(
            hilb_minus_cell_dimension(t, action)
            for t in enumerate_hilb_fixed_points(k)
        )
        assert dims == [0, 1, 1, 2, 2, 2, 3, 3, 4]


class TestNilpotent:
    REMARK_BASIS = [(0, 0, 2), (0, 1, 1), (1, 0, 1), (0, 2, 0), (1, 1, 0), (2, 0, 0)]

    def test_paper_matrix_bit_exact(self):
        m = nilpotent_matrix_on_Rk(2, self.REMARK_BASIS)
        assert [[int(x) for x in row] for row in m.entries] == [
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 2, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 2],
            [0, 0, 0, 0, 0, 0],
        ]

    def test_matches_sympy_derivation(self):
        # independent construction: apply X_1*d/dX_0 + X_2*d/dX_1 to each
        # basis monomial with sympy and read off coordinates
        k = 3
        x0, x1, x2 = sympy.symbols("x0 x1 x2")
        basis = monomial_basis(k)
        mono = [x0 ** a * x1 ** b * x2 ** c for a, b, c in basis]
        m = nilpotent_matrix_on_Rk(k)
        for j, expr in enumerate(mono):
            image = sympy.expand(x1 * sympy.diff(expr, x0) + x2 * sympy.diff(expr, x1))
            for i, target in enumerate(mono):
                coeff = sympy.Poly(image, x0, x1, x2).coeff_monomial(target)
                assert m.entries[i][j] == coeff

    def test_basis_order_does_not_change_jordan_type(self):
        default = jordan_type(nilpotent_matrix_on_Rk(2))
        remark = jordan_type(nilpotent_matrix_on_Rk(2, self.REMARK_BASIS))
        assert default == remark == (5, 1)

    def test_rejects_non_permutation_basis(self):
        with pytest.raises(InvalidDegree):
            nilpotent_matrix_on_Rk(2, [(0, 0, 2)] * 6)

    def test_jordan_regularity_table(self):
        assert jordan_regularity_check(1) == ((3,), True)
        assert jordan_regularity_check(2) == ((5, 1), False)
        assert jordan_regularity_check(3) == ((7, 3), False)
        assert jordan_regularity_check(4) == ((9, 5, 1), False)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
    def test_jordan_type_is_the_sl2_closed_form(self, k):
        assert jordan_regularity_check(k) == (jordan_sl2(k), k == 1)

    def test_block_sizes_sum_to_dim(self):
        for k in range(1, 5):
            jt, _ = jordan_regularity_check(k)
            assert jt.size == (k + 2) * (k + 1) // 2
