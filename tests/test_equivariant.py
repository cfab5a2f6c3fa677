"""The localization rank check: the rank of the Schur-class restrictions
to a fixed set, and whether it fills the set."""

import random
from itertools import accumulate

import pytest

from cohomix import filtration
from cohomix.algebra import RowSpace, matrix_rank, partitions_in_box, schur_evaluate
from cohomix.equivariant import localization_rank_check
from cohomix.errors import BoxViolation, IndexOutOfRange
from cohomix.filtration import schur_rank_steps
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


class TestPartitionTriplesRejected:
    # the box reads the Grassmannian of each point, which a partition
    # triple does not have: a TypeError, not an AttributeError
    def test_localization_rank_check(self):
        ws = build_torus_action(2).weight_system()
        with pytest.raises(TypeError, match="FixedSubspace"):
            localization_rank_check(enumerate_hilb_fixed_points(2), ws)

    def test_mixed_points(self):
        points, ws = hilb_points(2)
        with pytest.raises(TypeError, match="FixedSubspace"):
            localization_rank_check(points + enumerate_hilb_fixed_points(2)[:1], ws)


def schur_rows_by_size(points, ws):
    # the rows of each size p = 0 .. k(n - k), one row per partition of p
    # in the k x (n - k) box and one column per point, with no early exit
    k, n = points[0].dim, points[0].n
    return [
        [
            [schur_evaluate(mu, ws.at(pt.indices)) for pt in points]
            for mu in partitions_in_box(k, n - k, size)
        ]
        for size in range(k * (n - k) + 1)
    ]


def random_subsets(n, k, count, seed):
    # fixed pseudo-random point lists of Gr(k, n), every third drawn with
    # replacement so that some lists repeat a point
    rng = random.Random(seed)
    fixed = enumerate_fixed_subspaces(n, k)
    for i in range(count):
        size = rng.randint(1, len(fixed) + 2)
        if i % 3 == 2:
            yield [rng.choice(fixed) for _ in range(size)]
        else:
            yield rng.sample(fixed, min(size, len(fixed)))


def scan_rank(points, ws):
    # the rank found by elimination, which localization_rank_check skips
    return sum(len(grew) for grew in schur_rank_steps(points, ws))


class TestLocalizationRankCheck:
    def test_full_on_hilb_fixed_sets(self):
        for k in (1, 2, 3, 4, 5):
            points, ws = hilb_points(k)
            assert scan_rank(points, ws) == len(points)
            assert localization_rank_check(points, ws) == (len(points), True)

    def test_full_on_grassmannians(self):
        for n, k in ((4, 2), (6, 2)):
            ws = WeightSystem.principal(n)
            points = enumerate_fixed_subspaces(n, k)
            assert scan_rank(points, ws) == len(points)
            assert localization_rank_check(points, ws) == (len(points), True)

    def test_large_hilb_fixed_sets_need_no_schur_row(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("no Schur row is needed")

        monkeypatch.setattr(filtration, "schur_evaluate", refuse)
        monkeypatch.setattr(RowSpace, "add", refuse)
        for k, count in ((6, 221), (7, 429)):
            points, ws = hilb_points(k)
            assert localization_rank_check(points, ws) == (count, True)

    def test_index_past_the_weights(self):
        ws = WeightSystem.principal(4)
        points = [FixedSubspace((1, 2), 5), FixedSubspace((1, 5), 5)]
        with pytest.raises(IndexOutOfRange, match="index 5 outside 1..4"):
            localization_rank_check(points, ws)

    def test_mixed_grassmannians(self):
        # the box is checked before any weight is read
        ws = WeightSystem.principal(4)
        for points in (
            [FixedSubspace((1, 2), 4), FixedSubspace((1,), 4)],
            [FixedSubspace((1, 2), 4), FixedSubspace((1, 5), 5)],
        ):
            with pytest.raises(BoxViolation, match="different Grassmannians"):
                localization_rank_check(points, ws)

    def test_single_point(self):
        ws = WeightSystem.principal(4)
        rank, full = localization_rank_check([FixedSubspace((1, 2), 4)], ws)
        assert (rank, full) == (1, True)

    def test_duplicated_point_cannot_reach_full_rank(self):
        ws = WeightSystem.principal(4)
        pt = FixedSubspace((1, 2), 4)
        rank, full = localization_rank_check([pt, pt], ws)
        assert (rank, full) == (1, False)

    @pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (6, 2), (6, 3), (7, 3)])
    def test_early_exit_scan_matches_full_matrix_rank(self, n, k):
        # the scan stops at the row that fills the rank; the rank of the
        # whole Schur-value matrix, taken without stopping, must agree, and
        # so must the rank of its rows of size at most p, for every p.
        # That rank is the number of distinct points, under the principal
        # weights of Gr(n - k, n) and under random distinct weights in
        # [-20, 20], some more than n of them, on every Gr(n - j, n)
        rng = random.Random(1000 * n + k)
        cases = [(WeightSystem.principal(n), k, 8)]
        for j in range(n + 1):
            weights = rng.sample(range(-20, 21), n + rng.randint(0, 2))
            cases.append((WeightSystem(weights), j, 3))
        repeated = 0
        for ws, j, count in cases:
            for points in random_subsets(n, j, count, seed=rng.random()):
                by_size = schur_rows_by_size(points, ws)
                below = [matrix_rank(sum(by_size[: p + 1], [])) for p in range(len(by_size))]
                jumps = [len(grew) for grew in schur_rank_steps(points, ws)]
                assert list(accumulate(jumps)) == below
                r = below[-1]
                assert r == len(set(points))
                assert localization_rank_check(points, ws) == (r, r == len(points))
                repeated += len(set(points)) < len(points)
        assert repeated
        assert any(ws.n > n for ws, _, _ in cases)
