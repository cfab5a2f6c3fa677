"""
Equivariant classes as fixed-point data
=======================================

For a circle action with isolated fixed points, a homogeneous equivariant
class of degree d is one number s per fixed point: it restricts there to
s x v^d.  Schur classes restrict to (numeric Schur value) x v^|mu|, and
the evaluation matrix having full rank is the localization isomorphism
made concrete.  On Grassmannian fixed points that rank is the number of
distinct points, a theorem that localization_rank_check returns without
evaluating a Schur class; filtration_betti finds the same total by exact
rank jumps of the evaluation matrix.
"""

from cohomix import (
    FixedSubspace,
    build_torus_action,
    degree_k_part,
    enumerate_fixed_subspaces,
    enumerate_hilb_fixed_points,
    filtration_betti,
    localization_rank_check,
    schur_evaluate,
)

k = 2
action = build_torus_action(k)
ws = action.weight_system()


def sigma_1(pt):
    # sigma_1 has degree 1, so its restriction at pt is this number times v
    return schur_evaluate((1,), ws.at(pt.indices))


# the ambient Grassmannian Gr(4, R_2) has 15 fixed points
ambient = enumerate_fixed_subspaces(6, 2)
pt = FixedSubspace((1, 2, 3, 4), 6)
s = sigma_1(pt)
print("sigma_1 at %s: %s*v" % (pt, s))
assert s == 66

# squaring acts pointwise: the numbers multiply and the degrees add
print("sigma_1^2 at the same point: %s*v^2" % (s * s))

# restriction to the 9 embedded Hilbert-scheme fixed points is literal
# coordinate projection: the same numbers, read at fewer points
hilb = [degree_k_part(t, k) for t in enumerate_hilb_fixed_points(k)]
for p in hilb[:3]:
    print("  restricted value at %s: %s*v" % (p, sigma_1(p)))

# full rank = the restriction map hits everything after inverting v
rank, full = localization_rank_check(ambient, ws)
print("rank on the 15 ambient points: %d (full: %s)" % (rank, full))
rank, full = localization_rank_check(hilb, ws)
print("rank on the 9 embedded points: %d (full: %s)" % (rank, full))
assert full
assert filtration_betti(hilb, ws).total() == rank
