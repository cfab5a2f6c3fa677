"""Equivariant localization as a rank check.

For a circle action with isolated fixed points, the restriction of an
equivariant class to the fixed set is one polynomial in the generator v
per fixed point, and after inverting v the restriction map becomes an
isomorphism onto the direct sum of Laurent rings.  A homogeneous class of
degree d restricts to s * v^d at each fixed point, with s a number: the
Schur class of mu restricts to s_mu(weights at the point) * v^|mu|.

The rank check below is the computational content of that isomorphism:
full rank of the numeric Schur-value matrix over the fixed set certifies
surjectivity after localization.
"""

from .filtration import schur_rank_steps


def localization_rank_check(points, ws):
    """Rank over the rational-function field in v of the matrix of Schur
    class restrictions s_mu(weights at each point) * v^|mu|, over all
    partitions mu in the points' box (box_of), and whether it is full.

    Each row is a numeric row scaled by a single power of v, so the rank
    equals the numeric rank of the ordinary evaluation matrix, which is the
    sum of the rank jumps of schur_rank_steps; that scan stops at the row
    that fills the rank.  An empty point list gives (0, True).
    """
    points = list(points)
    if not points:
        return 0, True
    rank = sum(len(grew) for grew in schur_rank_steps(points, ws))
    return rank, rank == len(points)
