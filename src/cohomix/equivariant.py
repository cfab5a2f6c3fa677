"""Equivariant localization as a rank check.

For a circle action with isolated fixed points, the restriction of an
equivariant class to the fixed set is one polynomial in the generator v
per fixed point, and after inverting v the restriction map becomes an
isomorphism onto the direct sum of Laurent rings.  A homogeneous class of
degree d restricts to s * v^d at each fixed point, with s a number: the
Schur class of mu restricts to s_mu(weights at the point) * v^|mu|.

The rank check below is the computational content of that isomorphism:
full rank of the numeric Schur-value matrix over the fixed set certifies
surjectivity after localization.  On Grassmannian fixed points that rank
is the number of distinct points, by the interpolation argument in the
docstring of localization_rank_check, so no Schur value is computed;
filtration.schur_rank_steps computes the same rank by elimination.
"""

from .grassmann import box_of


def localization_rank_check(points, ws):
    """Rank over the rational-function field in v of the matrix of Schur
    class restrictions s_mu(weights at each point) * v^|mu|, over all
    partitions mu in the points' box (box_of), and whether it is full.

    The rank is the number r of distinct points, and (r, r == len(points))
    is returned.  An empty point list gives (0, True).  Otherwise box_of
    raises TypeError for a point that is not a FixedSubspace and
    BoxViolation for points of different Grassmannians, and then ws.at
    raises IndexOutOfRange for an index past ws.n.

    Proof.  Let the points lie in Gr(d, n), let U be the union of their
    indices and a the weights of ws.  For each distinct point J let

        f_J(x) = prod over i <= d, j in U minus J, of (x_i - a_j).

    f_J is symmetric, of degree at most n - d in each variable, so f_J
    times the Vandermonde a_delta is alternating with every exponent at
    most n - 1: f_J lies in the span of the s_mu with mu in the
    d x (n - d) box.  At J, f_J is a product of differences of distinct
    weights, so nonzero; every other point of the list holds an index of
    U minus J, where f_J vanishes.  So the rows of box Schur values span,
    for each distinct point, a row that is nonzero on its copies alone,
    and equal points give equal columns: the numeric rank is r.  Each
    row is a numeric row scaled by the single power v^|mu|, which does
    not change a rank.
    """
    points = list(points)
    if points:
        box_of(points)
    for pt in points:
        ws.at(pt.indices)
    rank = len(set(points))
    return rank, rank == len(points)
