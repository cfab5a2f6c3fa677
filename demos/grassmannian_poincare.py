"""
Poincare polynomials of Grassmannians, three ways
=================================================

The generating function of attracting-cell dimensions, the
regular-sequence product formula, and the Gaussian binomial all
compute the same polynomial.  Exactly, not approximately.
"""

from cohomix import (
    WeightSystem,
    enumerate_fixed_subspaces,
    minus_cell_dimension,
    poincare_from_cells,
    poincare_from_regular_sequence,
    w_degree,
)

n, k = 4, 2
ws = WeightSystem.principal(n)
print("weights on V:", ws.weights)

# one fixed point per coordinate subspace, one cell per fixed point
for pt in enumerate_fixed_subspaces(n, k):
    print("  fixed point %s  cell dimension %d" % (pt, minus_cell_dimension(pt, ws)))

from_cells = poincare_from_cells(ws, k)
print("cell generating function:", from_cells)

# the same polynomial out of pure commutative algebra: one generator of
# degree w_degree(i,j) and one relation of degree w_degree(i,j)+1
degrees = [w_degree(i, j, n, k) for i in range(1, n - k + 1) for j in range(1, k + 1)]
print("generator degrees:", degrees)
from_product = poincare_from_regular_sequence(degrees)
print("regular-sequence product:", from_product)

assert from_cells == from_product

# any distinct weights whatsoever give the same histogram
crooked = WeightSystem((17, -3, 8, 2))
assert poincare_from_cells(crooked, k) == from_cells
print("crooked weights agree:", poincare_from_cells(crooked, k))
