"""
Betti numbers of Hilbert schemes of points from cell dimensions
===============================================================

Each torus-fixed point of Hilb_k(P^2) has 2k tangent weights; counting
the negative ones gives the dimension of its attracting cell, and the
histogram of cell dimensions is the list of Betti numbers.
"""

from cohomix import (
    build_torus_action,
    enumerate_hilb_fixed_points,
    hilb_betti,
    hilb_minus_cell_dimension,
    poincare_of_hilb,
    tangent_weights,
)

# k = 2 in full detail
action = build_torus_action(2)
print("fixed point   tangent weights (signs)          cell dim")
for triple in enumerate_hilb_fixed_points(2):
    weights = tangent_weights(triple, action)
    signs = "".join("+" if w > 0 else "-" for w in weights)
    d = hilb_minus_cell_dimension(triple, action)
    print("  %-10s  %-30s  %d" % (triple, signs, d))

# their histogram, read off per-chart tables without listing the points
table = hilb_betti(2)
print("k=2 Betti numbers:", list(table.betti))
assert table.betti == (1, 2, 3, 2, 1)

# the same count for each k up to 4; the total always counts the fixed
# points and the sequence is always palindromic
for k in range(1, 5):
    t = hilb_betti(k)
    print("k=%d: betti %s  total %d  palindromic %s"
          % (k, list(t.betti), t.total(), t.is_palindromic()))

# packaged as a polynomial in t with the Betti number b_p on t^(2p)
print("Poincare polynomial of Hilb_3(P^2):",
      poincare_of_hilb(3).str_with_variable("t"))
