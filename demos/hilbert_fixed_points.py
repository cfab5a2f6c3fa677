"""
Torus-fixed points of Hilb_2(P^2) and where Gotzmann sends them
===============================================================

A one-parameter torus with weights g^3, g^2, g on the coordinates fixes
finitely many length-2 subschemes: monomial ideals supported at the
three coordinate points, i.e. triples of partitions of total size 2.
Taking the degree-2 part of each ideal embeds the lot into Gr(4, R_2).
"""

from cohomix import (
    PartitionTriple,
    build_torus_action,
    degree_k_part,
    enumerate_hilb_fixed_points,
    monomial_basis,
    monomial_label,
)

k = 2
action = build_torus_action(k)
print("torus: g = %d, exponents = %s" % (action.g, action.exponents))

basis = monomial_basis(k)
print("monomial basis of R_2:", " ".join(map(monomial_label, basis)))
print("monomial weights:", action.weight_system().weights)

print("\nall %d fixed points and their degree-2 ideals:" % len(enumerate_hilb_fixed_points(k)))
for triple in enumerate_hilb_fixed_points(k):
    image = degree_k_part(triple, k)
    monos = " ".join(monomial_label(basis[i - 1]) for i in image.indices)
    print("  %-8s -> indices %-14s = span{%s}" % (triple, image.indices, monos))

# the worked example: two reduced points [1:0:0] and [0:1:0]
triple = PartitionTriple.parse("1;1;")
image = degree_k_part(triple, k)
print("\ntwo reduced coordinate points:", triple)
print("degree-2 part of their ideal:", list(image.indices))
assert image.indices == (1, 2, 4, 5)

# every image has codimension exactly k, and no two coincide
images = {degree_k_part(t, k).indices for t in enumerate_hilb_fixed_points(k)}
assert len(images) == 9
print("all 9 images distinct, each of dimension %d" % (len(basis) - k))
