"""
The cohomology ring of Gr(2, 4) by generators and relations
===========================================================

One generator w_{i,j} per cell, one relation per generator, read off
from a vector field: the Riccati equation of N + (v/2)H on the chart
[I; B] whose entries are the w_{i,j}, with N the principal nilpotent and
H = diag(3, 1, -1, -3).  The degreewise dimensions of the quotient
reproduce the Gaussian binomial coefficients, and the equivariant lift
(-2 times the field, in integers) collapses back onto the ordinary ring
at v = 0.
"""

from cohomix import (
    equivariant_presentation,
    graded_dimensions,
    ordinary_presentation,
    specialize_v,
)

pres = ordinary_presentation(4, 2)
print("variables:", " ".join(pres.variables))
print("degrees:  ", " ".join(str(d) for d in pres.degrees))
for var, rel in zip(pres.variables, pres.relations):
    print("  relation at %s: %s" % (var, rel.canonical_str()))

print("homogeneous:", pres.is_homogeneous())
print("relation degrees:", pres.relation_degrees())

# Hilbert function of the quotient, one exact rank computation per degree
dims = graded_dimensions(pres, 5)
print("graded dimensions 0..5:", dims)
assert dims == [1, 1, 2, 1, 1, 0]

# the equivariant deformation: same generators plus a degree-one class v
eq = equivariant_presentation(4, 2)
print("equivariant variables:", " ".join(eq.variables))
for var, rel in zip(eq.variables, eq.relations):
    print("  relation at %s: %s" % (var, rel.canonical_str()))

# setting v = 0 gives back -2 times each ordinary relation, term by term
collapsed = specialize_v(eq, 0)
for got, base in zip(collapsed.relations, pres.relations):
    assert got == base.scale(-2)
print("v = 0 collapse checked: every relation is -2 x ordinary")
