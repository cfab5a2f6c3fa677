"""Exact-arithmetic cohomology of Grassmannians and Hilbert schemes of
points in the plane.

Everything is exact, with zero tolerance and no floating point, on one
integer kernel (fractions.Fraction only at one edge, matrix rows;
polynomial coefficients are ints): fixed-point enumeration, attracting-cell
dimensions, presentation of the cohomology ring by vector-field
relations, the Gotzmann embedding of Hilb_k(P^2) into a Grassmannian of
forms, Betti numbers from the fixed-point filtration of a Grassmannian and
the attracting cells of Hilb_k(P^2), equivariant localization, and two
obstructions to regularity of group actions (cyclotomic roots, nilpotent
Jordan type).

`import cohomix` loads none of its modules.  A public name, or a module
such as `cohomix.algebra`, is imported on first access (PEP 562) and then
kept in the package namespace, so a command or script compiles only the
modules it uses.
"""

import sys

__version__ = "1.0.0"

# Every public name and the module that defines it, in the order of __all__.
_OWNER = {
    "BettiTable": "filtration",
    "BoxViolation": "errors",
    "ConditionViolated": "errors",
    "FixedSubspace": "grassmann",
    "GradedPresentation": "grassmann",
    "INCONCLUSIVE": "filtration",
    "IndexOutOfRange": "errors",
    "IntegerPolynomial": "algebra",
    "InternalInvariantViolation": "errors",
    "InvalidDegree": "errors",
    "InvalidDimensions": "errors",
    "MultiPoly": "algebra",
    "NOT_REGULAR": "filtration",
    "NotNilpotent": "errors",
    "NotPolynomial": "errors",
    "Partition": "algebra",
    "PartitionTriple": "gotzmann",
    "RationalMatrix": "algebra",
    "SchurBasisSelection": "filtration",
    "TorusAction": "gotzmann",
    "WeightSystem": "grassmann",
    "b2_regularity_verdict": "filtration",
    "build_torus_action": "gotzmann",
    "degree_k_part": "gotzmann",
    "enumerate_fixed_subspaces": "grassmann",
    "enumerate_hilb_fixed_points": "gotzmann",
    "equivariant_presentation": "grassmann",
    "filtration_betti": "filtration",
    "graded_dimension": "grassmann",
    "graded_dimensions": "grassmann",
    "hilb_betti": "filtration",
    "hilb_minus_cell_dimension": "gotzmann",
    "jordan_regularity_check": "gotzmann",
    "jordan_type": "algebra",
    "localization_rank_check": "equivariant",
    "matrix_rank": "algebra",
    "minus_cell_dimension": "grassmann",
    "monomial_basis": "gotzmann",
    "monomial_label": "gotzmann",
    "nilpotent_matrix_on_Rk": "gotzmann",
    "ordinary_presentation": "grassmann",
    "partitions_in_box": "algebra",
    "poincare_from_cells": "grassmann",
    "poincare_from_regular_sequence": "grassmann",
    "poincare_of_hilb": "filtration",
    "schur_evaluate": "algebra",
    "select_schur_basis": "filtration",
    "specialize_v": "grassmann",
    "strip_cyclotomic_factors": "algebra",
    "tangent_weights": "gotzmann",
    "w_degree": "grassmann",
}

_MODULES = frozenset(_OWNER.values())

__all__ = list(_OWNER)


def __getattr__(name):
    owner = _OWNER.get(name)
    if owner is None and name not in _MODULES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    # __import__, unlike importlib.import_module, takes the path that
    # -X importtime reports, so the start-up checks see this load too
    qualified = "%s.%s" % (__name__, owner or name)
    __import__(qualified)
    module = sys.modules[qualified]
    value = module if owner is None else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
