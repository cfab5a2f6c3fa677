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
"""

from .algebra import (
    IntegerPolynomial,
    MultiPoly,
    Partition,
    RationalMatrix,
    jordan_type,
    matrix_rank,
    partitions_in_box,
    schur_evaluate,
    strip_cyclotomic_factors,
)
from .equivariant import localization_rank_check
from .errors import (
    BoxViolation,
    ConditionViolated,
    IndexOutOfRange,
    InternalInvariantViolation,
    InvalidDegree,
    InvalidDimensions,
    NotNilpotent,
    NotPolynomial,
)
from .filtration import (
    INCONCLUSIVE,
    NOT_REGULAR,
    BettiTable,
    SchurBasisSelection,
    b2_regularity_verdict,
    filtration_betti,
    hilb_betti,
    poincare_of_hilb,
    select_schur_basis,
)
from .gotzmann import (
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
    tangent_weights,
)
from .grassmann import (
    FixedSubspace,
    GradedPresentation,
    WeightSystem,
    enumerate_fixed_subspaces,
    equivariant_presentation,
    graded_dimension,
    graded_dimensions,
    minus_cell_dimension,
    ordinary_presentation,
    poincare_from_cells,
    poincare_from_regular_sequence,
    specialize_v,
    w_degree,
)

__version__ = "1.0.0"

__all__ = [
    "BettiTable",
    "BoxViolation",
    "ConditionViolated",
    "FixedSubspace",
    "GradedPresentation",
    "INCONCLUSIVE",
    "IndexOutOfRange",
    "IntegerPolynomial",
    "InternalInvariantViolation",
    "InvalidDegree",
    "InvalidDimensions",
    "MultiPoly",
    "NOT_REGULAR",
    "NotNilpotent",
    "NotPolynomial",
    "Partition",
    "PartitionTriple",
    "RationalMatrix",
    "SchurBasisSelection",
    "TorusAction",
    "WeightSystem",
    "b2_regularity_verdict",
    "build_torus_action",
    "degree_k_part",
    "enumerate_fixed_subspaces",
    "enumerate_hilb_fixed_points",
    "equivariant_presentation",
    "filtration_betti",
    "graded_dimension",
    "graded_dimensions",
    "hilb_betti",
    "hilb_minus_cell_dimension",
    "jordan_regularity_check",
    "jordan_type",
    "localization_rank_check",
    "matrix_rank",
    "minus_cell_dimension",
    "monomial_basis",
    "monomial_label",
    "nilpotent_matrix_on_Rk",
    "ordinary_presentation",
    "partitions_in_box",
    "poincare_from_cells",
    "poincare_from_regular_sequence",
    "poincare_of_hilb",
    "schur_evaluate",
    "select_schur_basis",
    "specialize_v",
    "strip_cyclotomic_factors",
    "tangent_weights",
    "w_degree",
]
