"""colorlie: exact computer algebra for Z2xZ2-graded Lie superalgebras.

The package re-derives bracket tables from matrix differential-operator
presentations, audits graded Jacobi identities, implements the graded
Grassmann calculus, and certifies first-order vector-field realizations
against their tables -- all over exact Gaussian-rational coefficients.
"""

from .grading import D00, D01, D10, D11, DEGREES, Degree, koszul_sign
from .scalars import HALF, I, LAM, ONE, ZERO, GaussianRational, Scalar, as_scalar, rational
from .algebra import (
    AlgebraError,
    BasisMismatch,
    BracketTable,
    ClosureFailure,
    DegreeMixing,
    DegreeViolation,
    DependentBasis,
    Discrepancy,
    DiscrepancyReport,
    LambdaDependence,
    NotEigenvector,
    Realization,
    SingularTransform,
    change_basis,
    check_jacobi,
    derived_generators,
    extract_structure_constants,
    triangular_split,
    verify_realization,
    weights,
)

__version__ = "0.1.0"

__all__ = [
    "Degree", "DEGREES", "D00", "D01", "D10", "D11", "koszul_sign",
    "Scalar", "GaussianRational", "as_scalar", "rational",
    "ZERO", "ONE", "I", "LAM", "HALF",
    "BracketTable", "Realization", "Discrepancy", "DiscrepancyReport",
    "AlgebraError", "ClosureFailure", "DependentBasis", "LambdaDependence",
    "BasisMismatch", "SingularTransform", "DegreeMixing", "DegreeViolation", "NotEigenvector",
    "check_jacobi", "extract_structure_constants",
    "change_basis", "weights", "triangular_split", "verify_realization",
    "derived_generators",
    "__version__",
]
