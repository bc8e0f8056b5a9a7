"""Exact-arithmetic toolkit for quantum linear superspaces.

Builds objects (complementary decompositions of the tensor square of a
dual space), derives the quadratic relations of the matrix-entry algebras
between them, and verifies their structure: the braid relation of the
normalized projector combination, the classical-dimension (PBW) criterion
with an exact dimension oracle and a cubic-overlap confluence check, the
coalgebra axioms, and the 2x2 quantum determinant.
"""

from .bialgebra import (
    ComposableTriple,
    WrongShape,
    coassociativity_check,
    composable_triple,
    comultiplication_check,
    counit_check,
    determinant_2x2,
    determinant_multiplicativity,
)
from .graded import (
    DegreeMismatch,
    GradedSpace,
    even_space,
    koszul_pairing,
    koszul_signs,
    pi_image,
    space_of,
)
from .homs import (
    AlphabetMismatch,
    ComponentCountMismatch,
    HomAlgebra,
    RelationSet,
    derive_relations_general,
    derive_relations_sudbery,
    hom_algebra,
    relation_set,
    spans_equal,
)
from .linalg import (
    InvariantViolation,
    Matrix,
    NotComplementary,
)
from .pbw import (
    Extraction,
    PBWVerdict,
    TooLarge,
    classical_dimension,
    dimension_oracle,
    oracle_dims,
    pbw_criterion,
    pbw_extract_constant,
)
from .rewrite import (
    Alphabet,
    NCPoly,
    RewriteSystem,
    build_rewrite_system,
    confluence_check,
    failed_overlaps,
    format_poly,
    matrix_alphabet,
)
from .rmatrix import RepeatedCoefficient, braid_verdicts
from .spaces import (
    BadParameters,
    QuantumObject,
    dual_object,
    make_classical,
    make_general,
    make_normalized,
    make_sudbery,
    objects_equal,
)

__all__ = [
    "ComposableTriple", "WrongShape", "coassociativity_check", "composable_triple",
    "comultiplication_check", "counit_check", "determinant_2x2",
    "determinant_multiplicativity",
    "DegreeMismatch", "GradedSpace", "even_space", "koszul_pairing", "koszul_signs",
    "pi_image", "space_of",
    "AlphabetMismatch", "ComponentCountMismatch", "HomAlgebra", "RelationSet",
    "derive_relations_general", "derive_relations_sudbery", "hom_algebra",
    "relation_set", "spans_equal",
    "InvariantViolation", "Matrix", "NotComplementary",
    "Extraction", "PBWVerdict", "TooLarge", "classical_dimension",
    "dimension_oracle", "oracle_dims", "pbw_criterion", "pbw_extract_constant",
    "Alphabet", "NCPoly", "RewriteSystem", "build_rewrite_system",
    "confluence_check", "failed_overlaps", "format_poly", "matrix_alphabet",
    "RepeatedCoefficient", "braid_verdicts",
    "BadParameters", "QuantumObject", "dual_object", "make_classical",
    "make_general", "make_normalized", "make_sudbery", "objects_equal",
]
