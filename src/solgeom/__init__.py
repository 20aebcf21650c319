"""solgeom: exact tools for extensions of a lattice by a small quotient.

Submodules:
    intmat      exact integer matrices, Smith normal form, lattice operations
    gl2z        finite-order structure and two-ended subgroups of GL(2,Z)
    extensions  extension groups of a lattice by a small quotient, word
                normal forms, homology, torsion, orientation bookkeeping
    catalog     named example groups and the group-description format
    classifier  the pillowcase invariant: validation, enumeration, the
                extension-data pipeline, homology reports
    verify      batch verification suites backing `solgeom verify`
    cli         the solgeom command line tool
"""

from .classifier import (
    InvariantError,
    PillowcaseInvariant,
    enumerate_invariants,
    from_extension,
    group_from_invariant,
    homology_report,
    presentation_from_invariant,
)
from .classifier import isomorphic as invariants_isomorphic
from .classifier import normalize as normalize_invariant
from .classifier import validate as validate_invariant
from .extensions import (
    ExtensionGroup,
    FpPresentation,
    GroupElement,
    QuotientKind,
    from_description,
    induced_lattice_matrix,
    is_block_diagonalizable,
    verify_homomorphism,
)
from .gl2z import (
    FiniteOrderClass,
    MonodromyType,
    NotTwoEndedError,
    TwoEndedType,
    element_order,
    finite_order_class,
    monodromy_image_type,
    two_ended_type,
)
from .intmat import (
    IntMatrix,
    IntVector,
    cokernel_invariants,
    in_image,
    kernel_basis,
    lattice_basis,
    parse_vector,
    primitive_vector,
    saturation,
    solve_integer,
)
from .catalog import default_catalog, resolve_group
from .verify import VerificationReport, run_suite

__all__ = [
    "ExtensionGroup",
    "FiniteOrderClass",
    "FpPresentation",
    "GroupElement",
    "IntMatrix",
    "IntVector",
    "InvariantError",
    "MonodromyType",
    "NotTwoEndedError",
    "PillowcaseInvariant",
    "QuotientKind",
    "TwoEndedType",
    "VerificationReport",
    "cokernel_invariants",
    "default_catalog",
    "element_order",
    "enumerate_invariants",
    "finite_order_class",
    "from_description",
    "from_extension",
    "group_from_invariant",
    "homology_report",
    "in_image",
    "induced_lattice_matrix",
    "invariants_isomorphic",
    "is_block_diagonalizable",
    "kernel_basis",
    "lattice_basis",
    "monodromy_image_type",
    "normalize_invariant",
    "parse_vector",
    "presentation_from_invariant",
    "primitive_vector",
    "resolve_group",
    "run_suite",
    "saturation",
    "solve_integer",
    "two_ended_type",
    "validate_invariant",
    "verify_homomorphism",
]

__version__ = "0.1.0"
