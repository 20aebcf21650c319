"""solgeom: exact tools for extensions of a lattice by a small quotient.

Submodules:
    intmat      exact integer matrices; Smith form for solving and H1,
                Hermite form for spans and kernels
    gl2z        element orders, finite-order classes, box-bounded
                conjugacy and centralizers, two-ended subgroups of GL(2,Z)
    extensions  extension groups of a lattice by a small quotient, word
                normal forms, homology, torsion, orientation bookkeeping
    classifier  the pillowcase invariant: validation, enumeration, its
                group, the extension-data pipeline, homology reports
    catalog     named example groups, catalog specs and description files;
                imports classifier for the pillowcase(p,q,r) groups
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
    NotTwoEndedError,
    TwoEndedType,
    element_order,
    finite_order_class,
    two_ended_type,
)
from .intmat import (
    IntMatrix,
    IntVector,
    kernel_basis,
    lattice_basis,
    primitive_vector,
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
    "NotTwoEndedError",
    "PillowcaseInvariant",
    "QuotientKind",
    "TwoEndedType",
    "VerificationReport",
    "default_catalog",
    "element_order",
    "enumerate_invariants",
    "finite_order_class",
    "from_description",
    "from_extension",
    "group_from_invariant",
    "homology_report",
    "induced_lattice_matrix",
    "invariants_isomorphic",
    "is_block_diagonalizable",
    "kernel_basis",
    "lattice_basis",
    "normalize_invariant",
    "primitive_vector",
    "resolve_group",
    "run_suite",
    "solve_integer",
    "two_ended_type",
    "validate_invariant",
    "verify_homomorphism",
]

__version__ = "0.1.0"
