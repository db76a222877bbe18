"""Block designs from finite groups via short difference families.

The library builds balanced incomplete block designs from finite groups
equipped with fixed-point-free automorphism sets, and verifies every
construction by brute force: the family verifier checks the four
short-difference-family conditions, and the design verifier counts the
coverage of every point pair.
"""

from .errors import (
    CheckFailure,
    DesignCheckError,
    GroupAxiomError,
    HomomorphismError,
    HypothesisError,
    InvalidParameterError,
    IrreducibilityError,
    SdfamError,
    SdfCheckError,
    SpecFormatError,
    TheoremViolationError,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    build_cyclic,
    build_direct_product,
    build_elementary_abelian,
    build_from_cayley,
    is_subgroup,
    subgroup_generated,
)
from .fields import (
    FiniteField,
    additive_group,
    build_field,
    primitive_element,
    unit_subgroup_elements,
)
from .endos import (
    ClassificationReport,
    Endomorphism,
    FpfWitness,
    MapCheck,
    center,
    centralizes,
    classification_check,
    closure,
    cyclic_generated,
    field_mult_endo,
    fpf_failure,
    halving_endo,
    identity_endo,
    is_cyclic,
    is_fpf,
    make_endo,
    matrix_endo,
    normalizes,
    one_minus,
    orbit,
    order6_segment_set,
    scalar_endo,
    zero_endo,
)
from .families import (
    Design,
    FamilyEntry,
    LabeledFamily,
    SdfCertificate,
    are_translates,
    development,
    equivalence_classes,
    is_design_automorphism,
    is_doubly_transitive,
    make_block,
    non_automorphism,
    stabilizer,
    verify_bibd,
    verify_sdf,
)
from .constructions import (
    Char2SegmentsReport,
    DesignBuild,
    FamilyBuild,
    TransnormalBuild,
    ZeroDesignBuild,
    char2_segments_report,
    ferrero,
    ferrero_with_zero,
    nearfield_family,
    orbit_family,
    segments,
    segments_order6,
    transnormal,
)

__version__ = "0.1.0"
