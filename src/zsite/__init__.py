"""Verification engine for linearized finite categories and their covers.

Everything here is exhaustive and explicit: categories are finite tables,
linear combinations carry integer coefficients, and each checker returns a
Report of findings instead of raising on mathematical failure.  Exceptions
are reserved for malformed input and blown enumeration budgets.
"""

from .blur import (
    BlurrySite,
    PoweredBlurry,
    blurry_axiom_probe,
    blurry_topology,
    gamma_check,
    powered_blurry_check,
    powered_blurry_compose,
)
from .fincat import (
    FinCat,
    Functor,
    FunctorReport,
    InputError,
    ObjEquiv,
    ResourceBudgetError,
    block_label,
    check_functor,
    chosen_limit_check,
    discrete_partition,
    induced_functor,
    partition_from_blocks,
    poset_category,
    push_forward_partition,
    quotient_category,
    validate_category,
    validate_partition,
)
from .fingerprint import (
    UNIT,
    GradedDims,
    ZInvariant,
    graded_dims,
    invariant_of,
    positive_fold,
    tensor_dims,
    z_equiv,
)
from .jsonio import Workspace, WorkspaceError, load_workspace
from .modular import (
    ModelLabeledCat,
    ParamFamily,
    QuotientRejected,
    class_types,
    compose_functors,
    enumerate_fes,
    model_axiom_check,
    precompose,
    quotient_model,
    validate_param_family,
)
from .reports import Finding, Report
from .sheaf import (
    Presheaf,
    ZPresheaf,
    additivity_check,
    cartesian_square_check,
    constant_z,
    matching_families,
    representable,
    representable_z,
    sheaf_check,
    squares_vs_sheaf_probe,
    validate_presheaf,
)
from .site import (
    CoveringAssignment,
    LadderMorphism,
    LayeredCategory,
    PointedBase,
    Square,
    compose_ladders,
    distinguished_square_check,
    generate_covering_assignment,
    grothendieck_axiom_check,
    nisnevich_component_lemma_check,
    nisnevich_cover_check,
    powered_cover_check,
    powered_stability_probe,
    validate_covering,
    validate_ladder,
    validate_layered,
    validate_pointed_base,
)
from .zlin import (
    MarginalMismatch,
    RefinementTable,
    SignIncoherent,
    ZMorphism,
    ZObject,
    ZTerm,
    enumerate_correspondences,
    enumerate_hom,
    interval_refinement,
    sign_coherent,
    slice_correspondence,
    z_compose,
    z_identity,
    z_morphism,
    z_object,
    z_scalar_embed,
    z_validate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
