"""matorder: Loewner-order matrix analysis at desk scale.

Dense complex Hermitian kernel (eigen, inertia, order comparison, spectral
calculus), operator intervals and rank-one order tests, the generalized
upper half-plane with its Mobius automorphism group, local order
isomorphisms driven by a Hermitian base (membership criteria, congruence
orbits, parameter identification), block-corner maximal order isomorphisms
with signature classification, effect-algebra automorphisms, and
fixed-order matrix monotonicity testing via Loewner matrices and Pick
representations. A CLI (`matorder`) exposes classification, map
application, monotonicity checks, seeded verification suites, and instance
generation.
"""

from .config import DEFAULT_TOL, ToleranceConfig, parse_tolerance_overrides
from .errors import (
    DomainViolationError,
    MalformedInputError,
    MatOrderError,
    ModelMismatchError,
    PathSearchError,
)
from .linalg import (
    EigenDecomposition,
    Inertia,
    OrderVerdict,
    as_hermitian,
    as_square,
    frob,
    herm_part,
    hermitian_eigen,
    inertia,
    invertibility_margin,
    is_invertible,
    is_psd,
    jacobi_eigen,
    loewner_compare,
    opnorm,
    spectral_apply,
    spectral_pinv,
    sqrt_psd,
)
from .order import (
    AffineIntervalIso,
    OperatorInterval,
    affine_interval_iso,
    interval_contains,
    projection_dominance_radius,
    rank_one_leq,
)
from .halfplane import (
    HalfPlaneMembership,
    MobiusAutomorphism,
    apply_mobius,
    cayley,
    fit_canonical,
    imag_part,
    in_half_plane,
    inverse_cayley,
    mobius_fix01,
    mobius_fix01_matrix,
    neg_inverse,
    normalize_phase,
)
from .localiso import (
    PathSearchResult,
    apply_local_iso,
    congruence_orbit,
    conjugated_base,
    identify_parameters,
    in_shear_domain,
    in_zero_component,
    interval_below_criterion,
    order_iso_apply,
    path_to_zero,
    segment_in_shear_domain,
    segment_in_zero_component,
    shear_apply,
    translated_base,
)
from .classify import (
    BlockMapSpec,
    EffectAutoSpec,
    EffectEmbeddingSpec,
    FpqSpec,
    SignatureClass,
    are_equivalent,
    as_effect,
    block_map_apply,
    bordered_arrangement,
    bordered_embedding,
    class_count,
    effect_automorphism,
    effect_embedding_map,
    endpoint_continuity,
    enumerate_signatures,
    growth_direction,
    in_block_domain,
    rational_effect_automorphism,
    rational_effect_factors,
    signature_class,
)
from .monotone import (
    LoewnerMatrixReport,
    MonotoneReport,
    PickRepresentation,
    ScalarFunction,
    builtin_function,
    divided_difference,
    is_matrix_monotone,
    loewner_matrix,
    pick_eval,
)

__version__ = "0.1.0"
