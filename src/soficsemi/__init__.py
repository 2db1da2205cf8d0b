"""Computational toolkit for irreducible sofic shifts and their syntactic
semigroups: Green's relations, the AGGM characterization, Fischer covers,
row-monomial wreath covers, computable idempotents, and entropy."""

from .entropy import (
    EntropyResult,
    entropy_estimate,
    entropy_gap_check,
    spectral_radius,
)
from .errors import SoficSemiError
from .finsemi import (
    FiniteSemigroup,
    GreenStructure,
    PartialTransformation,
    SemigroupMorphism,
    apex,
    close_generators,
    green_structure,
    lift_jclass,
    maximal_subgroup,
    omega_power,
    parse_semigroup,
    format_semigroup,
)
from .shiftspace import (
    BiInfinitePoint,
    Dfa,
    Presentation,
    check_sync_delay,
    conjugate_with_partial_alphabet,
    factor_dfa,
    format_presentation,
    higher_block,
    is_periodic,
    non_minimal_witness,
    parse_presentation,
)
from .syntactic import (
    SyntacticData,
    aggm_backward_check,
    aggm_forward_check,
    fischer_cover,
    image_apex,
    is_aggm,
    syntactic_semigroup,
)
from .wreath import (
    CoverResult,
    EntrySemigroup,
    ReesCoordinates,
    RowMonomialMatrix,
    build_cover,
    rees_coordinates,
    wreath_embed,
    wreath_product_0simple_check,
)
from .zimin import (
    LoopLanguage,
    ZiminTerm,
    evaluate_zimin,
    loop_language,
    power_factorial,
)

__version__ = "0.1.0"
