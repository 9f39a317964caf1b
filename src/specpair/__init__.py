"""Lattice spectral pairs and the self-similar measures they induce.

The package builds the datum behind a lattice spectral pair (three nested
lattices, a digit section, matching frequency digits), validates it
exactly, constructs the induced self-similar measure, evaluates its
transform by truncated products and by quadrature, enumerates the
orthogonal frequency set with its completeness diagnostics, and verifies
the isometry relations the datum is supposed to satisfy.
"""

from .boxes import Box, BoxUnion
from .errors import (
    BudgetExceeded,
    CollisionDetected,
    DepthTooLarge,
    IdenticalPoints,
    MemberOfSpectrum,
    NonFinitePoint,
    NotASublattice,
    NotEmbeddable,
    NotExpansive,
    ParseError,
    SpectralPairError,
    UnknownDigit,
    ValidationFailed,
)
from .lattice import (
    CheckResult,
    Lattice,
    SimpleFactor,
    ValidationReport,
    coset_representatives,
    dual_lattice,
    frequency_map,
    inclusion_matrix,
    validate_simple_factor,
)
from .measure import (
    DiscreteMeasure,
    NoWitness,
    build_ifs,
    integrate_exponential,
    integrate_exponentials,
    refine_measure,
    separation_witness,
    separation_witnesses,
)
from .operators import (
    ConsistencyReport,
    ExponentialVector,
    RelationReport,
    apply_adjoint,
    apply_generator,
    apply_word,
    apply_word_adjoint,
    classify_measure,
    relation_residuals,
    state_eval,
    word_frequency,
)
from .pair import (
    TilingReport,
    TruncatedSpectrum,
    indicator_transform,
    orthogonality_matrix,
    reduce_mod_lattice,
    tiling_check,
    translation_membership,
    truncate_spectrum,
)
from .specfile import (
    LoadedSpec,
    builtin_names,
    document_from,
    dumps_spec,
    parse_document,
    parse_spec,
)
from .spectrum import (
    AllOrthogonal,
    CompletenessRow,
    SpectrumEnumeration,
    Witness,
    completeness_table,
    enumerate_spectrum,
    maximality_probe,
)
from .tables import emit_table, render_table
from .transform import (
    TransformSettings,
    functional_equation_residual,
    functional_equation_residuals,
    mask,
    mu_hat_value,
    mu_hat_values,
)

__version__ = "0.1.0"

__all__ = [
    "AllOrthogonal", "Box",
    "BoxUnion", "BudgetExceeded", "CheckResult", "CollisionDetected",
    "CompletenessRow", "ConsistencyReport", "DepthTooLarge",
    "DiscreteMeasure", "ExponentialVector", "IdenticalPoints", "Lattice",
    "LoadedSpec", "MemberOfSpectrum", "NoWitness", "NonFinitePoint",
    "NotASublattice", "NotEmbeddable", "NotExpansive", "ParseError",
    "RelationReport", "SimpleFactor", "SpectralPairError",
    "SpectrumEnumeration", "TilingReport", "TransformSettings",
    "TruncatedSpectrum", "UnknownDigit", "ValidationFailed",
    "ValidationReport", "Witness", "apply_adjoint",
    "apply_generator", "apply_word", "apply_word_adjoint",
    "build_ifs", "builtin_names", "classify_measure",
    "completeness_table",
    "coset_representatives", "document_from", "dual_lattice", "dumps_spec",
    "emit_table", "enumerate_spectrum", "frequency_map",
    "functional_equation_residual", "functional_equation_residuals",
    "inclusion_matrix",
    "indicator_transform", "integrate_exponential", "integrate_exponentials",
    "mask",
    "maximality_probe", "mu_hat_value", "mu_hat_values", "orthogonality_matrix",
    "parse_document", "parse_spec", "reduce_mod_lattice", "refine_measure",
    "relation_residuals", "render_table",
    "separation_witness", "separation_witnesses", "state_eval", "tiling_check",
    "translation_membership", "truncate_spectrum", "validate_simple_factor",
    "word_frequency",
]
