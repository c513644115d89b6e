"""Executable coarse geometry on finite truncations.

Ultrametric spaces and towers with exact rational distances, entropy
invariants, admissible tower morphisms, and machine-checked certificates
of coarse equivalence, headlined by an explicit equivalence between
ternary and binary word-space germs.
"""

from .rationals import Rational, as_rational, canon, rat_parse, rat_str
from .limits import CapExceeded, Caps, DEFAULT_CAPS
from .report import ValidationReport, Violation
from .spaces import (
    CLOSED,
    STRICT,
    EntropyProfile,
    Space,
    ball,
    chain_components,
    entropy_profile,
    hyperspace,
    min_net,
    product,
    subspace,
    ultrametrize,
    validate_metric_axioms,
    validate_ultrametric,
    word_id,
    word_space,
)
from .towers import (
    DegreeProfile,
    Tower,
    ball_tower,
    ball_tower_base_map,
    base_space,
    degree_profile,
    entropy_from_degrees,
    level_subtower,
    regular_tower,
    validate_tower,
)
from .morphisms import (
    AdmissibleSequences,
    DistortionModulus,
    MorphismCertificate,
    MultiMap,
    NormalForm,
    SelectionPair,
    balanced_partition,
    build_admissible_morphism,
    check_base_distortion,
    check_entropy_transport,
    check_l2_preconditions,
    check_modulus_composition,
    coarse_normal_form,
    compose,
    distortion_modulus,
    is_large,
    selection_pair,
    tower_embedding,
    verify_asymorphism,
    with_closeness,
)
from .homogenize import (
    HomogeneityWitness,
    PipelineResult,
    PipelineStage,
    StageFailure,
    SynthesisExhausted,
    SynthesisOutput,
    asymptotic_homogeneity,
    classify,
    equivalence_pipeline,
    space_equivalence,
    synthesize_sequences,
    verify_synthesis,
)

__version__ = "0.1.0"

__all__ = [
    "Rational", "as_rational", "canon", "rat_parse", "rat_str",
    "CapExceeded", "Caps", "DEFAULT_CAPS",
    "ValidationReport", "Violation",
    "CLOSED", "STRICT", "EntropyProfile", "Space", "ball",
    "chain_components", "entropy_profile", "hyperspace", "min_net",
    "product", "subspace", "ultrametrize", "validate_metric_axioms",
    "validate_ultrametric", "word_id", "word_space",
    "DegreeProfile", "Tower", "ball_tower", "ball_tower_base_map",
    "base_space", "degree_profile", "entropy_from_degrees",
    "level_subtower", "regular_tower", "validate_tower",
    "AdmissibleSequences", "DistortionModulus", "MorphismCertificate",
    "MultiMap", "NormalForm", "SelectionPair", "balanced_partition",
    "build_admissible_morphism", "check_base_distortion",
    "check_entropy_transport",
    "check_l2_preconditions", "check_modulus_composition",
    "coarse_normal_form", "compose", "distortion_modulus", "is_large",
    "selection_pair", "tower_embedding", "verify_asymorphism",
    "with_closeness",
    "HomogeneityWitness", "PipelineResult", "PipelineStage",
    "StageFailure", "SynthesisExhausted", "SynthesisOutput",
    "asymptotic_homogeneity", "classify", "equivalence_pipeline",
    "space_equivalence", "synthesize_sequences", "verify_synthesis",
]
