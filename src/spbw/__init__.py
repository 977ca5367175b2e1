"""Exact arithmetic and module-property deciders for skew PBW extensions
over finite coefficient rings.

The package has three layers: finite carriers (finring, polymodule), the
rewriting engine for the extension itself (monomial, skewpbw), and the
verification layer (annihilator, bounded, properties) topped by a CLI (cli)
that reads JSON instance files and emits deterministic reports.
"""

__version__ = "0.1.0"

from .errors import (EngineInvariantError, ParseError, PresentationMismatch,
                     SearchSpaceTooLarge, SpbwError, TooLarge, UnknownProperty,
                     ValidationError)
from .finring import (FiniteRing, RingMap, closure_monoid, dual_z2,
                      dual_z2_derivation, idempotents, identity_map,
                      is_central, is_two_sided_invertible, left_invertibles,
                      swap_endomorphism, upper_triangular, validate_endomorphism,
                      validate_ring, validate_sigma_derivation, zero_map, zmod,
                      zmod_product)
from .monomial import MonomialOrder, default_order, enumerate_upto
from .skewpbw import (ConsistencyReport, SkewPbwPresentation, SkewPoly, add,
                      alpha_commute, check_consistency, mul, neg,
                      validate_presentation)
from .polymodule import (ModulePoly, RightModule, Submodule, act, act_scalar,
                         all_submodules, cyclic_submodule,
                         embedding_from_generator, module_poly, quotient_module,
                         regular_module, submodule_closure, validate_embedding,
                         validate_module)
from .annihilator import (RightIdeal, ann_in_r, idempotent_generator,
                          principal_right_ideal)
from .bounded import BoundedContext, context
from .properties import (PropertyVerdict, TheoremReport, idempotent_stability,
                         is_abelian, is_baer, is_delta_compatible,
                         is_linearly_skew_armendariz, is_pp, is_pq_baer,
                         is_quasi_baer, is_reduced, is_sigma_compatible,
                         is_skew_armendariz_bounded,
                         is_skew_quasi_armendariz_bounded, replay,
                         theorem_suite)

__all__ = [
    "__version__",
    "EngineInvariantError", "ParseError", "PresentationMismatch",
    "SearchSpaceTooLarge", "SpbwError", "TooLarge", "UnknownProperty",
    "ValidationError",
    "FiniteRing", "RingMap", "closure_monoid", "dual_z2", "dual_z2_derivation",
    "idempotents", "identity_map", "is_central", "is_two_sided_invertible",
    "left_invertibles", "swap_endomorphism", "upper_triangular",
    "validate_endomorphism", "validate_ring", "validate_sigma_derivation",
    "zero_map", "zmod", "zmod_product",
    "MonomialOrder", "default_order", "enumerate_upto",
    "ConsistencyReport", "SkewPbwPresentation", "SkewPoly", "add",
    "alpha_commute", "check_consistency", "mul", "neg", "validate_presentation",
    "ModulePoly", "RightModule", "Submodule", "act", "act_scalar",
    "all_submodules", "cyclic_submodule", "embedding_from_generator",
    "module_poly", "quotient_module", "regular_module", "submodule_closure",
    "validate_embedding", "validate_module",
    "RightIdeal", "ann_in_r", "idempotent_generator", "principal_right_ideal",
    "BoundedContext", "context",
    "PropertyVerdict", "TheoremReport", "idempotent_stability", "is_abelian",
    "is_baer", "is_delta_compatible", "is_linearly_skew_armendariz", "is_pp",
    "is_pq_baer", "is_quasi_baer", "is_reduced", "is_sigma_compatible",
    "is_skew_armendariz_bounded", "is_skew_quasi_armendariz_bounded",
    "replay", "theorem_suite",
]
