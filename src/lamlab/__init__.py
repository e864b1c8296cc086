"""Numerical laboratory for ordered ground states of coupled lattices.

Builds stationary configurations of monotone variational recurrences on
finite lattice windows near the decoupled limit, continues whole ordered
families out of well-label data, and converts them into circle measures.
"""

from .birkhoff import (OrderVerdict, check_birkhoff, check_comparison_principle,
                       check_minmax_inequality, meet_join, translate)
from .continuation import (ContinuationResult, DefectResult, LaminationResult,
                           action, continue_lamination, defect,
                           defect_subadditivity_check, maximum_breaks_order,
                           quasi_newton_continue, residual_field,
                           truncation_consistency)
from .errors import (CheckInconclusive, ContinuationRefused, ContractionEscape,
                     LaminationBroken, LamlabError, ModelInvalid, NoConvergence,
                     NotBirkhoff, SchemaError, UnclassifiableSite)
from .hull import (GOLDEN_MEAN, HullFunction, check_irrational,
                   generic_parameter, hull_distance_mod_translation,
                   normalize_simplex, sample_config, step_hull_from_simplex)
from .lattice import Box, Configuration, ball_offsets, l1_norms
from .measure import (CircleMeasure, injectivity_pairs, measure_from_density,
                      measure_from_hull, psi_epsilon, psi_epsilon_grid,
                      vague_distance)
from .model import (InteractionStencil, Model, ModelConstants,
                    Potential, build_model, builtin_harmonic_stencil,
                    builtin_n_well, estimate_constants, find_criticals,
                    osc_bound, potential_from_table)
from .twistmap import (CantorusResult, TwistOrbit, chaotic_momentum_orbit,
                       extract_cantorus, standard_map_step)
from .verification import CheckRow, run_suite

__version__ = "0.1.0"

__all__ = [
    "Box", "CantorusResult", "CheckInconclusive", "CheckRow", "CircleMeasure",
    "Configuration", "ContinuationRefused", "ContinuationResult",
    "ContractionEscape", "DefectResult", "GOLDEN_MEAN", "HullFunction",
    "InteractionStencil", "LaminationBroken", "LaminationResult",
    "LamlabError", "Model", "ModelConstants", "ModelInvalid", "NoConvergence",
    "NotBirkhoff", "OrderVerdict", "Potential", "SchemaError", "TwistOrbit",
    "UnclassifiableSite", "action", "ball_offsets", "build_model",
    "builtin_harmonic_stencil", "builtin_n_well", "check_birkhoff",
    "check_comparison_principle", "check_irrational",
    "check_minmax_inequality", "chaotic_momentum_orbit",
    "continue_lamination", "defect", "defect_subadditivity_check",
    "estimate_constants", "extract_cantorus",
    "find_criticals", "generic_parameter", "hull_distance_mod_translation",
    "injectivity_pairs", "l1_norms", "maximum_breaks_order",
    "measure_from_density", "measure_from_hull", "meet_join",
    "normalize_simplex", "osc_bound",
    "potential_from_table", "psi_epsilon", "psi_epsilon_grid",
    "quasi_newton_continue",
    "residual_field", "run_suite", "sample_config", "standard_map_step",
    "step_hull_from_simplex", "translate", "truncation_consistency",
    "vague_distance",
]
