"""Numerical laboratory for ordered ground states of coupled lattices.

Builds stationary configurations of monotone variational recurrences on
finite lattice windows near the decoupled limit, continues whole ordered
families out of well-label data, and converts them into circle measures.
"""

import importlib

__version__ = "0.1.0"

# layer -> exported names, each once; a name loads its layer on first use
_EXPORTS = {
    "birkhoff": ("OrderVerdict", "check_birkhoff",
                 "check_comparison_principle", "check_minmax_inequality",
                 "meet_join", "translate"),
    "continuation": ("ContinuationResult", "DefectResult", "LaminationResult",
                     "action", "continue_lamination", "defect",
                     "defect_subadditivity_check", "maximum_breaks_order",
                     "quasi_newton_continue", "residual_field",
                     "truncation_consistency"),
    "errors": ("CheckInconclusive", "ContinuationRefused", "ContractionEscape",
               "LaminationBroken", "LamlabError", "ModelInvalid",
               "NoConvergence", "NotBirkhoff", "SchemaError",
               "UnclassifiableSite"),
    "hull": ("GOLDEN_MEAN", "HullFunction", "check_irrational",
             "generic_parameter", "hull_distance_mod_translation",
             "normalize_simplex", "sample_config", "step_hull_from_simplex"),
    "lattice": ("Box", "Configuration", "ball_offsets", "l1_norms"),
    "measure": ("CircleMeasure", "injectivity_pairs", "measure_from_density",
                "measure_from_hull", "psi_epsilon", "psi_epsilon_grid",
                "vague_distance"),
    "model": ("InteractionStencil", "Model", "ModelConstants", "Potential",
              "build_model", "builtin_harmonic_stencil", "builtin_n_well",
              "estimate_constants", "find_criticals", "osc_bound",
              "potential_from_table"),
    "twistmap": ("CantorusResult", "TwistOrbit", "chaotic_momentum_orbit",
                 "extract_cantorus", "standard_map_step"),
    "verification": ("CheckRow", "run_suite"),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    # runs only for names not yet in the namespace (PEP 562)
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
