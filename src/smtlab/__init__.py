"""Numerical laboratory for truncated second main theorems on discs.

Exact algebra (Groebner bases, Hilbert functions, Chow and Hilbert
weights, distributive constants) feeds numerics (circle quadrature and
zero counting, checked for numerical convergence; interval-certified
truncation constants) to evaluate both sides of explicit
second-main-theorem inequalities for holomorphic curves into projective
varieties, from the plane or a disc.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the submodule that defines it; a submodule runs
# its body only once one of its names is asked for
_EXPORTS = {
    name: module
    for module, names in {
        "analytic": "Divisor wronskian zeros_in_disc",
        "errors": "CertificationError DegenerateInputError "
                  "ExactEvalUnavailableError ValidationError",
        "exact_algebra": "HomogPoly Ideal Monomial monomials_of_degree",
        "functions": "AnalyticFunction Curve RadialGrid",
        "groebner": "Variety",
        "hypersurfaces": "HypersurfaceFamily MovingHypersurface",
        "nevanlinna": "NevanlinnaProfile build_profile characteristic "
                      "check_ru_sibony circle_average counting defect "
                      "fmt_residual growth_index_model growth_index_sampled "
                      "proximity",
        "position_geometry": "check_norm_domination check_remark_bound "
                             "distributive_constant subgeneral_position",
        "scenario": "Scenario load_scenario scenario_from_dict",
        "smt_verifier": "DefectRelationReport SMTConstants SMTReport "
                        "constants_fixed constants_moving constants_plane "
                        "constants_theoremB defect_relation_report "
                        "verify_main_inequality",
        "weights": "check_chow_lower_bound check_evertse_ferretti "
                   "chow_weight_estimate hilbert_weight",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """A public name, read from its submodule (PEP 562)."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module("." + _EXPORTS[name], __name__),
                   name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
