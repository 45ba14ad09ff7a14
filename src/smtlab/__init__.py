"""Numerical laboratory for truncated second main theorems on discs.

Exact algebra (Groebner bases, Hilbert functions, Chow and Hilbert
weights, distributive constants) feeds numerics (circle quadrature and
zero counting, checked for numerical convergence; interval-certified
truncation constants) to evaluate both sides of explicit
second-main-theorem inequalities for holomorphic curves into projective
varieties, from the plane or a disc.
"""

from .analytic import AnalyticFunction, Curve, Divisor, wronskian, zeros_in_disc
from .errors import (
    CertificationError,
    DegenerateInputError,
    ExactEvalUnavailableError,
    ValidationError,
)
from .exact_algebra import HomogPoly, Monomial, monomials_of_degree
from .groebner import Ideal, Variety
from .hypersurfaces import HypersurfaceFamily, MovingHypersurface
from .nevanlinna import (
    NevanlinnaProfile,
    RadialGrid,
    build_profile,
    characteristic,
    check_ru_sibony,
    circle_average,
    counting,
    defect,
    fmt_residual,
    growth_index_model,
    growth_index_sampled,
    proximity,
)
from .position_geometry import (
    check_norm_domination,
    check_remark_bound,
    distributive_constant,
    subgeneral_position,
)
from .scenario import Scenario, load_scenario, scenario_from_dict
from .smt_verifier import (
    DefectRelationReport,
    SMTConstants,
    SMTReport,
    constants_fixed,
    constants_moving,
    constants_plane,
    constants_theoremB,
    defect_relation_report,
    verify_main_inequality,
)
from .weights import (
    check_chow_lower_bound,
    check_evertse_ferretti,
    chow_weight_estimate,
    hilbert_weight,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticFunction",
    "CertificationError",
    "Curve",
    "DefectRelationReport",
    "DegenerateInputError",
    "Divisor",
    "ExactEvalUnavailableError",
    "HomogPoly",
    "HypersurfaceFamily",
    "Ideal",
    "Monomial",
    "MovingHypersurface",
    "NevanlinnaProfile",
    "RadialGrid",
    "SMTConstants",
    "SMTReport",
    "Scenario",
    "ValidationError",
    "Variety",
    "build_profile",
    "characteristic",
    "check_chow_lower_bound",
    "check_evertse_ferretti",
    "check_norm_domination",
    "check_remark_bound",
    "check_ru_sibony",
    "chow_weight_estimate",
    "circle_average",
    "constants_fixed",
    "constants_moving",
    "constants_plane",
    "constants_theoremB",
    "counting",
    "defect",
    "defect_relation_report",
    "distributive_constant",
    "fmt_residual",
    "growth_index_model",
    "growth_index_sampled",
    "hilbert_weight",
    "load_scenario",
    "monomials_of_degree",
    "proximity",
    "scenario_from_dict",
    "subgeneral_position",
    "verify_main_inequality",
    "wronskian",
    "zeros_in_disc",
]
