"""Explicit truncation constants and scenario-level inequality checks.

Constants come in four flavours: the moving-target and fixed-target pairs
of the main disc theorem, the older factorial-growth bound they improve
on, and the plane case (no correction term).  Every ceiling is exact
rational arithmetic; every floor of a transcendental expression is
certified by adaptive-precision interval arithmetic.

Both scenario reports first check the curve's hypotheses through
:meth:`~smtlab.scenario.Scenario.check_curve`: no target contains it, it
lies on the variety V, and it is nondegenerate over V up to degree 2,
exactly for every curve kind.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ._lazy import mpmath
from .analytic import Divisor
from .errors import (
    NAN_REPORT,
    CertificationError,
    DegenerateInputError,
    ValidationError,
)
from .nevanlinna import (
    characteristic,  # noqa: F401  (perfbench traces it under this name too)
    counting,
    growth_index_model,
    growth_index_sampled,
    _top_decile_defect,
)
from .scenario import Scenario

_MAX_EXACT_BITS = 10 ** 6
_IV_START_DPS = 30
_IV_RETRIES = 6


# -- certified arithmetic helpers -------------------------------------------


def _ceil_fraction(x: Fraction) -> int:
    up = -((-x.numerator) // x.denominator)
    if up != math.ceil(x):
        raise CertificationError(f"ceiling disagreement for {x}")
    return up


def _iv_fraction(x: Fraction):
    return mpmath.iv.mpf(x.numerator) / mpmath.iv.mpf(x.denominator)


def _resolve_interval(builder, resolver, what: str):
    """Run builder at increasing precision until resolver accepts."""
    dps = _IV_START_DPS
    last = None
    for _ in range(_IV_RETRIES):
        saved = mpmath.iv.dps
        mpmath.iv.dps = dps
        try:
            x = builder()
            result = resolver(x)
        finally:
            mpmath.iv.dps = saved
        if result is not None:
            return result
        last = x
        dps *= 4
    raise CertificationError(
        f"interval precision cap reached for {what}; "
        f"ambiguous bracket {mpmath.nstr(last, 20)}")


def certified_floor(builder, what: str) -> int:
    def resolver(x):
        lo = mpmath.floor(x.a)
        hi = mpmath.floor(x.b)
        return int(lo) if lo == hi else None
    return _resolve_interval(builder, resolver, what)


def certified_log10(builder, what: str, width: float = 1e-6) -> float:
    def resolver(x):
        if mpmath.mpf(x.delta) <= width:
            return float(mpmath.mpf(x.mid))
        return None
    return _resolve_interval(builder, resolver, what)


# -- constants ----------------------------------------------------------------


@dataclass(frozen=True)
class SMTConstants:
    """Truncation data for one theorem variant, inputs echoed.

    L is materialized only when its bit-length stays under a million;
    log10_L always carries the magnitude with certified error <= 1e-6.
    """

    variant: str
    u: int
    L: Optional[int]
    log10_L: float
    n: int
    deg_V: int
    d: int
    q: int
    delta_V: Fraction
    epsilon: Fraction
    note: str = ""

    def __post_init__(self):
        if self.u < 1:
            raise ValidationError("u must be at least 1")
        if self.L is not None:
            if self.L < 1:
                raise ValidationError(
                    f"{self.variant}: epsilon = {self.epsilon} leaves the "
                    f"truncation level L = {self.L} below 1")
            direct = _log10(self.L)
            if abs(direct - self.log10_L) > 1e-6:
                raise CertificationError(
                    f"log10_L = {self.log10_L} inconsistent with L "
                    f"(direct {direct})")
        if self.variant in ("MovingA", "Plane"):
            again = _u_ceiling(self.n, self.deg_V, self.d, self.delta_V,
                               self.epsilon, doubled=True)
            if again != self.u:
                raise CertificationError(
                    f"u = {self.u} fails exact recomputation ({again})")


def _log10(L: int) -> float:
    """log10 of an exact truncation level."""
    with mpmath.workdps(30):
        return float(mpmath.log10(mpmath.mpf(L)))


def _check_inputs(n: int, degV: int, d: int, q: int,
                  delta: Fraction, eps: Fraction) -> Tuple[Fraction, Fraction]:
    if min(n, degV, d, q) < 1:
        raise ValidationError("integer inputs must all be >= 1")
    delta = Fraction(delta)
    eps = Fraction(eps)
    if delta <= 0:
        raise ValidationError("distributive constant must be positive")
    if eps <= 0:
        raise ValidationError("epsilon must be positive")
    return delta, eps


def _u_ceiling(n: int, degV: int, d: int, delta: Fraction, eps: Fraction,
               doubled: bool) -> int:
    factor = 2 if doubled else 1
    arg = (factor * delta * (2 * n + 1) * (n + 1) * d ** n * degV
           * (delta * (n + 1) + eps) / eps)
    return _ceil_fraction(arg)


def _moving_L(n: int, degV: int, d: int, q: int, delta: Fraction,
              eps: Fraction, u: int) -> Tuple[Optional[int], float, str]:
    base = 1 + eps / (2 * (n + 1) * delta)
    A = d ** n * degV * (u + 1) ** (n + q)
    exponent = certified_floor(
        lambda: mpmath.iv.mpf(A) / mpmath.iv.log(_iv_fraction(base)) ** 2,
        "the exponent of the moving-target truncation") + 1
    prefactor = d ** n * degV * (u + 1) ** n

    p, qd = base.numerator, base.denominator
    est_bits = (math.log2(prefactor)
                + exponent * (math.log2(p) - math.log2(qd)))
    L = None
    note = ""
    if est_bits <= _MAX_EXACT_BITS * 1.01:
        power = None
        if qd & (qd - 1) == 0:
            power = p ** exponent >> (exponent * qd.bit_length() - exponent)
            alt = (prefactor * p ** exponent
                   >> (exponent * qd.bit_length() - exponent))
        elif exponent * math.log2(p) <= 4e5:
            num = p ** exponent
            den = qd ** exponent
            power = num // den
            alt = prefactor * num // den
        if power is not None:
            L = prefactor * power
            if L.bit_length() > _MAX_EXACT_BITS:
                L = None
            elif alt != L:
                note = ("outer bracket read as floor of the power term; "
                        f"whole-product floor exceeds it by {alt - L}")
    if L is not None:
        log10_L = _log10(L)
    else:
        def builder():
            iv = mpmath.iv
            x = (iv.mpf(exponent) * iv.log(_iv_fraction(base))
                 + iv.log(iv.mpf(prefactor)))
            return x / iv.log(iv.mpf(10)) - iv.mpf([0, 1e-9])
        log10_L = certified_log10(
            builder, "log10 of the moving-target truncation")
        if not note:
            note = ("outer bracket read as floor of the power term; the "
                    "whole-product reading differs by less than the "
                    "prefactor")
    return L, log10_L, note


def constants_moving(n: int, degV: int, d: int, q: int,
                     delta: Fraction, eps: Fraction,
                     variant: str = "MovingA") -> SMTConstants:
    delta, eps = _check_inputs(n, degV, d, q, delta, eps)
    if eps >= (n + 1) * delta:
        raise ValidationError(
            f"epsilon must stay below (n+1) Delta_V = {(n + 1) * delta}")
    u = _u_ceiling(n, degV, d, delta, eps, doubled=True)
    L, log10_L, note = _moving_L(n, degV, d, q, delta, eps, u)
    return SMTConstants(variant, u, L, log10_L, n, degV, d, q, delta, eps,
                        note)


def _fixed_target(n: int, degV: int, d: int, q: int, delta: Fraction,
                  eps: Fraction, variant: str, doubled: bool) -> SMTConstants:
    """The fixed-target L; the plane variant pairs it with the doubled u."""
    delta, eps = _check_inputs(n, degV, d, q, delta, eps)
    u = _u_ceiling(n, degV, d, delta, eps, doubled)
    rational = (Fraction(d) ** (n * n + n) * Fraction(degV) ** (n + 1)
                * Fraction(2 * n + 5) ** n
                * (delta ** 2 * (n + 1) / eps + delta) ** n)
    L = certified_floor(
        lambda: _iv_fraction(rational) * mpmath.iv.exp(mpmath.iv.mpf(n)),
        "the fixed-target truncation")
    return SMTConstants(variant, u, L, _log10(L), n, degV, d, q, delta, eps)


def constants_fixed(n: int, degV: int, d: int, delta: Fraction,
                    eps: Fraction, q: int = 1,
                    variant: str = "FixedB") -> SMTConstants:
    return _fixed_target(n, degV, d, q, delta, eps, variant, doubled=False)


def constants_theoremB(n: int, degV: int, d: int, q: int,
                       delta: Fraction, eps: Fraction) -> SMTConstants:
    delta, eps = _check_inputs(n, degV, d, q, delta, eps)
    rational = (Fraction(d) ** (n * n + n) * Fraction(degV) ** (n + 1)
                * delta ** n * Fraction(2 * n + 4) ** n
                * Fraction(n + 1) ** n
                * Fraction(math.factorial(q)) ** n / eps ** n)
    L = certified_floor(
        lambda: _iv_fraction(rational) * mpmath.iv.exp(mpmath.iv.mpf(n)),
        "the factorial-growth truncation")
    return SMTConstants("TheoremB", 1, L, _log10(L), n, degV, d, q, delta,
                        eps, "no auxiliary step parameter; u stored as 1")


def constants_plane(n: int, degV: int, d: int, q: int, delta: Fraction,
                    eps: Fraction, moving: bool) -> SMTConstants:
    """Plane-domain constants: same L recipes, no correction term."""
    if moving:
        return constants_moving(n, degV, d, q, delta, eps,
                                variant="Plane")
    return _fixed_target(n, degV, d, q, delta, eps, "Plane", doubled=True)


def _scenario_constants(scenario: Scenario
                        ) -> Tuple[SMTConstants, SMTConstants]:
    """The constants of the theorem variant a scenario falls under (plane
    domain, else moving or fixed targets on the disc) and of Theorem B;
    computed once per scenario."""
    def compute():
        n, degV = scenario.variety.dim_degree()
        if n < 1:
            raise DegenerateInputError(f"variety has dimension {n}")
        family, eps = scenario.family, scenario.epsilon
        q, d = len(family), family.common_degree
        delta = scenario.distributive().value
        if math.isinf(scenario.domain_radius):
            primary = constants_plane(n, degV, d, q, delta, eps,
                                      family.is_moving)
        elif family.is_moving:
            primary = constants_moving(n, degV, d, q, delta, eps)
        else:
            primary = constants_fixed(n, degV, d, delta, eps, q=q)
        return primary, constants_theoremB(n, degV, d, q, delta, eps)
    return scenario.once("constants", compute)


# -- scenario verification ------------------------------------------------------


@dataclass(frozen=True)
class SMTReport:
    constants: SMTConstants
    rows: Tuple[Tuple[float, float, float, float], ...]
    rhs_terms: Tuple[Tuple[float, float], ...]
    defects: Tuple[Tuple[int, float], ...]
    comparison: Dict[str, float]
    flags: Tuple[str, ...]

    @property
    def falsified(self) -> bool:
        return any(f.startswith("falsification") for f in self.flags)


def _scaled(div: Divisor, factor: int) -> Divisor:
    return Divisor(tuple((z, m * factor) for z, m in div.points),
                   div.radius)


def _scenario_setup(scenario: Scenario, quad_tol: float) -> Tuple[
        SMTConstants, SMTConstants, Tuple[float, ...], float]:
    """What both scenario reports start from: the constants above, T on
    the grid and the growth index (0 for maps from the plane)."""
    constants = _scenario_constants(scenario)
    T = scenario.session.characteristic(quad_tol)
    if math.isinf(scenario.domain_radius):
        c_f = 0.0
    elif scenario.growth_model is not None:
        c_f = growth_index_model(float(scenario.growth_model),
                                 scenario.domain_radius).value
    else:
        c_f = growth_index_sampled(scenario.grid, T).value
    return (*constants, T, c_f)


def verify_main_inequality(scenario: Scenario, quad_tol: float = 1e-8,
                           tolerance: float = 1e-6,
                           strict_origin: bool = False) -> SMTReport:
    """Evaluate both sides of the applicable main inequality per grid radius.

    Margins are RHS - LHS; a negative margin beyond `tolerance` is a
    falsification event and lands in the flags.
    """
    scenario.check_curve()
    flags: List[str] = []
    family = scenario.family
    session = scenario.session
    plane = math.isinf(scenario.domain_radius)
    constants, other, T, c_f = _scenario_setup(scenario, quad_tol)
    n, q, d, delta = constants.n, constants.q, constants.d, constants.delta_V
    eps = scenario.epsilon
    # N^[L] in the plane case, N^[L-1] on the disc
    trunc_nominal = (constants.L if plane or constants.L is None
                     else constants.L - 1)

    grid = scenario.grid
    correction = 0.0
    if not plane:
        if constants.L is None:
            correction = math.inf
            flags.append(
                "correction term astronomically large "
                f"(log10 L = {constants.log10_L:.1f}); inequality "
                "numerically vacuous")
        else:
            correction = (float(delta * (n + 1) + eps)
                          * (c_f + float(scenario.epsilon_prime))
                          * (constants.L - 1) / (2 * d * constants.u))

    k_used = trunc_nominal
    if scenario.truncation is not None:
        k_used = scenario.truncation
        flags.append(f"truncation overridden to {k_used}")
    if k_used is None or k_used > 10 ** 9:
        k_used = math.inf

    divisors = [session.divisor(j) for j in range(q)]
    if plane:
        weights = [Fraction(1, Q.degree) for Q in family]
        scaled = divisors
    else:
        weights = [Fraction(1, d)] * q
        scaled = [_scaled(div, d // Q.degree)
                  for div, Q in zip(divisors, family)]

    N_trunc = [counting(div, grid, k_used, strict_origin) for div in scaled]
    N_full = [counting(div, grid, math.inf, strict_origin) for div in scaled]
    if not all(map(math.isfinite, itertools.chain(T, *N_trunc, *N_full))):
        raise CertificationError(NAN_REPORT)   # NaN != NaN below

    max_mult = max((m for div in scaled for _, m in div.points), default=0)
    if (k_used == math.inf or max_mult <= k_used) and N_trunc != N_full:
        raise CertificationError(
            "saturated truncation changed a counting function")
    if trunc_nominal is None or max_mult < trunc_nominal:
        flags.append(
            "truncation saturated: max multiplicity "
            f"{max_mult} < truncation level; truncated and untruncated "
            "counting functions coincide exactly at this scale")

    coef_lhs = float(q - delta * (n + 1) - eps)
    if coef_lhs <= 0:
        flags.append(
            "vacuous regime: q <= Delta_V (n+1) + epsilon, the left side "
            "is nonpositive")

    rows = []
    rhs_terms = []
    for i, r in enumerate(grid.values):
        lhs = coef_lhs * T[i]
        from_counting = sum(float(w) * Nj[i] for w, Nj in zip(weights, N_trunc))
        from_correction = correction * T[i]
        rhs = from_counting + from_correction
        margin = rhs - lhs
        rows.append((r, lhs, rhs, margin))
        rhs_terms.append((from_counting, from_correction))
        if margin < -tolerance:
            flags.append(f"falsification event at r = {r}: "
                         f"margin = {margin:.3e}")

    defects = [(j, _top_decile_defect(
                    grid, counting(div, grid, k_used, strict_origin), T,
                    Q.degree))
               for j, (Q, div) in enumerate(zip(family, divisors))]

    comparison = {
        "log10_L": constants.log10_L,
        "log10_L_theoremB": other.log10_L,
        "log10_improvement": other.log10_L - constants.log10_L,
    }
    if constants.L is not None and other.L is not None and constants.L > 0:
        comparison["improvement"] = other.L / constants.L

    return SMTReport(constants, tuple(rows), tuple(rhs_terms),
                     tuple(defects), comparison, tuple(flags))


# -- defect relation --------------------------------------------------------------


@dataclass(frozen=True)
class DefectRelationReport:
    constants: SMTConstants
    u_bound: int
    defects: Tuple[Tuple[int, float], ...]
    total: float
    bound: float
    holds: bool
    flags: Tuple[str, ...]


def defect_relation_report(scenario: Scenario,
                           quad_tol: float = 1e-8,
                           tolerance: float = 1e-6) -> DefectRelationReport:
    """Sum of truncated defects against the explicit bound, fixed targets.

    The bound's correction term uses the doubled step parameter; it
    vanishes for maps from the plane.
    """
    family = scenario.family
    if family.is_moving:
        raise ValidationError("the defect relation needs fixed hypersurfaces")
    scenario.check_curve()
    flags: List[str] = []
    constants, _, T, c_f = _scenario_setup(scenario, quad_tol)
    n, q, d, delta = constants.n, constants.q, constants.d, constants.delta_V
    eps = scenario.epsilon
    u_bound = _u_ceiling(n, constants.deg_V, d, delta, eps, doubled=True)
    L = constants.L

    grid = scenario.grid
    divisors = [scenario.session.divisor(j) for j in range(q)]
    max_mult = max((m for div in divisors for _, m in div.points), default=0)
    defects = [(j, _top_decile_defect(grid, counting(div, grid, L - 1), T,
                                      Q.degree))
               for j, (Q, div) in enumerate(zip(family, divisors))]
    if max_mult < L - 1:
        flags.append(
            "truncation saturated: max multiplicity "
            f"{max_mult} < {L - 1}; truncated defects equal untruncated "
            "ones at this scale")

    total = sum(v for _, v in defects)
    bound = float(delta * (n + 1) + eps)
    if not math.isinf(scenario.domain_radius):
        bound += bound * c_f * (L - 1) / (2 * d * u_bound)
    holds = total <= bound + tolerance
    return DefectRelationReport(constants, u_bound, tuple(defects), total,
                                bound, holds, tuple(flags))
