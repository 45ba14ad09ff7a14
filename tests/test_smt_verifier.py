"""Truncation constants and scenario-level inequality verification."""

import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpf

from smtlab import position_geometry
from smtlab.functions import AnalyticFunction, Poly1, parse_function
from smtlab.errors import (
    CertificationError,
    DegenerateInputError,
    ValidationError,
)
from smtlab.exact_algebra import monomials_of_degree
from smtlab.scalars import GaussianRational
from smtlab.scenario import load_scenario, scenario_from_dict
from smtlab.smt_verifier import (
    SMTConstants,
    certified_floor,
    constants_fixed,
    constants_moving,
    constants_plane,
    constants_theoremB,
    defect_relation_report,
    verify_main_inequality,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
F = Fraction


# -- constants ---------------------------------------------------------------

def test_fixed_constants_frozen():
    c = constants_fixed(1, 1, 1, F(1), F(1))
    assert c.u == 18 and c.L == 57
    assert abs(c.log10_L - math.log10(57)) <= 1e-9
    assert constants_fixed(1, 1, 1, F(1), F(2)).u == 12


def test_fixed_constants_preconditions():
    with pytest.raises(ValidationError):
        constants_fixed(1, 1, 1, F(1), F(0))
    with pytest.raises(ValidationError):
        constants_fixed(0, 1, 1, F(1), F(1))


def test_moving_constants_frozen():
    c = constants_moving(1, 1, 1, 2, F(1), F(1))
    assert c.u == 36
    assert 9.8e4 <= c.log10_L <= 9.9e4
    # independent reconstruction of the whole tower at high precision
    with mp.workdps(60):
        quotient = mpf(50653) / mp.log(mpf(5) / 4) ** 2
        exponent = int(mp.floor(quotient)) + 1
    assert exponent == 1017271
    assert c.L is not None
    assert c.L == 37 * (5 ** exponent >> (2 * exponent))
    assert 10 ** 98585 <= c.L < 10 ** 98586
    with mp.workdps(40):
        direct = float(mp.log10(37) + exponent * mp.log10(mpf(5) / 4))
    assert abs(c.log10_L - direct) <= 2e-6
    assert "whole-product floor exceeds it by 21" in c.note


def test_moving_constants_preconditions():
    with pytest.raises(ValidationError):
        constants_moving(1, 1, 1, 2, F(1), F(2))  # epsilon = (n+1) Delta
    with pytest.raises(ValidationError):
        constants_moving(1, 1, 1, 0, F(1), F(1))
    with pytest.raises(ValidationError):
        constants_moving(1, 1, 1, 2, F(-1), F(1))


def test_epsilon_monotonicity():
    ladder = [F(1, 4), F(1, 2), F(1), F(3, 2)]
    mov = [constants_moving(1, 1, 1, 2, F(1), e).u for e in ladder]
    assert all(a >= b for a, b in zip(mov, mov[1:]))
    assert constants_moving(1, 1, 1, 2, F(1), F(1)).u \
        < constants_moving(1, 1, 1, 2, F(1), F(1, 2)).u
    fix = [constants_fixed(1, 1, 1, F(1), e).L for e in ladder]
    assert all(a >= b for a, b in zip(fix, fix[1:]))
    thb = [constants_theoremB(1, 1, 1, 3, F(1), e).L for e in ladder]
    assert all(a >= b for a, b in zip(thb, thb[1:]))


def test_theoremB_frozen_and_comparison():
    assert constants_theoremB(1, 1, 1, 2, F(1), F(1)).L == 65
    big = constants_theoremB(1, 1, 1, 5, F(1), F(1))
    assert big.L == 3914
    small = constants_fixed(1, 1, 1, F(1), F(1), q=5)
    assert 68.0 <= big.L / small.L <= 69.5


def test_plane_constants():
    c = constants_plane(1, 1, 1, 3, F(1), F(1, 2), moving=False)
    assert c.variant == "Plane"
    assert c.u == 60 and c.L == 95  # doubled step, fixed-formula truncation
    m = constants_plane(1, 1, 1, 2, F(1), F(1), moving=True)
    assert m.variant == "Plane" and m.u == 36


@pytest.mark.parametrize("moving", [False, True])
def test_plane_u_recomputed(moving):
    # both plane branches carry the doubled step parameter, checked again
    # on construction as for MovingA
    c = constants_plane(1, 1, 1, 3, F(1), F(1, 2), moving=moving)
    with pytest.raises(CertificationError, match="exact recomputation"):
        replace(c, u=c.u + 1)


def test_certified_floor_resolves_and_caps():
    from mpmath import iv
    assert certified_floor(lambda: iv.mpf(3), "an exact integer") == 3
    with pytest.raises(CertificationError, match="precision cap"):
        certified_floor(lambda: iv.mpf([2.5, 3.5]), "a stuck bracket")


def test_constants_invariants_enforced():
    with pytest.raises(ValidationError):
        SMTConstants("FixedB", 0, 57, math.log10(57), 1, 1, 1, 1, F(1), F(1))
    with pytest.raises(CertificationError):
        SMTConstants("FixedB", 18, 57, 3.0, 1, 1, 1, 1, F(1), F(1))
    with pytest.raises(CertificationError):
        SMTConstants("MovingA", 35, None, 9.9e4, 1, 1, 1, 2, F(1), F(1))


# -- scenario verification ------------------------------------------------------

def test_verify_three_points():
    s = load_scenario(str(SCENARIOS / "line_three_points.json"))
    rep = verify_main_inequality(s)
    assert rep.constants.variant == "Plane"
    assert not rep.falsified
    assert any("saturated" in f for f in rep.flags)
    assert all(margin >= -1e-6 for _, _, _, margin in rep.rows)
    for (r, lhs, rhs, margin) in rep.rows:
        assert margin == rhs - lhs
    # plane case: no correction term anywhere
    assert all(corr == 0.0 for _, corr in rep.rhs_terms)
    values = dict(rep.defects)
    assert abs(values[0] - 1.0) <= 0.02
    assert abs(values[1]) <= 0.02 and abs(values[2]) <= 0.02


def test_verify_conic_four_lines():
    s = load_scenario(str(SCENARIOS / "conic_four_lines.json"))
    rep = verify_main_inequality(s)
    c = rep.constants
    assert (c.n, c.deg_V, c.d, c.q) == (1, 2, 1, 4)
    assert c.delta_V == 1
    with mp.workdps(30):
        assert c.L == int(mp.floor(84 * mp.e))
    assert not rep.falsified
    assert any("saturated" in f for f in rep.flags)


def test_verify_disc_model_growth():
    s = load_scenario(str(SCENARIOS / "disc_model_growth.json"))
    rep = verify_main_inequality(s)
    assert rep.constants.variant == "FixedB"
    assert rep.constants.u == 30 and rep.constants.L == 95
    assert not rep.falsified
    # the correction term is strictly positive and reported separately
    assert all(corr > 0 for _, corr in rep.rhs_terms)


def test_verify_determinism():
    s = load_scenario(str(SCENARIOS / "line_three_points.json"))
    a = verify_main_inequality(s)
    b = verify_main_inequality(s)
    assert a.rows == b.rows and a.defects == b.defects and a.flags == b.flags


def test_verify_degenerate_curve_in_member():
    data = {
        "ambient_N": 1,
        "curve": {"components": ["poly: z", "poly: z"], "domain_R": "inf"},
        "hypersurfaces": [
            {"degree": 1, "coefficients": {"x1": "1", "x0": "-1"}}],
        "epsilon": "1/2",
        "r0": 0.25,
        "grid": {"kind": "geometric", "r_min": 2.0, "r_max": 10.0,
                 "points": 3},
    }
    with pytest.raises(DegenerateInputError):
        verify_main_inequality(scenario_from_dict(data))


def test_verify_degenerate_linear_relation():
    data = {
        "ambient_N": 2,
        "curve": {"components": ["poly: 1", "poly: z", "poly: 2*z"],
                  "domain_R": "inf"},
        "hypersurfaces": [
            {"degree": 1, "coefficients": {"x0": "1", "x1": "1", "x2": "1"}}],
        "epsilon": "1/2",
        "r0": 0.25,
        "grid": {"kind": "geometric", "r_min": 2.0, "r_max": 10.0,
                 "points": 3},
    }
    with pytest.raises(DegenerateInputError, match="degree-1"):
        verify_main_inequality(scenario_from_dict(data))


def test_verify_degenerate_quadratic_relation():
    # x1^2 = x0*x2 on (1, z, z^2): six quadratic monomials, rank five
    data = {
        "ambient_N": 2,
        "curve": {"components": ["poly: 1", "poly: z", "poly: z^2"],
                  "domain_R": "inf"},
        "hypersurfaces": [
            {"degree": 1, "coefficients": {"x0": "1", "x1": "1", "x2": "1"}}],
        "epsilon": "1/2",
        "r0": 0.25,
        "grid": {"kind": "geometric", "r_min": 2.0, "r_max": 10.0,
                 "points": 3},
    }
    with pytest.raises(DegenerateInputError,
                       match=r"degree-2 relation \(monomial rank 5 < 6\)"):
        verify_main_inequality(scenario_from_dict(data))


def test_verify_transcendental_curve_is_checked_exactly():
    # 1 and e^z are independent on coefficients: no "not certified" flag
    data = {
        "ambient_N": 1,
        "curve": {"components": ["poly: 1", "exppoly: (1)*exp(z)"],
                  "domain_R": "inf"},
        "hypersurfaces": [{"degree": 1, "coefficients": {"x0": "1"}},
                          {"degree": 1, "coefficients": {"x1": "1"}}],
        "epsilon": "1/2",
        "r0": 0.25,
        "grid": {"kind": "geometric", "r_min": 2.0, "r_max": 10.0,
                 "points": 3},
    }
    rep = verify_main_inequality(scenario_from_dict(data))
    assert not rep.falsified
    assert not any("nondegeneracy" in f or "certified" in f
                   for f in rep.flags)


def _random_function(rng, rational):
    """A polynomial of degree 0-3 with Gaussian-integer coefficients, over
    a denominator of degree 1-2 when rational."""
    def poly(degree):
        coeffs = [GaussianRational(rng.randint(-3, 3),
                                   rng.choice((0, 0, 1, -2)))
                  for _ in range(degree)]
        return Poly1(coeffs + [GaussianRational(rng.randint(1, 3))])
    num = poly(rng.randint(0, 3))
    if not rational:
        return AnalyticFunction.from_poly(num)
    return AnalyticFunction.rational(num, poly(rng.randint(1, 2)))


def _sympy_ranks(sympy, comps):
    """Ranks of the degree-1 and degree-2 monomials in the components,
    cleared by the product of their denominators, by sympy over Q(i)."""
    from sympy.polys.domains import QQ_I
    from sympy.polys.matrices import DomainMatrix
    z = sympy.Symbol("z")

    def poly(p):
        coeffs = [_sympy_number(sympy, c) for c in reversed(p.coeffs)]
        return sympy.Poly(coeffs, z, domain=QQ_I)
    fractions = [tuple(map(poly, (c.num, c.den))) for c in comps]
    D = sympy.Poly(1, z, domain=QQ_I)
    for _, den in fractions:
        D = D * den
    polys = [(num * D).exquo(den) for num, den in fractions]
    ranks = []
    for u in (1, 2):
        rows = []
        for mono in monomials_of_degree(len(polys), u):
            product = sympy.Poly(1, z, domain=QQ_I)
            for p, e in zip(polys, mono):
                product = product * p ** e
            rows.append(product.rep.to_list()[::-1])
        width = max(map(len, rows))
        rows = [row + [QQ_I.zero] * (width - len(row)) for row in rows]
        ranks.append(DomainMatrix(rows, (len(rows), width), QQ_I).rank())
    return ranks


def test_monomial_ranks_against_sympy():
    # 30 curves in P^2 and P^3, every third rational; the first 15 lie on
    # the quadric x0 x2 = x1^2, as (1, p, p^2) or (1, p, p^2, q)
    sympy = pytest.importorskip("sympy")
    rng = random.Random(29)
    for case in range(30):
        n = 3 + case % 2
        rational = case % 3 == 0
        comps = [_random_function(rng, rational) for _ in range(n)]
        if case < 15:
            p = comps[1]
            comps[:3] = [AnalyticFunction.constant(1), p, p * p]
        cleared = position_geometry._cleared_denominators(comps)
        ours = [position_geometry._monomial_rank(cleared, u)
                for u in (1, 2)]
        assert ours == _sympy_ranks(sympy, comps), case
        if case < 15:
            assert ours[1] < len(monomials_of_degree(n, 2))


_LAMBDAS = [GaussianRational(a, b) for a, b in
            ((0, 0), (1, 0), (-1, 0), (0, 1), (F(1, 2), 0), (1, 1), (-2, 0))]


def _random_exppoly(sympy, rng):
    """(ours, sympy's) for sum p_lambda(z) e^(lambda z): one or two
    rates from _LAMBDAS, each with a polynomial of degree 0-2."""
    z = sympy.Symbol("z")
    terms, expr = {}, sympy.Integer(0)
    for lam in rng.sample(_LAMBDAS, rng.randint(1, 2)):
        coeffs = [GaussianRational(rng.randint(-3, 3),
                                   rng.choice((0, 0, 1, -2)))
                  for _ in range(rng.randint(0, 2))]
        terms[lam] = Poly1(coeffs + [GaussianRational(rng.randint(1, 3))])
        expr += (sum(_sympy_number(sympy, c) * z ** k
                     for k, c in enumerate(terms[lam].coeffs))
                 * sympy.exp(_sympy_number(sympy, lam) * z))
    return AnalyticFunction.exppoly(terms), expr


def _sympy_number(sympy, c):
    return sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)


def _sympy_exppoly_ranks(sympy, exprs):
    """Ranks of the degree-1 and degree-2 monomials in exprs, each
    expanded and read by the coefficients of z^k exp(lambda z)."""
    from sympy.polys.domains import QQ_I
    from sympy.polys.matrices import DomainMatrix
    z = sympy.Symbol("z")
    ranks = []
    for u in (1, 2):
        rows = []
        for mono in monomials_of_degree(len(exprs), u):
            product = sympy.Mul(*(e ** k for e, k in zip(exprs, mono)))
            row = {}
            for term in sympy.Add.make_args(sympy.expand(product)):
                coeff, rest = term.as_independent(z, as_Add=False)
                lam, k = sympy.Integer(0), 0
                for factor in sympy.Mul.make_args(rest):
                    if isinstance(factor, sympy.exp):
                        lam += sympy.expand(factor.args[0] / z)
                    elif factor != 1:
                        k += int(sympy.degree(factor, z))
                key = (sympy.re(lam), sympy.im(lam), k)
                row[key] = row.get(key, 0) + coeff
            rows.append(row)
        keys = sorted({key for row in rows for key in row})
        matrix = [[QQ_I.from_sympy(sympy.expand(row.get(key, 0)))
                   for key in keys] for row in rows]
        ranks.append(DomainMatrix(matrix, (len(rows), len(keys)),
                                  QQ_I).rank())
    return ranks


def test_exppoly_monomial_ranks_against_sympy():
    # 20 exponential-polynomial curves in P^2 and P^3, some on the quadric
    # x0 x2 = x1^2: (1, g, g^2, ...) in cases 0-5 and, in every fourth
    # case, (r, g, g^2 / r, ...) with r = 1/(z - 3), on it only once the
    # denominator is cleared from every component; cases 6-9 have
    # x2 = 2 x0 - x1
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    r = parse_function("rational: (1)/(z - 3)")
    rng = random.Random(41)
    for case in range(20):
        n = 3 + case % 2
        pairs = [_random_exppoly(sympy, rng) for _ in range(n)]
        g, ge = pairs[1]
        on_quadric = case < 6 or case % 4 == 3
        if case % 4 == 3:   # cleared by z - 3
            pairs[:3] = [(r, 1 / (z - 3)), (g, ge),
                         (g * g / r, ge ** 2 * (z - 3))]
            pairs = [(f, e * (z - 3)) for f, e in pairs]
        elif case < 6:
            pairs[:3] = [(AnalyticFunction.constant(1), sympy.Integer(1)),
                         (g, ge), (g * g, ge ** 2)]
        elif case < 10:
            (a, ae), (b, be) = pairs[0], pairs[1]
            pairs[2] = (a + a - b, 2 * ae - be)
        comps = [f for f, _ in pairs]
        exprs = [e for _, e in pairs]
        cleared = position_geometry._cleared_denominators(comps)
        ours = [position_geometry._monomial_rank(cleared, u)
                for u in (1, 2)]
        assert ours == _sympy_exppoly_ranks(sympy, exprs), case
        if on_quadric:
            assert ours[1] < len(monomials_of_degree(n, 2)), case
        elif case < 10:
            assert ours[0] < n, case


def test_exact_check_evaluates_nothing(monkeypatch):
    # every curve kind is checked on coefficients alone: no point
    # evaluation, exact or float, and no Wronskian
    def forbidden(*args):
        raise AssertionError("called on the exact path")
    scenarios = [load_scenario(str(SCENARIOS / f"{name}.json"))
                 for name in ("line_three_points", "conic_four_lines")]
    for components in (["poly: 1", "rational: (z)/(z - 4/5)"],
                       ["poly: 1", "exppoly: (z)*exp((1+i)*z) + (2)"]):
        scenarios.append(scenario_from_dict({
            "ambient_N": 1,
            "curve": {"components": components, "domain_R": 0.7},
            "hypersurfaces": [{"degree": 1, "coefficients": {"x0": "1"}}],
            "epsilon": "1/2",
            "r0": 0.05,
        }))
    for owner in (AnalyticFunction, Poly1):
        for name in ("eval_exact", "eval_complex"):
            monkeypatch.setattr(owner, name, forbidden)
    monkeypatch.setattr(AnalyticFunction, "eval_scaled", forbidden)
    monkeypatch.setattr(AnalyticFunction, "derivative", forbidden)
    for s in scenarios:
        position_geometry.check_nondegenerate(s.variety, s.curve)


def test_verify_vacuous_regime():
    data = {
        "ambient_N": 1,
        "curve": {"components": ["poly: 1", "poly: z"], "domain_R": "inf"},
        "hypersurfaces": [{"degree": 1, "coefficients": {"x0": "1"}}],
        "epsilon": "1/2",
        "r0": 0.25,
        "grid": {"kind": "geometric", "r_min": 2.0, "r_max": 10.0,
                 "points": 3},
    }
    rep = verify_main_inequality(scenario_from_dict(data))
    assert any("vacuous" in f for f in rep.flags)
    assert not rep.falsified


def test_verify_truncation_override():
    s = load_scenario(str(SCENARIOS / "line_three_points.json"))
    data = {
        "ambient_N": 1,
        "curve": {"components": ["poly: 1", "poly: z"], "domain_R": "inf"},
        "hypersurfaces": [
            {"degree": 1, "coefficients": {"x0": "1"}},
            {"degree": 1, "coefficients": {"x1": "1", "x0": "-1"}},
            {"degree": 1, "coefficients": {"x1": "1", "x0": "1"}}],
        "epsilon": "1/2",
        "r0": 0.25,
        "truncation": 1,
        "seed": 0,
        "grid": {"kind": "geometric", "r_min": 2.0, "r_max": 1000.0,
                 "points": 40},
    }
    rep = verify_main_inequality(scenario_from_dict(data))
    assert any("overridden to 1" in f for f in rep.flags)
    base = verify_main_inequality(s)
    assert rep.rows == base.rows  # all zeros are simple here


# -- defect relation ---------------------------------------------------------------

def test_defect_relation_three_points():
    s = load_scenario(str(SCENARIOS / "line_three_points.json"))
    d = defect_relation_report(s)
    assert d.bound == 2.5
    assert d.total <= 2.5
    assert abs(d.total - 1.0) <= 0.05
    assert d.holds
    assert any("saturated" in f for f in d.flags)
    assert d.u_bound == 60


def test_defect_relation_single_target():
    data = {
        "ambient_N": 1,
        "curve": {"components": ["poly: 1", "poly: z"], "domain_R": "inf"},
        "hypersurfaces": [{"degree": 1, "coefficients": {"x0": "1"}}],
        "epsilon": "1/2",
        "r0": 0.25,
        "grid": {"kind": "geometric", "r_min": 2.0, "r_max": 100.0,
                 "points": 5},
    }
    d = defect_relation_report(scenario_from_dict(data))
    assert d.total == 1.0 and d.holds


def test_defect_relation_needs_fixed_targets():
    data = {
        "ambient_N": 1,
        "curve": {"components": ["poly: 1", "poly: z"], "domain_R": "inf"},
        "hypersurfaces": [
            {"degree": 1, "coefficients": {"x1": "1", "x0": "poly: z"},
             "moving": True}],
        "epsilon": "1/2",
        "r0": 0.25,
        "grid": {"kind": "geometric", "r_min": 2.0, "r_max": 10.0,
                 "points": 3},
    }
    with pytest.raises(ValidationError):
        defect_relation_report(scenario_from_dict(data))
