"""One-variable function arithmetic, Wronskians, and zero extraction."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from smtlab import analytic
from smtlab.scalars import MOD_I, MOD_PRIME, GaussianRational
from smtlab.analytic import (
    AnalyticFunction,
    Curve,
    Poly1,
    derivative,
    parse_function,
    poly_gcd,
    squarefree_decomposition,
    winding_circle,
    wronskian,
    zeros_in_disc,
)
from smtlab.errors import (
    BudgetExceededError,
    CertificationError,
    DegenerateInputError,
    ExactEvalUnavailableError,
    UnsupportedOperationError,
)

GR = GaussianRational
AF = AnalyticFunction


def P(*coeffs):
    return Poly1(list(coeffs))


def fn_poly(*coeffs):
    return AF.from_poly(P(*coeffs))


# -- polynomial layer -----------------------------------------------------

def test_poly_divmod_roundtrip_random():
    rng = random.Random(2)
    for _ in range(30):
        a = P(*[GR(rng.randint(-4, 4), rng.randint(-2, 2))
                for _ in range(rng.randint(1, 7))])
        b = P(*[GR(rng.randint(-4, 4), rng.randint(-2, 2))
                for _ in range(rng.randint(1, 5))])
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree or r.is_zero()


def test_poly_gcd_frozen():
    # gcd(z^2-1, z^2-2z+1) = z-1
    a = P(-1, 0, 1)
    b = P(1, -2, 1)
    assert poly_gcd(a, b) == P(-1, 1)


def test_squarefree_decomposition_frozen():
    # z(z-1)^2 = z^3 - 2z^2 + z
    f = P(0, 1) * P(1, -1) * P(1, -1)
    got = squarefree_decomposition(f)
    assert got == [(P(0, 1), 1), (P(-1, 1), 2)]
    # (z^2+1)^3
    g = P(1, 0, 1) ** 3
    assert squarefree_decomposition(g) == [(P(1, 0, 1), 3)]


def _sympy_sqf(f):
    """sympy's square-free factors of f over Q(i), monic, as Poly1s."""
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    expr = sum((sympy.Rational(c.re.numerator, c.re.denominator)
                + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
               * z ** k for k, c in enumerate(f.coeffs))
    _, factors = sympy.sqf_list(sympy.Poly(expr, z, domain="QQ_I"))
    out = []
    for factor, mult in factors:
        cs = []
        for c in reversed(factor.monic().all_coeffs()):
            re_, im = sympy.Rational(sympy.re(c)), sympy.Rational(sympy.im(c))
            cs.append(GR(Fraction(int(re_.p), int(re_.q)),
                         Fraction(int(im.p), int(im.q))))
        out.append((P(*cs), mult))
    return sorted(out, key=lambda fm: fm[1])


def test_squarefree_matches_sympy_random():
    rng = random.Random(29)

    def rand_poly(deg):
        return P(*[GR(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                      Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                   for _ in range(deg)] + [GR(rng.randint(1, 4))])

    for trial in range(40):
        f = rand_poly(rng.randint(1, 6))
        if trial % 2:   # a repeated factor, sometimes two
            f = f * rand_poly(rng.randint(1, 2)) ** rng.randint(2, 3)
            if trial % 4 == 1:
                f = f * rand_poly(1) ** 2
        got = squarefree_decomposition(f)
        assert sorted(got, key=lambda fm: fm[1]) == _sympy_sqf(f)


_Q = MOD_PRIME


@pytest.mark.parametrize("f, want", [
    # square-free, but q divides the discriminant q^2
    (P(0, -_Q, 1), [(P(0, -_Q, 1), 1)]),
    # monic, q is a denominator
    (P(1, 1, _Q), [(P(Fraction(1, _Q), Fraction(1, _Q), 1), 1)]),
    # a genuine repeated factor: (z - (1+i)/2)^2 (z + 3)
    (P(GR(Fraction(-1, 2), Fraction(-1, 2)), 1) ** 2 * P(3, 1),
     [(P(3, 1), 1), (P(GR(Fraction(-1, 2), Fraction(-1, 2)), 1), 2)]),
])
def test_squarefree_certificate_falls_back_to_yun(monkeypatch, f, want):
    calls = []

    def counting_gcd(a, b):
        calls.append(1)
        return poly_gcd(a, b)

    assert not analytic._squarefree_mod_q(f.monic())
    monkeypatch.setattr(analytic, "poly_gcd", counting_gcd)
    assert squarefree_decomposition(f) == want
    assert calls   # Yun ran


def test_squarefree_certificate_skips_exact_gcd(monkeypatch):
    # a generic square-free f: the image mod q certifies it, no exact gcd
    f = P(GR(Fraction(3, 7), 2), GR(-1, Fraction(1, 5)), GR(0, 4), 1, 9)

    def no_gcd(a, b):
        raise AssertionError("exact gcd called")

    assert analytic._squarefree_mod_q(f.monic())
    monkeypatch.setattr(analytic, "poly_gcd", no_gcd)
    assert squarefree_decomposition(f) == [(f.monic(), 1)]
    assert (MOD_I ** 2 + 1) % _Q == 0 and _Q % 4 == 1 and _Q < 2 ** 31


# -- arithmetic and promotion ------------------------------------------------

def test_derivative_frozen_cases():
    cubed = fn_poly(0, 0, 0, 1)
    assert cubed.derivative() == fn_poly(0, 0, 3)

    geom = AF.rational(P(1), P(1, -1))  # 1/(1-z)
    assert geom.derivative() == AF.rational(P(1), P(1, -1) * P(1, -1))

    zexp = AF.exppoly({GR(2): P(0, 1)})  # z*e^(2z)
    assert zexp.derivative() == AF.exppoly({GR(2): P(1, 2)})


def test_product_rule_symbolic():
    rng = random.Random(9)
    for _ in range(10):
        f = AF.exppoly({GR(rng.randint(-2, 2)): P(rng.randint(-3, 3),
                                                  rng.randint(-3, 3))})
        g = fn_poly(rng.randint(-3, 3), 1)
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        assert lhs == rhs


def test_variant_promotion_and_demotion():
    half = AF.rational(P(1), P(2))  # constant 1/2 is a polynomial
    assert (half.num, half.den) == (P(GR(Fraction(1, 2))), P(1))
    e0 = AF.exppoly({GR(0): P(1, 1)})  # only lambda=0: a polynomial
    assert (e0.num, e0.den) == (P(1, 1), P(1))
    mixed = fn_poly(1) + AF.exppoly({GR(1): P(1)})
    assert mixed.num is None and mixed.terms == {GR(0): P(1), GR(1): P(1)}
    ratio = fn_poly(1) / fn_poly(1, -1)   # -1/(z - 1), den monic
    assert (ratio.num, ratio.den) == (P(-1), P(-1, 1))


def test_rational_times_exppoly_rejected():
    r = AF.rational(P(1), P(1, -1))
    e = AF.exppoly({GR(1): P(1)})
    with pytest.raises(UnsupportedOperationError):
        r * e
    with pytest.raises(UnsupportedOperationError):
        r + e
    with pytest.raises(UnsupportedOperationError):
        e / fn_poly(1, -1)
    with pytest.raises(UnsupportedOperationError):
        fn_poly(1, -1) / e
    with pytest.raises(UnsupportedOperationError):
        e ** -1


def _sym(sympy, c):
    return (sympy.Rational(c.re.numerator, c.re.denominator)
            + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))


def _sym_poly(sympy, z, p):
    return sum((_sym(sympy, c) * z ** k for k, c in enumerate(p.coeffs)),
               sympy.Integer(0))


# rates of the random exponential terms, 0 included
_RATES = (GR(0), GR(1), GR(-1), GR(0, 1), GR(1, -1), GR(Fraction(1, 2)))
# an exact point: a Gaussian-integer polynomial of the small degrees below
# has no zero whose denominator holds the primes 19 or 5 + 2i
_EXACT_POINT = GR(Fraction(17, 19), Fraction(23, 29))
_FLOAT_POINTS = (GR(Fraction(3, 10), Fraction(7, 10)),
                 GR(Fraction(-11, 10), Fraction(2, 5)))


def _random_operand(rng, sympy, z):
    """A nonzero function of a random shape (polynomial, rational or
    exponential polynomial), its sympy expression, and whether it has an
    exponential term, a non-constant numerator and a non-constant
    denominator (read by sympy where a fraction may cancel)."""
    def poly(lo, hi):
        while True:
            p = P(*[GR(rng.randint(-3, 3), rng.choice((0, rng.randint(-2, 2))))
                    for _ in range(rng.randint(lo, hi) + 1)])
            if p.degree >= lo:
                return p

    shape = rng.choice(("poly", "rational", "exppoly"))
    if shape == "rational":
        n, d = poly(0, 2), poly(1, 2)
        sn, sd = _sym_poly(sympy, z, n), _sym_poly(sympy, z, d)
        g = sympy.Poly(sn, z, domain="QQ_I").gcd(
            sympy.Poly(sd, z, domain="QQ_I")).degree()
        return AF.rational(n, d), sn / sd, (False, n.degree > g,
                                            d.degree > g)
    rates = [GR(0)] if shape == "poly" else rng.sample(_RATES,
                                                       rng.randint(1, 3))
    terms = {lam: poly(0, 3 if shape == "poly" else 2) for lam in rates}
    expr = sum((_sym_poly(sympy, z, p) * sympy.exp(_sym(sympy, lam) * z)
                for lam, p in terms.items()), sympy.Integer(0))
    exp = any(not lam.is_zero() for lam in terms)
    return (AF.exppoly(terms), expr,
            (exp, exp or terms[GR(0)].degree > 0, False))


def _has_exp(sympy, expr):
    """Whether expr keeps an exponential term once like terms combine."""
    expr = sympy.expand(sympy.powsimp(sympy.expand(expr), combine="exp"),
                        power_exp=False)
    return expr.has(sympy.exp)


def test_arithmetic_matches_sympy_and_refuses_exactly_the_mixed_shapes():
    # every result is checked against sympy, exactly where it has no
    # exponential term and at rel 1e-12 where it has; a refusal comes
    # exactly when an exponential term, in a numerator or in a divisor,
    # would sit over a non-constant denominator
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    rng = random.Random(19)
    seen = set()
    for _ in range(200):
        a, sa, (a_exp, _, a_den) = _random_operand(rng, sympy, z)
        b, sb, (b_exp, b_num, b_den) = _random_operand(rng, sympy, z)
        op = rng.choice(("+", "-", "*", "/", "**", "d"))
        k = rng.randint(-2, 3)
        if op in "+-*":
            refused = (a_exp and b_den) or (b_exp and a_den)
        elif op == "/":
            refused = b_exp or (a_exp and b_num)
        else:
            refused = op == "**" and k < 0 and a_exp
        compute, want = {
            "+": (lambda: a + b, sa + sb),
            "-": (lambda: a - b, sa - sb),
            "*": (lambda: a * b, sa * sb),
            "/": (lambda: a / b, sa / sb),
            "**": (lambda: a ** k, sa ** k),
            "d": (lambda: a.derivative(), sympy.diff(sa, z)),
        }[op]
        seen.add((op, refused))
        if refused:
            with pytest.raises(UnsupportedOperationError):
                compute()
            continue
        got = compute()
        if not _has_exp(sympy, want):
            value = _sym(sympy, got.eval_exact(_EXACT_POINT))
            exact = want.subs(z, _sym(sympy, _EXACT_POINT))
            assert sympy.expand_complex(exact - value) == 0, (op, a, b, k)
            continue
        with pytest.raises(ExactEvalUnavailableError):
            got.eval_exact(_EXACT_POINT)
        for pt in _FLOAT_POINTS:
            value = got.eval_complex(pt.to_complex())
            expect = complex(sympy.N(want.subs(z, _sym(sympy, pt)), 30))
            assert value == pytest.approx(expect, rel=1e-12), (op, a, b, k)
    assert {(op, False) for op in ("+", "-", "*", "/", "**", "d")} <= seen
    assert {(op, True) for op in ("+", "-", "*", "/", "**")} <= seen


def test_exact_eval():
    f = AF.rational(P(1), P(1, -1))  # 1/(1-z)
    z = GR(Fraction(1, 2))
    assert f.eval_exact(z) == GR(2)
    e = AF.exppoly({GR(1): P(1)})
    with pytest.raises(ExactEvalUnavailableError):
        e.eval_exact(z)


def test_eval_scaled_large_argument():
    f = AF.exppoly({GR(0): P(1), GR(1): P(1)})  # 1 + e^z
    la = f.log_abs(1000 + 0j)
    assert abs(la - 1000.0) < 1e-9
    lb = f.log_abs(-1000 + 0j)
    assert abs(lb) < 1e-9


# -- float plan: one point or an array of nodes ------------------------------

PLAN_CASES = {
    "poly": fn_poly(GR(1, 2), -3, 0, GR(0, 1), 2),
    "rational": AF.rational(P(1, 2, 1), P(3, 0, 1)),      # (1+z)^2/(3+z^2)
    "exppoly": parse_function(
        "exppoly: (1+z)*exp(0) + (z^2)*exp((1+i)*z) + (2)*exp(-z)"),
}


def ring(radius, count=37):
    """Nodes on |z| = radius, offset from the axes."""
    return radius * np.exp(2j * np.pi * (np.arange(count) + 0.3) / count)


@pytest.mark.parametrize("radius", [0.5, 3.0, 1000.0])
@pytest.mark.parametrize("kind", sorted(PLAN_CASES))
def test_array_evaluation_matches_points(kind, radius):
    f = PLAN_CASES[kind]
    z = ring(radius)
    w, s = f.eval_scaled(z)
    s = np.broadcast_to(s, z.shape)
    la = f.log_abs(z)
    assert w.shape == la.shape == z.shape
    for k, point in enumerate(z):
        wk, sk = f.eval_scaled(complex(point))
        assert s[k] == pytest.approx(sk, rel=1e-14, abs=1e-14)
        assert abs(w[k] - wk) <= 1e-12 * abs(wk)
        lk = f.log_abs(complex(point))
        assert abs(la[k] - lk) <= 1e-12 * max(1.0, abs(lk))


@pytest.mark.parametrize("z", [
    complex(0.7, -1.3), 2.5, 3, np.complex128(0.7 - 1.3j), np.float64(2.5),
    ring(2.5)], ids=["complex", "float", "int", "np.complex128",
                     "np.float64", "ndarray"])
def test_input_type_picks_point_or_node_evaluation(z):
    # Python and numpy scalars take math/cmath, arrays numpy; either way
    # the values are those of a point evaluation at complex(z)
    nodes = analytic._nodes()
    ops = analytic._ops(z)
    curve = Curve(tuple(PLAN_CASES.values()))
    if isinstance(z, np.ndarray):
        assert ops is nodes
        got = curve.log_norm(z)
        for k, point in enumerate(z):
            want = curve.log_norm(complex(point))
            assert abs(got[k] - want) <= 1e-12 * max(1.0, abs(want))
        return
    assert ops is analytic._POINT
    for f in PLAN_CASES.values():
        assert f.eval_scaled(z) == f.eval_scaled(complex(z))
        assert f.eval_complex(z) == f.eval_complex(complex(z))
        assert type(f.log_abs(z)) is float
        assert f.log_abs(z) == f.log_abs(complex(z))
    assert curve.log_norm(z) == curve.log_norm(complex(z))


def test_point_evaluation_reads_exact_coefficients():
    # the plan holds the floats the exact coefficients convert to, so a
    # point evaluation is bit-identical to converting them at every node
    f = PLAN_CASES["exppoly"]
    z = complex(0.7, -1.3)

    def horner(p):
        total = 0j
        for c in reversed(p.coeffs):
            total = total * z + c.to_complex()
        return total

    scale = max((lam.to_complex() * z).real for lam in f.terms)
    total = 0j
    for lam, p in f.terms.items():
        total += horner(p) * cmath.exp(lam.to_complex() * z - scale)
    assert f.eval_scaled(z) == (total, scale)
    g = PLAN_CASES["poly"]
    assert g.eval_scaled(z) == (horner(g.num), 0.0)


def test_array_pole_raises():
    f = AF.rational(P(1), P(-1, 0, 1))  # 1/(z^2 - 1)
    z = np.array([0.5, 1.0, 2.0], dtype=complex)
    with pytest.raises(ZeroDivisionError):
        f.eval_scaled(z)
    with pytest.raises(ZeroDivisionError):
        f.log_abs(z)


def test_array_eval_complex_flushes_and_overflows_like_points():
    one_plus_exp = AF.exppoly({GR(0): P(1), GR(1): P(1)})
    exp = AF.exppoly({GR(1): P(1)})
    z = np.array([-720.0, 0.0, 3.0 + 1j], dtype=complex)
    for f in (one_plus_exp, exp):
        got = f.eval_complex(z)
        for k, point in enumerate(z):
            want = f.eval_complex(complex(point))
            assert got[k] == pytest.approx(want, rel=1e-14, abs=0)
        with pytest.raises(OverflowError):
            f.eval_complex(np.array([1.0, 800.0], dtype=complex))
        with pytest.raises(OverflowError):
            f.eval_complex(800.0)
    assert exp.eval_complex(-720.0) == 0j   # exp(-720) is subnormal


def test_poly_sum_and_product_match_rational_round_trip():
    a, b = P(GR(1, 3), 0, -2), P(GR(0, 1), 5)
    fa, fb = AF.from_poly(a), AF.from_poly(b)
    one = P(1)
    total = fa + fb
    product = fa * fb
    assert total.den == product.den == one
    assert total.num == AF.rational(a * one + b * one, one * one).num
    assert product.num == AF.rational(a * b, one * one).num


def test_mul_budget_guard():
    big = Poly1([1] * 6000)
    with pytest.raises(BudgetExceededError):
        big * big


# -- Wronskians -----------------------------------------------------------------

def test_wronskian_polynomial_frozen():
    w = wronskian([fn_poly(1), fn_poly(0, 1), fn_poly(0, 0, 1)])
    assert w == fn_poly(2)


def test_wronskian_exponential_frozen():
    w = wronskian([fn_poly(1),
                   AF.exppoly({GR(1): P(1)}),
                   AF.exppoly({GR(2): P(1)})])
    assert w == AF.exppoly({GR(3): P(2)})


def test_wronskian_dependent_vanishes():
    w = wronskian([fn_poly(1), fn_poly(0, 1), fn_poly(1, 1)])
    assert w.is_zero()


def test_derivative_order():
    f = fn_poly(0, 0, 0, 0, 1)  # z^4
    assert derivative(f, 2) == fn_poly(0, 0, 12)


# -- zero extraction ---------------------------------------------------------------

def test_zeros_polynomial_with_multiplicity():
    f = fn_poly(0, 1) * fn_poly(1, -1) * fn_poly(1, -1)  # z(z-1)^2
    div = zeros_in_disc(f, 2.0)
    assert div.total() == 3
    assert len(div.points) == 2
    (z0, m0), (z1, m1) = div.points
    assert abs(z0) < 1e-12 and m0 == 1
    assert abs(z1 - 1) < 1e-12 and m1 == 2


def test_zeros_rational_uses_numerator():
    f = AF.rational(P(-1, 1), P(2, 1))  # (z-1)/(z+2)
    div = zeros_in_disc(f, 3.0)
    assert len(div.points) == 1
    z, m = div.points[0]
    assert abs(z - 1) < 1e-12 and m == 1


def test_zeros_exp_minus_one():
    f = AF.exppoly({GR(0): P(-1), GR(1): P(1)})  # e^z - 1
    div = zeros_in_disc(f, 7.0)
    assert div.total() == 3
    expect = [0j, 2j * math.pi, -2j * math.pi]
    assert len(div.points) == 3
    for z, m in div.points:
        assert m == 1
        assert min(abs(z - w) for w in expect) < 1e-6


def test_zeros_pure_exponential_empty():
    f = AF.exppoly({GR(1): P(1)})  # e^z
    div = zeros_in_disc(f, 5.0)
    assert div.points == () and div.total() == 0


def test_zeros_zero_function_rejected():
    with pytest.raises(DegenerateInputError):
        zeros_in_disc(fn_poly(), 1.0)


def test_zeros_double_zero_winding_path():
    # (e^z - 1)^2 has a double zero at 0
    base = AF.exppoly({GR(0): P(-1), GR(1): P(1)})
    f = base * base
    div = zeros_in_disc(f, 1.0)
    assert div.total() == 2
    assert len(div.points) == 1
    z, m = div.points[0]
    assert m == 2 and abs(z) < 1e-6


def test_polynomial_vs_winding_agreement():
    rng = random.Random(21)
    for trial in range(20):
        deg = rng.randint(1, 8)
        coeffs = [GR(rng.randint(-5, 5), rng.randint(-5, 5))
                  for _ in range(deg)] + [GR(rng.randint(1, 5))]
        f = AF.from_poly(Poly1(coeffs))
        if f.num.degree < 1:
            continue
        t = 2.5
        alg = zeros_in_disc(f, t)
        win = zeros_in_disc(f, t, force_winding=True)
        assert alg.total() == win.total()
        assert len(alg.points) == len(win.points)
        for (za, ma), (zw, mw) in zip(alg.points, win.points):
            assert ma == mw
            assert abs(za - zw) < 1e-7


def test_divisor_total_truncation():
    f = fn_poly(0, 1) * fn_poly(1, -1) * fn_poly(1, -1)
    div = zeros_in_disc(f, 2.0)
    assert div.total() == 3
    assert div.total(1) == 2


def test_winding_circle_counts_poly():
    f = fn_poly(-1, 0, 0, 1)  # z^3 - 1, three roots on |z| = 1
    count, nodes = winding_circle(f, 1.5)
    assert count == 3
    assert nodes <= 2 ** 12


def test_overflowed_winding_sum_is_a_certification_error():
    # 1 + z + z^2 overflows on |z| = 1e160: the level sum is NaN, refused
    # on both the winding and the moment walk (forced)
    f = fn_poly(1, 1, 1)
    for force in (False, True):
        with pytest.raises(CertificationError, match="is not finite"):
            zeros_in_disc(f, 1e160, force_winding=force)
    with pytest.raises(CertificationError, match="is not finite"):
        winding_circle(f, 1e160)


def exp_minus(c):
    return AF.exppoly({GR(0): P(-c), GR(1): P(1)})  # e^z - c


def test_moments_locate_exp_minus_two():
    div = zeros_in_disc(exp_minus(2), 40.0)
    expect = [math.log(2) + 2j * math.pi * k for k in range(-6, 7)]
    assert div.total() == 13 and len(div.points) == 13
    for z, m in div.points:
        assert m == 1
        assert min(abs(z - w) for w in expect) < 1e-12
    assert sorted(min(range(13), key=lambda i: abs(z - expect[i]))
                  for z, _ in div.points) == list(range(13))


def test_moments_cluster_triple_zero():
    div = zeros_in_disc(exp_minus(1) ** 3, 1.0)
    assert div.total() == 3
    assert len(div.points) == 1
    z, m = div.points[0]
    assert m == 3 and abs(z) < 1e-6


def test_moments_separate_close_simple_zeros():
    # zeros 1e-5 apart share one moment cluster; the stalled double-zero
    # polish must not merge them into one zero of multiplicity 2
    f = exp_minus(1) * AF.exppoly({GR(0): P(-1 - Fraction(1, 10 ** 5)),
                                   GR(1): P(1)})
    div = zeros_in_disc(f, 1.0)
    assert [m for _, m in div.points] == [1, 1]
    (z0, _), (z1, _) = div.points
    assert abs(z0) < 1e-9 and abs(z1 - math.log1p(1e-5)) < 1e-9


def test_moments_split_above_cap_counts_each_zero_once():
    from smtlab.analytic import _MOMENT_CAP
    f = exp_minus(1)  # zeros 2 pi i k; 31 of them in |z| <= 100
    assert 31 > _MOMENT_CAP  # so the disc must be split
    div = zeros_in_disc(f, 100.0)
    expect = [2j * math.pi * k for k in range(-15, 16)]
    assert div.total() == 31 and len(div.points) == 31
    hits = [min(range(31), key=lambda i: abs(z - expect[i]))
            for z, _ in div.points]
    assert sorted(hits) == list(range(31))
    for (z, m), i in zip(div.points, hits):
        assert m == 1 and abs(z - expect[i]) < 1e-12


def test_moments_residuals_of_z_exp_z_minus_one():
    f = AF.exppoly({GR(0): P(-1), GR(1): P(0, 1)})  # z e^z - 1
    div = zeros_in_disc(f, 10.0)
    count, _ = winding_circle(f, 10.0)
    assert div.total() == count
    assert len(div.points) == count
    for z, m in div.points:
        assert m == 1 and abs(f.eval_complex(z)) <= 1e-12


def test_moment_location_cost(monkeypatch):
    # Each circle walk evaluates f and f' once per doubling level on one
    # array; the moment circle and the 13 small circles settle within
    # three levels each here.  The outer count is the moment walk's own,
    # so the outer circle is not walked again.  Point evaluations are
    # Newton polishing only: at most 60 per zero.
    calls = {"array": 0, "point": 0}
    plain = AF.eval_scaled
    walks = []
    winding = analytic.winding_circle

    def counted(self, z):
        calls["array" if isinstance(z, np.ndarray) else "point"] += 1
        return plain(self, z)

    def recorded(f, t, centre=0j):
        walks.append(t)
        return winding(f, t, centre)

    monkeypatch.setattr(AF, "eval_scaled", counted)
    monkeypatch.setattr(analytic, "winding_circle", recorded)
    div = zeros_in_disc(exp_minus(2), 40.0)
    assert len(div.points) == 13 and div.total() == 13
    assert calls["array"] <= 2 * 3 * (1 + 13)
    assert calls["point"] <= 60 * 13
    assert len(walks) == 13 and max(walks) <= 1e-4


@pytest.mark.parametrize("m", [4, 5])
def test_moments_zeros_of_multiplicity_four_and_five(m):
    # the small circle grows with m so that |f| ~ rho^m clears the
    # cancellation noise of (e^z - 1)^m
    for t, ks in ((1.0, [0]), (8.0, [-1, 0, 1])):
        div = zeros_in_disc(exp_minus(1) ** m, t)
        assert [mult for _, mult in div.points] == [m] * len(ks)
        for z, _ in div.points:
            assert min(abs(z - 2j * math.pi * k) for k in ks) < 1e-10


def test_newton_stops_at_a_stalled_step(monkeypatch):
    # Newton on a double zero stalls at the noise floor; polishing stops
    # at the first step that does not shrink instead of running on
    points = []
    plain = AF.eval_scaled

    def counted(self, z):
        if not isinstance(z, np.ndarray):
            points.append(z)
        return plain(self, z)

    monkeypatch.setattr(AF, "eval_scaled", counted)
    div = zeros_in_disc(exp_minus(1) ** 2 * exp_minus(2), 20.0)
    assert sorted(m for _, m in div.points) == [1] * 7 + [2] * 7
    for z, m in div.points:
        c = 0.0 if m == 2 else math.log(2)
        k = round(z.imag / (2 * math.pi))
        assert abs(z - complex(c, 2 * math.pi * k)) < 1e-7
    assert len(points) <= 600


def test_contour_zero_fails_certification():
    # No trapezoid ladder resolves a circle through a zero.
    from smtlab.errors import CertificationError
    f = fn_poly(-1, 1)  # z - 1, zero exactly on |z| = 1
    with pytest.raises(CertificationError):
        zeros_in_disc(f, 1.0)


def test_contour_zero_fails_before_any_node_walk(monkeypatch):
    # the located zero on |z| = 1 refuses the disc with no node array
    # evaluated; a winding whose first level meets f = 0 stops there,
    # since every later level holds that node too
    from smtlab.errors import CertificationError
    arrays = []
    plain = AF.eval_scaled

    def counted(self, z):
        if isinstance(z, np.ndarray):
            arrays.append(len(z))
        return plain(self, z)

    monkeypatch.setattr(AF, "eval_scaled", counted)
    f = fn_poly(-1, 1)  # z - 1
    with pytest.raises(CertificationError, match="contour"):
        zeros_in_disc(f, 1.0)
    assert arrays == []
    with pytest.raises(CertificationError):
        winding_circle(f, 1.0)   # the node z = 1 is exact
    assert arrays == [64]


# -- curves ----------------------------------------------------------------------

def test_curve_validation():
    with pytest.raises(DegenerateInputError):
        Curve((fn_poly(1),))
    with pytest.raises(DegenerateInputError):
        Curve((fn_poly(), fn_poly()))


def test_curve_log_norm():
    c = Curve((fn_poly(1), fn_poly(0, 1)))
    r = 10.0
    want = 0.5 * math.log(1 + r * r)
    got = c.log_norm(r + 0j)
    assert abs(got - want) < 1e-12


def test_curve_log_norm_on_nodes():
    c = Curve((PLAN_CASES["poly"], PLAN_CASES["exppoly"],
               PLAN_CASES["rational"]))
    z = ring(2.5)
    got = c.log_norm(z)
    for k, point in enumerate(z):
        want = c.log_norm(complex(point))
        assert abs(got[k] - want) <= 1e-12 * max(1.0, abs(want))


def test_zero_polynomial_on_nodes_keeps_shape():
    zero = fn_poly()
    z = ring(2.5)
    w, s = zero.eval_scaled(z)
    assert w.shape == z.shape and not np.any(w) and s == 0.0
    assert np.all(zero.log_abs(z) == -math.inf)
    assert zero.eval_scaled(2.5 + 0j) == (0j, 0.0)


def test_curve_log_norm_with_zero_component():
    c = Curve((fn_poly(1), fn_poly(), fn_poly(0, 1)))  # (1, 0, z)
    line = Curve((fn_poly(1), fn_poly(0, 1)))
    z = ring(2.5)
    got = c.log_norm(z)
    assert got.shape == z.shape
    for k, point in enumerate(z):
        want = c.log_norm(complex(point))
        assert want == line.log_norm(complex(point))
        assert abs(got[k] - want) <= 1e-12 * max(1.0, abs(want))


def test_curve_log_norm_degenerate_node():
    c = Curve((fn_poly(0, 1), fn_poly(0, 0, 1)))  # (z, z^2) vanishes at 0
    with pytest.raises(DegenerateInputError):
        c.log_norm(np.array([1.0, 0.0, 2j], dtype=complex))
    with pytest.raises(DegenerateInputError):
        c.log_norm(0j)


# -- literals ----------------------------------------------------------------------

def test_parse_poly_literal():
    f = parse_function("poly: 1 - 2*z^3")
    assert f == fn_poly(1, 0, 0, -2)


def test_parse_rational_literal():
    f = parse_function("rational: (1)/(1-z)")
    assert f.den == P(-1, 1)
    assert f == AF.rational(P(1), P(1, -1))


def test_parse_exppoly_literal():
    f = parse_function("exppoly: (1)*exp(0) + (z)*exp(2*z)")
    assert f == AF.exppoly({GR(0): P(1), GR(2): P(0, 1)})


def test_parse_exppoly_negative_lambda():
    f = parse_function("exppoly: (1)*exp(-z) - (2)*exp(z)")
    assert f == AF.exppoly({GR(-1): P(1), GR(1): P(-2)})


@pytest.mark.parametrize("text, coeffs", [
    ("poly: 1 - - z", (1, 1)),
    ("poly: - - z", (0, 1)),
    ("poly: 1 - + z", (1, -1)),
    ("poly: 1 + - z", (1, -1)),
])
def test_parse_double_signs(text, coeffs):
    # the same splitter as the polynomial grammar: "- -" reads "+"
    assert parse_function(text) == fn_poly(*coeffs)


def test_parse_exppoly_double_sign():
    f = parse_function("exppoly: (1)*exp(0) - - (2)*exp(z)")
    assert f == AF.exppoly({GR(0): P(1), GR(1): P(2)})


def test_parse_constant_literal():
    f = parse_function("3/2")
    assert f == fn_poly(Fraction(3, 2))


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_function("poly: 1 + q^2")
    with pytest.raises(ValueError):
        parse_function("rational: 1/(1-z)")


def test_eval_agreement_across_paths():
    rng = random.Random(33)
    f = parse_function("exppoly: (1+z)*exp(0) + (z^2)*exp((1+i)*z)")
    for _ in range(10):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        direct = ((1 + z) + z * z * cmath.exp((1 + 1j) * z))
        assert abs(f.eval_complex(z) - direct) < 1e-10 * max(1, abs(direct))
