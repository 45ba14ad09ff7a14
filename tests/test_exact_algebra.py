"""Exact scalar and homogeneous-polynomial layer."""

import math
import random
from fractions import Fraction

import pytest

from smtlab.scalars import GaussianRational, parse_gaussian
from smtlab.exact_algebra import (
    HomogPoly,
    Monomial,
    WeightVector,
    grevlex_key,
    monomials_of_degree,
    parse_homog_poly,
    rank_of_vectors,
)

GR = GaussianRational


def rand_gauss(rng, span=6):
    return GR(Fraction(rng.randint(-span, span), rng.randint(1, 4)),
              Fraction(rng.randint(-span, span), rng.randint(1, 4)))


def rand_poly(rng, num_vars, degree):
    monos = monomials_of_degree(num_vars, degree)
    terms = {m: rand_gauss(rng) for m in monos if rng.random() < 0.6}
    return HomogPoly(num_vars, degree, terms)


# -- scalars ----------------------------------------------------------------

def test_gaussian_division_frozen():
    # (1+2i)/(3-i) = (1+7i)/10, worked by hand
    q = GR(1, 2) / GR(3, -1)
    assert q == GR(Fraction(1, 10), Fraction(7, 10))


def test_gaussian_negative_power():
    # (1+i)^-2 = 1/(2i) = -i/2
    assert GR(1, 1) ** -2 == GR(0, Fraction(-1, 2))


def test_gaussian_field_axioms_random():
    rng = random.Random(7)
    for _ in range(50):
        a, b, c = (rand_gauss(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if not b.is_zero():
            assert (a / b) * b == a


def test_gaussian_shortcuts_match_general_formulas():
    # products, quotients, sums and differences shortcut zero imaginary
    # parts; the general formulas are the reference
    rng = random.Random(13)

    def check(got, re, im):
        want = GR(re, im)
        assert (got.re, got.im) == (re, im)
        assert type(got.re) is Fraction and type(got.im) is Fraction
        assert got == want and hash(got) == hash(want)

    for _ in range(300):
        a, b = rand_gauss(rng), rand_gauss(rng)
        if rng.random() < 0.5:
            a = GR(a.re)
        if rng.random() < 0.5:
            b = GR(b.re)
        check(a * b, a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)
        check(a + b, a.re + b.re, a.im + b.im)
        check(a - b, a.re - b.re, a.im - b.im)
        n = b.re * b.re + b.im * b.im
        if n:
            check(a / b, (a.re * b.re + a.im * b.im) / n,
                  (a.im * b.re - a.re * b.im) / n)
    # a real, a purely imaginary and a zero divisor
    a = GR(Fraction(3, 4), Fraction(-5, 7))
    check(a / GR(Fraction(-2, 3)), Fraction(-9, 8), Fraction(15, 14))
    check(a / GR(0, 2), Fraction(-5, 14), Fraction(-3, 8))
    check(GR(5) / GR(0, 2), Fraction(0), Fraction(-5, 2))
    for zero in (GR(0), 0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            a / zero
        with pytest.raises(ZeroDivisionError):
            GR(1) / zero


def test_gaussian_immutable():
    a = GR(1, 2)
    with pytest.raises(AttributeError):
        a.re = Fraction(5)
    for name in ("_a", "_b", "_d", "im", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
    assert a == GR(1, 2)


class _PairRef:
    """Reference Gaussian rational: two Fractions and the textbook
    formulas."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return _PairRef(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return _PairRef(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return _PairRef(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        return _PairRef((self.re * o.re + self.im * o.im) / n,
                        (self.im * o.re - self.re * o.im) / n)

    def __pow__(self, k):
        out = _PairRef(1)
        for _ in range(abs(k)):
            out = out * self
        return _PairRef(1) / out if k < 0 else out

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i" if self.im != 1 else "i"
        mag = abs(self.im)
        return (f"{self.re}{'+' if self.im > 0 else '-'}"
                f"{'i' if mag == 1 else f'{mag}i'}")


def _rand_rational(rng, big):
    bits = rng.choice((3, 20, 70)) if big else 3
    num = rng.randint(-2 ** bits, 2 ** bits)
    den = rng.randint(1, 2 ** bits) * rng.choice((1, 1, 2, 3, 6))
    return Fraction(num, den) if rng.random() < 0.7 else Fraction(num)


def _assert_matches(got, ref):
    assert isinstance(got, GR)
    a, b, d = got._a, got._b, got._d
    assert all(type(x) is int for x in (a, b, d))
    assert d > 0 and math.gcd(a, b, d) == 1          # the normal form
    assert (got.re, got.im) == (ref.re, ref.im)
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert hash(got) == (hash((ref.re, ref.im)) if ref.im else hash(ref.re))
    assert str(got) == str(ref)
    assert repr(got) == f"GaussianRational({ref.re!r}, {ref.im!r})"
    want = complex(ref.re) + 1j * complex(ref.im)
    assert repr(got.to_complex()) == repr(want)      # bit for bit, signs too


def test_gaussian_matches_fraction_pair_reference():
    rng = random.Random(2024)
    for trial in range(600):
        big = trial % 2 == 1
        x, y = (_PairRef(_rand_rational(rng, big),
                         _rand_rational(rng, big) if rng.random() < 0.6
                         else 0) for _ in range(2))
        a, b = GR(x.re, x.im), GR(y.re, y.im)
        _assert_matches(a, x)
        _assert_matches(a + b, x + y)
        _assert_matches(a - b, x - y)
        _assert_matches(a * b, x * y)
        _assert_matches(-a, _PairRef(-x.re, -x.im))
        k = rng.randint(-4, 4)
        if b:
            _assert_matches(a / b, x / y)
        if a or k >= 0:
            _assert_matches(a ** k, x ** k)
        # int and Fraction operands, on either side
        n, q = rng.randint(-50, 50), _rand_rational(rng, big)
        for other in (n, q):
            o = _PairRef(other)
            _assert_matches(a + other, x + o)
            _assert_matches(other + a, o + x)
            _assert_matches(other - a, o - x)
            _assert_matches(a * other, x * o)
            if other:
                _assert_matches(a / other, x / o)
            if a:
                _assert_matches(other / a, o / x)
        # == against ints and Fractions, with the hash of the real value
        real = GR(x.re)
        assert real == x.re and hash(real) == hash(x.re)
        assert GR(n) == n and GR(n) == Fraction(n)
        assert hash(GR(n)) == hash(Fraction(n)) == hash(n)
        assert (a == x.re) == (not x.im)
        assert (a != b) == ((x.re, x.im) != (y.re, y.im))
    # tiny and huge parts: underflow to signed zeros, exact rounding
    for re_, im in [(Fraction(-1, 10 ** 400), Fraction(1, 3)),
                    (Fraction(1, 3), Fraction(-1, 10 ** 400)),
                    (Fraction(10 ** 300 + 1, 7), Fraction(-2 ** 1000, 3)),
                    (Fraction(0), Fraction(-1, 10 ** 400))]:
        _assert_matches(GR(re_, im), _PairRef(re_, im))


def test_gaussian_errors():
    a = GR(Fraction(1, 2), 3)
    for zero in (GR(0), 0, Fraction(0), GR(Fraction(0, 5), 0)):
        with pytest.raises(ZeroDivisionError):
            a / zero
    with pytest.raises(ZeroDivisionError):
        1 / GR(0)
    with pytest.raises(ZeroDivisionError):
        GR(0) ** -1
    with pytest.raises(TypeError):
        GR.coerce(1.5)
    with pytest.raises(TypeError):
        a + 1.5
    with pytest.raises(TypeError):
        a * 2j
    assert (a == 0.5) is False and a != "1/2+3i"


def test_gaussian_constructor_refuses_floats():
    # the same contract as coerce and the operators
    rng = random.Random(8)
    for _ in range(50):
        x = _rand_rational(rng, True)
        for args in ((float(x),), (x, float(x)), (float(x), x), (0.0, 0)):
            with pytest.raises(TypeError):
                GR(*args)
    assert GR(Fraction(1, 10)) == GR("1/10") == Fraction(1, 10)


def test_gaussian_hash_agrees_with_equality():
    rng = random.Random(9)
    for trial in range(300):
        x = _rand_rational(rng, trial % 2 == 1)
        real = GR(x)
        assert real == x and hash(real) == hash(x)
        assert len({real: "a", x: "b"}) == len({real, x}) == 1
        if x.denominator == 1:
            n = int(x)
            assert hash(GR(n)) == hash(n) and len({GR(n), n}) == 1
        y = _rand_rational(rng, False) or Fraction(1)
        z = GR(x, y)
        same = GR(Fraction(x.numerator * 3, x.denominator * 3), y)
        assert z == same and hash(z) == hash(same) == hash((x, y))


@pytest.mark.parametrize("text,expected", [
    ("3/2", GR(Fraction(3, 2))),
    ("-i", GR(0, -1)),
    ("i", GR(0, 1)),
    ("3i", GR(0, 3)),
    ("1/2+3i", GR(Fraction(1, 2), 3)),
    ("2-i", GR(2, -1)),
    ("-1/3+2i", GR(Fraction(-1, 3), 2)),
])
def test_parse_gaussian(text, expected):
    assert parse_gaussian(text) == expected


@pytest.mark.parametrize("bad", ["", "2+", "i+i", "1+2", "foo"])
def test_parse_gaussian_rejects(bad):
    with pytest.raises(ValueError):
        parse_gaussian(bad)


# -- monomials ---------------------------------------------------------------

def test_monomials_of_degree_two_vars():
    got = monomials_of_degree(2, 2)
    assert got == [Monomial((2, 0)), Monomial((1, 1)), Monomial((0, 2))]


def test_monomials_count_matches_binomial():
    # count C(num_vars-1+u, u); the (4,5) case is C(8,5) = 56
    assert len(monomials_of_degree(4, 5)) == math.comb(8, 5) == 56
    for v in range(1, 6):
        for u in range(0, 7):
            monos = monomials_of_degree(v, u)
            assert len(monos) == math.comb(v - 1 + u, u)
            assert len(set(monos)) == len(monos)
            assert all(m.degree == u for m in monos)


def test_grevlex_order_three_vars_frozen():
    # standard grevlex listing of the degree-2 monomials in 3 variables
    expected = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    got = [tuple(m) for m in monomials_of_degree(3, 2)]
    assert got == expected


def test_grevlex_key_is_total_order():
    monos = monomials_of_degree(3, 4)
    keys = [grevlex_key(m) for m in monos]
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys, reverse=True)


# -- homogeneous polynomials ---------------------------------------------------

def test_parse_homog_poly_frozen():
    p = parse_homog_poly("3/2*x0^2*x1 - i*x2^3", 3)
    assert p.degree == 3
    assert p.terms == {
        Monomial((2, 1, 0)): GR(Fraction(3, 2)),
        Monomial((0, 0, 3)): GR(0, -1),
    }


def test_parse_homog_poly_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        parse_homog_poly("x0^2 + x1", 2)


@pytest.mark.parametrize("text, terms", [
    ("x0 - - x1", {(1, 0): 1, (0, 1): 1}),
    ("- - x1", {(0, 1): 1}),
    ("x0 - + x1", {(1, 0): 1, (0, 1): -1}),
    ("x0 + - x1", {(1, 0): 1, (0, 1): -1}),
])
def test_parse_homog_poly_double_signs(text, terms):
    # a sign with no term before it negates the sign in force
    p = parse_homog_poly(text, 2)
    assert p.terms == {Monomial(m): GR(c) for m, c in terms.items()}


def test_parse_homog_poly_gaussian_factor():
    p = parse_homog_poly("(1+2i)*x0*x1", 2)
    assert p.terms == {Monomial((1, 1)): GR(1, 2)}


def test_parse_roundtrip_random():
    rng = random.Random(11)
    for _ in range(20):
        p = rand_poly(rng, 3, rng.randint(1, 3))
        if p.is_zero():
            continue
        q = parse_homog_poly(str(p).replace(" ", ""), 3)
        assert q == p


def test_ring_axioms_random():
    rng = random.Random(3)
    for _ in range(30):
        a = rand_poly(rng, 3, 2)
        b = rand_poly(rng, 3, 2)
        c = rand_poly(rng, 3, 2)
        assert (a + b) + c == a + (b + c)
        d = rand_poly(rng, 3, 1)
        assert d * (a + b) == d * a + d * b
        assert a * b == b * a
        assert (a * b) * d == a * (b * d)


def test_add_degree_mismatch_raises():
    a = parse_homog_poly("x0", 2)
    b = parse_homog_poly("x0^2", 2)
    with pytest.raises(ValueError):
        a + b


def test_pow_matches_repeated_mul():
    p = parse_homog_poly("x0 + 2*x1", 2)
    assert p ** 3 == p * p * p
    one = p ** 0
    assert one.degree == 0 and not one.is_zero()


def test_leading_monomial_grevlex():
    p = parse_homog_poly("x1^2 + x0*x2", 3)
    # grevlex: x1^2 > x0*x2
    assert p.leading_monomial() == Monomial((0, 2, 0))


# -- weight vectors -----------------------------------------------------------

def test_weight_vector_basics():
    c = WeightVector([1, Fraction(1, 2), 0])
    assert c.dot((2, 1, 0)) == Fraction(5, 2)
    assert c.total() == Fraction(3, 2)
    assert c.max_entry() == 1
    with pytest.raises(ValueError):
        WeightVector([1, -1])


def test_weight_vector_sums_match_fraction_sums():
    # dot and total add integer numerators over one denominator; the
    # Fraction sums are the reference
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 5)
        c = WeightVector([Fraction(rng.randint(0, 9), rng.randint(1, 12))
                          for _ in range(n)])
        mono = [rng.randint(0, 7) for _ in range(n)]
        assert c.dot(mono) == sum((Fraction(e) * w for e, w in
                                   zip(mono, c.entries)), Fraction(0))
        assert c.total() == sum(c.entries, Fraction(0))
        assert type(c.dot(mono)) is Fraction and type(c.total()) is Fraction


# -- exact elimination ----------------------------------------------------------

def test_echelon_rank_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    for _ in range(8):
        rows, cols = rng.randint(2, 5), rng.randint(2, 7)
        data = [[complex(rng.randint(-3, 3), rng.randint(-3, 3))
                 for _ in range(cols)] for _ in range(rows)]
        vecs = []
        for row in data:
            vec = {j: GR(int(z.real), int(z.imag))
                   for j, z in enumerate(row) if z != 0}
            vecs.append(vec)
        got = rank_of_vectors(vecs, keyfunc=lambda k: k)
        mat = sympy.Matrix([[sympy.Integer(int(z.real)) + sympy.I * int(z.imag)
                             for z in row] for row in data])
        assert got == mat.rank()


def test_echelon_reduce_membership():
    def rank(*vecs):
        return rank_of_vectors([{k: GR(c) for k, c in enumerate(v) if c}
                                for v in vecs], keyfunc=lambda k: k)
    # (1,2,0) + (0,1,1) = (1,3,1) lies in the span, (0,0,1) does not
    assert rank((1, 2, 0), (0, 1, 1), (1, 3, 1)) == 2
    assert rank((1, 2, 0), (0, 1, 1), (0, 0, 1)) == 3
    assert rank((0, 0, 0), (0, 0, 0)) == 0
