"""Exact arithmetic over the Gaussian rationals Q(i).

Every coefficient that enters a rank, dimension or weight computation in this
package is a GaussianRational, so those computations are exact by
construction.  Floating point enters only through explicit calls to
:meth:`GaussianRational.to_complex`.

Representation: a GaussianRational holds (a + b*i)/d as three Python ints
in normal form, d > 0 and gcd(a, b, d) = 1 (zero is (0, 0, 1)).  The
normal form is unique, so equality compares the three ints, and each
arithmetic result is brought to it by one three-argument gcd.  The real
and imaginary parts are read as Fractions (``re``, ``im``).  A real value
hashes as the int or Fraction it equals, any other value as the pair
(re, im), so equal numbers hash equal across the three types.

Parts are ints, Fractions or rational literals; a float is refused, as
by ``coerce`` and the operators, so no binary float enters exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Optional, Union

RationalLike = Union[int, Fraction]


class GaussianRational:
    """A number (a + b*i)/d with a, b, d ints, d > 0, gcd(a, b, d) = 1."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            if isinstance(re, float) or isinstance(im, float):
                raise TypeError("GaussianRational parts must be exact, "
                                "not float")
            # over the lcm of the two reduced denominators the triple is
            # already in normal form
            re, im = Fraction(re), Fraction(im)
            q, s = re.denominator, im.denominator
            d = q * s // gcd(q, s)
            a, b = re.numerator * (d // q), im.numerator * (d // s)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")

    # -- parts ---------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._a and not self._b

    # -- ring operations ------------------------------------------------
    # Zero imaginary parts and equal denominators take shortcuts; the
    # normal form makes the result the same as the general formula's.

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _make(self._a + other._a, self._b + other._b, d1)
        return _make(self._a * d2 + other._a * d1,
                     self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _make(self._a - other._a, self._b - other._b, d1)
        return _make(self._a * d2 - other._a * d1,
                     self._b * d2 - other._b * d1, d1 * d2)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        d = self._d * other._d
        if not b2:
            return _make(a1 * a2, b1 * a2, d)
        if not b1:
            return _make(a1 * a2, a1 * b2, d)
        return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        a1, b1, a2, b2, d2 = self._a, self._b, other._a, other._b, other._d
        if not b2:
            if not a2:
                raise ZeroDivisionError("division by zero GaussianRational")
            if a2 < 0:
                a2, d2 = -a2, -d2
            return _make(a1 * d2, b1 * d2, self._d * a2)
        return _make((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                     self._d * (a2 * a2 + b2 * b2))

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return GaussianRational(1) / self ** (-k)
        result = GaussianRational(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparisons and hashing ----------------------------------------

    def __eq__(self, other):
        if type(other) is GaussianRational:
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (not self._b and self._d == other.denominator
                    and self._a == other.numerator)
        return NotImplemented

    def __hash__(self):
        if not self._b:    # as the int or Fraction this value equals
            return hash(self._a if self._d == 1 else self.re)
        if self._d == 1:   # hash(Fraction(n)) == hash(n)
            return hash((self._a, self._b))
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    # -- conversions -----------------------------------------------------

    def residue(self, p: int, root: int) -> Optional[int]:
        """The image in F_p under i -> root (root^2 = -1 mod p, p prime),
        or None when p divides the denominator."""
        if self._d % p == 0:
            return None
        return (self._a + self._b * root) * pow(self._d, -1, p) % p

    def to_complex(self) -> complex:
        # int / int rounds the exact quotient once, as float(Fraction) does
        return complex(self._a / self._d) + 1j * complex(self._b / self._d)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re_, im = self.re, self.im
        if not im:
            return str(re_)
        if not re_:
            return f"{im}i" if im != 1 else "i"
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        istr = "i" if mag == 1 else f"{mag}i"
        return f"{re_}{sign}{istr}"


_new = object.__new__
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__


def _raw(a: int, b: int, d: int) -> GaussianRational:
    """Wrap a triple already in normal form."""
    z = _new(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _make(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for d > 0, brought to normal form."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _raw(a, b, d)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)

# A prime q = 1 (mod 4), below 2^21 so that the deferred elimination of a
# Macaulay matrix keeps every entry below 2^52 in int64
# (:func:`smtlab.position_geometry._full_rank`), and a square root of -1
# modulo it: Z[i] maps onto F_q by i -> MOD_I, and so does every Gaussian
# rational whose denominator q does not divide
# (:meth:`GaussianRational.residue`).
MOD_PRIME = 2097133
MOD_I = 498487

# literal grammar: "3/2", "-1/3+2i", "i", "2-i", "3i"; a plain integer
# ("-4") takes the _INT_RE shortcut
_INT_RE = re.compile(r"[+-]?\d+")
_GAUSS_RE = re.compile(
    r"^\s*(?P<first>[+-]?\s*(?:\d+(?:/\d+)?)?\s*i?|[+-]?\s*i)"
    r"\s*(?P<second>[+-]\s*(?:\d+(?:/\d+)?)?\s*i?)?\s*$"
)


def parse_fraction(literal) -> Fraction:
    """Fraction(literal); a zero denominator is a ValueError naming it."""
    try:
        return Fraction(literal)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {literal!r}") from None


def _parse_part(text: str) -> tuple[RationalLike, bool]:
    """Return (value, is_imaginary) for one signed literal chunk; an int
    unless the chunk is a fraction."""
    text = text.replace(" ", "")
    imag = text.endswith("i")
    if imag:
        text = text[:-1]
    if text in ("", "+"):
        value: RationalLike = 1
    elif text == "-":
        value = -1
    elif "/" in text:
        value = parse_fraction(text)
    else:
        value = int(text)
    return value, imag


def parse_gaussian(text: str) -> GaussianRational:
    """Parse literals like "3/2", "-i", "1/2+3i" into a GaussianRational."""
    if _INT_RE.fullmatch(text):
        return GaussianRational(int(text))
    m = _GAUSS_RE.match(text)
    if not m or not m.group("first").strip():
        raise ValueError(f"malformed Gaussian rational literal: {text!r}")
    re_part: RationalLike = 0
    im_part: RationalLike = 0
    seen_imag = False
    seen_real = False
    for chunk in (m.group("first"), m.group("second")):
        if chunk is None:
            continue
        value, imag = _parse_part(chunk)
        if imag:
            if seen_imag:
                raise ValueError(f"two imaginary parts in {text!r}")
            im_part += value
            seen_imag = True
        else:
            if seen_real:
                raise ValueError(f"two real parts in {text!r}")
            re_part += value
            seen_real = True
    return GaussianRational(re_part, im_part)
