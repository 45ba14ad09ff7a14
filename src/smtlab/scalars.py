"""Exact arithmetic over the Gaussian rationals Q(i).

Every coefficient that enters a rank, dimension or weight computation in this
package is a GaussianRational, so those computations are exact by
construction.  Floating point enters only through explicit calls to
:meth:`GaussianRational.to_complex`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


class GaussianRational:
    """A number a + b*i with a, b exact rationals."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

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

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    # -- ring operations ------------------------------------------------
    # Each operation takes a shortcut when an imaginary part is zero;
    # Fraction arithmetic is exact, so the values are those of the
    # general formulas.

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        if not other.im:
            return _make(self.re + other.re, self.im)
        return _make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.re, -self.im)

    def __sub__(self, other):
        other = GaussianRational.coerce(other)
        if not other.im:
            return _make(self.re - other.re, self.im)
        return _make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        other = GaussianRational.coerce(other)
        if not other.im:
            if not self.im:
                return _make(self.re * other.re, self.im)
            return _make(self.re * other.re, self.im * other.re)
        if not self.im:
            return _make(self.re * other.re, self.re * other.im)
        return _make(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        if not other.im:
            if not other.re:
                raise ZeroDivisionError("division by zero GaussianRational")
            if not self.im:
                return _make(self.re / other.re, self.im)
            return _make(self.re / other.re, self.im / other.re)
        n = other.norm_sq()
        return _make(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

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

    def norm_sq(self) -> Fraction:
        """|a+bi|^2 = a^2 + b^2, exact."""
        return self.re * self.re + self.im * self.im

    # -- comparisons and hashing ----------------------------------------

    def __eq__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    # -- conversions -----------------------------------------------------

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i" if self.im != 1 else "i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "i" if mag == 1 else f"{mag}i"
        return f"{self.re}{sign}{istr}"


_new = object.__new__
_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__


def _make(re: Fraction, im: Fraction) -> GaussianRational:
    """Wrap two Fractions as they are: arithmetic results need no
    re-coercion."""
    z = _new(GaussianRational)
    _set_re(z, re)
    _set_im(z, im)
    return z


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)

# literal grammar: "3/2", "-1/3+2i", "i", "2-i", "3i"
_GAUSS_RE = re.compile(
    r"^\s*(?P<first>[+-]?\s*(?:\d+(?:/\d+)?)?\s*i?|[+-]?\s*i)"
    r"\s*(?P<second>[+-]\s*(?:\d+(?:/\d+)?)?\s*i?)?\s*$"
)


def _parse_part(text: str) -> tuple[Fraction, bool]:
    """Return (value, is_imaginary) for one signed literal chunk."""
    text = text.replace(" ", "")
    imag = text.endswith("i")
    if imag:
        text = text[:-1]
    if text in ("", "+"):
        value = Fraction(1)
    elif text == "-":
        value = Fraction(-1)
    else:
        value = Fraction(text)
    return value, imag


def parse_gaussian(text: str) -> GaussianRational:
    """Parse literals like "3/2", "-i", "1/2+3i" into a GaussianRational."""
    m = _GAUSS_RE.match(text)
    if not m or not m.group("first").strip():
        raise ValueError(f"malformed Gaussian rational literal: {text!r}")
    re_part = Fraction(0)
    im_part = Fraction(0)
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
