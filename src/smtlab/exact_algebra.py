"""Homogeneous polynomials over Q(i) and their monomial orders.

A monomial order is a sort key on exponent tuples: ascending keys give
ascending monomials.  The graded reverse lexicographic order
(:func:`grevlex_key`) is the default; every routine that needs "the"
leading term, a deterministic tiebreak, or a canonical listing of
monomials uses it unless handed another key.  :func:`weighted_key` builds
the c-weighted order whose initial ideal carries the Hilbert weight.

Input is validated once, at the boundary: ``Monomial(...)``,
``HomogPoly(...)`` and :func:`parse_homog_poly` check every exponent, arity,
degree and coefficient.  Results that are clean by construction (products,
quotients and lcms of monomials, monic forms, negations and the Groebner
kernel's remainders) skip those checks.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import ValidationError
from .scalars import (ONE, ZERO, GaussianRational, parse_fraction,
                      parse_gaussian)

_tuple_new = tuple.__new__


class Monomial(tuple):
    """Exponent tuple of a monomial; immutable and hashable."""

    def __new__(cls, exponents: Iterable[int]):
        exps = tuple(int(e) for e in exponents)
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in monomial {exps}")
        return _tuple_new(cls, exps)

    @property
    def degree(self) -> int:
        return sum(self)

    def mul(self, other: "Monomial") -> "Monomial":
        return _tuple_new(Monomial, map(operator.add, self, other))

    def divides(self, other: "Monomial") -> bool:
        return all(map(operator.le, self, other))

    def quotient(self, other: "Monomial") -> "Monomial":
        """self / other; caller must ensure other divides self."""
        return _tuple_new(Monomial, map(operator.sub, self, other))

    def lcm(self, other: "Monomial") -> "Monomial":
        return _tuple_new(Monomial, map(max, self, other))

    def __str__(self):
        parts = []
        for i, e in enumerate(self):
            if e == 1:
                parts.append(f"x{i}")
            elif e > 1:
                parts.append(f"x{i}^{e}")
        return "*".join(parts) if parts else "1"


def grevlex_key(m: Sequence[int]):
    """Sort key realizing grevlex: ascending keys give ascending monomials.

    a > b in grevlex iff deg a > deg b, or degrees tie and the rightmost
    nonzero entry of a-b is negative; the latter is a lexicographic
    comparison of the negated reversed exponents.
    """
    return (sum(m), tuple(-e for e in reversed(m)))


def weighted_key(c: WeightVector) -> Callable:
    """Sort key for the c-weighted order used by the Hilbert weight.

    Monomials compare by degree, then a larger c-weight is *smaller*, then
    by the reversed exponent tuple (the reverse of grevlex within a degree).
    Inside one degree this is a term order, and its standard monomials are
    exactly the greedy choice "largest c-weight first, grevlex-largest on
    ties".  Keys compare c's integer numerators over its common
    denominator; a positive rescaling of c gives the same order.
    """
    w = c._scaled

    def key(m: Sequence[int]):
        return (sum(m), -sum(a * b for a, b in zip(w, m)), tuple(reversed(m)))

    return key


def monomials_of_degree(num_vars: int, degree: int) -> List[Monomial]:
    """All degree-u monomials in num_vars variables, grevlex-descending."""
    if num_vars < 1:
        raise ValueError("need at least one variable")
    out: List[Monomial] = []

    def rec(prefix, remaining, slot):
        if slot == num_vars - 1:
            out.append(Monomial(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, slot + 1)

    rec([], degree, 0)
    out.sort(key=grevlex_key, reverse=True)
    return out


class HomogPoly:
    """A homogeneous polynomial: sparse map from Monomial to GaussianRational.

    The zero polynomial keeps its declared degree so the grading survives
    arithmetic.  Zero coefficients are never stored.
    """

    __slots__ = ("num_vars", "degree", "terms")

    def __init__(self, num_vars: int, degree: int,
                 terms: Dict[Monomial, GaussianRational]):
        clean: Dict[Monomial, GaussianRational] = {}
        for mono, coeff in terms.items():
            if not isinstance(mono, Monomial):
                mono = Monomial(mono)
            if len(mono) != num_vars:
                raise ValueError(f"monomial {mono} has wrong arity")
            if mono.degree != degree:
                raise ValueError(
                    f"monomial {mono} has degree {mono.degree}, expected {degree}")
            coeff = GaussianRational.coerce(coeff)
            if not coeff.is_zero():
                clean[mono] = coeff
        self.num_vars = num_vars
        self.degree = degree
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(num_vars: int, degree: int) -> "HomogPoly":
        return HomogPoly(num_vars, degree, {})

    @staticmethod
    def variable(num_vars: int, index: int) -> "HomogPoly":
        exps = [0] * num_vars
        exps[index] = 1
        return HomogPoly(num_vars, 1, {Monomial(exps): GaussianRational(1)})

    @staticmethod
    def monomial(num_vars: int, mono: Monomial, coeff=1) -> "HomogPoly":
        mono = Monomial(mono)
        return HomogPoly(num_vars, mono.degree,
                         {mono: GaussianRational.coerce(coeff)})

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def leading_monomial(self, key: Callable = grevlex_key) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=key)

    def leading_coefficient(self,
                            key: Callable = grevlex_key) -> GaussianRational:
        return self.terms[self.leading_monomial(key)]

    def monic(self, key: Callable = grevlex_key) -> "HomogPoly":
        if self.is_zero():
            return self
        return self.monic_at(self.leading_monomial(key))

    def monic_at(self, lead: Monomial) -> "HomogPoly":
        """This polynomial divided by its coefficient at lead, its leading
        monomial in the order at hand."""
        lc = self.terms[lead]
        if lc == ONE:
            return self
        return _homog(self.num_vars, self.degree,
                      {m: c / lc for m, c in self.terms.items()})

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "HomogPoly"):
        if self.num_vars != other.num_vars:
            raise ValueError("mixed variable counts")
        if self.degree != other.degree:
            raise ValueError(
                f"cannot add homogeneous degrees {self.degree} and {other.degree}")

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        self._check_compatible(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono)
            coeff = coeff if acc is None else acc + coeff
            if coeff.is_zero():
                terms.pop(mono, None)
            else:
                terms[mono] = coeff
        return HomogPoly(self.num_vars, self.degree, terms)

    def __neg__(self) -> "HomogPoly":
        return _homog(self.num_vars, self.degree,
                      {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self + (-other)

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        if self.num_vars != other.num_vars:
            raise ValueError("mixed variable counts")
        terms: Dict[Monomial, GaussianRational] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = m1.mul(m2)
                prod = c1 * c2
                acc = terms.get(mono)
                prod = prod if acc is None else acc + prod
                if prod.is_zero():
                    terms.pop(mono, None)
                else:
                    terms[mono] = prod
        return HomogPoly(self.num_vars, self.degree + other.degree, terms)

    def __pow__(self, k: int) -> "HomogPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = HomogPoly(self.num_vars, 0,
                           {Monomial([0] * self.num_vars): GaussianRational(1)})
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, HomogPoly):
            return NotImplemented
        return (self.num_vars == other.num_vars and self.degree == other.degree
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.num_vars, self.degree, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=grevlex_key, reverse=True):
            coeff = self.terms[mono]
            body = str(mono)
            if body == "1":
                parts.append(str(coeff))
            elif coeff == GaussianRational(1):
                parts.append(body)
            else:
                parts.append(f"({coeff})*{body}")
        return " + ".join(parts)

    __repr__ = __str__


def _homog(num_vars: int, degree: int,
           terms: Dict[Monomial, GaussianRational]) -> HomogPoly:
    """HomogPoly on clean terms: Monomial keys of this arity and degree,
    non-zero GaussianRational values."""
    p = object.__new__(HomogPoly)
    p.num_vars, p.degree, p.terms = num_vars, degree, terms
    return p


class Ideal:
    """Homogeneous ideal given by generators in a common ambient ring."""

    __slots__ = ("num_vars", "generators")

    def __init__(self, num_vars: int, generators: Iterable[HomogPoly]):
        gens = [g for g in generators if not g.is_zero()]
        for g in gens:
            if g.num_vars != num_vars:
                raise ValidationError(
                    f"generator in {g.num_vars} variables, ambient has {num_vars}")
        self.num_vars = num_vars
        self.generators = tuple(gens)

    def __repr__(self) -> str:
        inner = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({self.num_vars}; {inner})"


class WeightVector:
    """Non-negative rational weights, one per variable.

    The entries are also kept as integer numerators over their least
    common denominator, so sums and dot products add integers and build
    one Fraction.
    """

    __slots__ = ("entries", "_scaled", "_scale")

    def __init__(self, entries: Iterable):
        vals = tuple(Fraction(e) for e in entries)
        if any(v < 0 for v in vals):
            raise ValueError("weight entries must be non-negative")
        self.entries = vals
        self._scale = math.lcm(*(v.denominator for v in vals))
        self._scaled = tuple(v.numerator * (self._scale // v.denominator)
                             for v in vals)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def dot(self, mono: Sequence[int]) -> Fraction:
        return Fraction(sum(e * w for e, w in zip(mono, self._scaled)),
                        self._scale)

    def total(self) -> Fraction:
        return Fraction(sum(self._scaled), self._scale)

    def max_entry(self) -> Fraction:
        return max(self.entries)

    def scaled(self) -> Tuple[Tuple[int, ...], int]:
        """(numerators, denominator): the entries as integers over their
        least common denominator."""
        return self._scaled, self._scale

    def __eq__(self, other):
        if not isinstance(other, WeightVector):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"WeightVector({list(self.entries)!r})"


def rank_of_vectors(vectors: Iterable[Dict],
                    keyfunc: Callable = grevlex_key) -> int:
    """Rank over Q(i) of sparse dict vectors (key -> coefficient).

    Incremental Gaussian elimination: each vector is reduced by the rows
    kept so far, pivot first, where a row's pivot is its largest key under
    ``keyfunc`` and carries coefficient 1; a nonzero residual is kept as a
    new row.
    """
    rows: Dict[object, Dict[object, GaussianRational]] = {}
    for vec in vectors:
        v = {k: c for k, c in ((k, GaussianRational.coerce(c))
                               for k, c in vec.items()) if not c.is_zero()}
        while v:
            pivot = max(v, key=keyfunc)
            row = rows.get(pivot)
            if row is None:
                lead = v[pivot]
                rows[pivot] = {k: c / lead for k, c in v.items()}
                break
            factor = v[pivot]
            for k, c in row.items():
                acc = v.get(k, ZERO) - factor * c
                if acc.is_zero():
                    v.pop(k, None)
                else:
                    v[k] = acc
    return len(rows)


# ---------------------------------------------------------------------------
# polynomial literals
# ---------------------------------------------------------------------------

_VAR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_NUM_RE = re.compile(r"^(\d+(?:/\d+)?)(i?)$")


_SPLIT_RE = re.compile(r"[()+-]")


def _split_terms(text: str) -> List[Tuple[int, str]]:
    """Split on top-level +/- into (sign, chunk) pairs.

    A sign with no term before it negates the sign in force, so
    "x0 - - x1" reads x0 + x1; a sign right after "*" or "^" belongs to
    the factor.  Shared by the polynomial and function-literal grammars.
    Only parentheses and signs are visited; the chunk in progress is
    text[start:i].
    """
    out = []
    depth = 0
    sign = 1
    start = 0
    for m in _SPLIT_RE.finditer(text):
        ch, i = m.group(), m.start()
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        elif not depth:
            current = text[start:i]
            if not current.strip():
                if ch == "-":
                    sign = -sign
                start = i + 1
            elif current[-1] not in "*^(":
                out.append((sign, current.strip()))
                sign = 1 if ch == "+" else -1
                start = i + 1
    if depth:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    chunk = text[start:].strip()
    if chunk:
        out.append((sign, chunk))
    return out


def _parse_term(chunk: str, num_vars: int):
    """One product of factors -> (Monomial, GaussianRational)."""
    coeff = ONE
    exps = [0] * num_vars
    for factor in chunk.split("*"):
        factor = factor.strip()
        if not factor:
            raise ValueError(f"empty factor in term {chunk!r}")
        m = _VAR_RE.match(factor)
        if m:
            idx = int(m.group(1))
            if idx >= num_vars:
                raise ValueError(
                    f"variable x{idx} out of range for {num_vars} variables")
            exps[idx] += int(m.group(2) or 1)
            continue
        if factor.startswith("(") and factor.endswith(")"):
            value = parse_gaussian(factor[1:-1])
        elif factor == "i":
            value = GaussianRational(0, 1)
        else:
            m = _NUM_RE.match(factor)
            if not m:
                raise ValueError(f"cannot parse factor {factor!r}")
            value = GaussianRational(parse_fraction(m.group(1)))
            if m.group(2):
                value = value * GaussianRational(0, 1)
        coeff = value if coeff is ONE else coeff * value
    return Monomial(exps), coeff


def parse_homog_poly(text: str, num_vars: int,
                     degree: Optional[int] = None) -> HomogPoly:
    """Parse literals like "3/2*x0^2*x1 - i*x2^3" into a HomogPoly.

    All terms must share one total degree; pass ``degree`` to fix the
    grading of an explicit zero polynomial ("0").
    """
    chunks = _split_terms(text)
    if not chunks:
        raise ValueError("empty polynomial literal")
    terms: Dict[Monomial, GaussianRational] = {}
    seen_degree = None
    for sign, chunk in chunks:
        mono, coeff = _parse_term(chunk, num_vars)
        if sign < 0:
            coeff = -coeff
        if coeff.is_zero():
            continue
        if seen_degree is None:
            seen_degree = mono.degree
        elif mono.degree != seen_degree:
            raise ValueError(
                f"literal {text!r} is not homogeneous: "
                f"degrees {seen_degree} and {mono.degree}")
        acc = terms.get(mono)
        coeff = coeff if acc is None else acc + coeff
        if coeff.is_zero():
            terms.pop(mono, None)
        else:
            terms[mono] = coeff
    if seen_degree is None:
        if degree is None:
            raise ValueError(f"cannot infer degree of zero literal {text!r}")
        seen_degree = degree
    if degree is not None and degree != seen_degree:
        raise ValueError(f"literal degree {seen_degree} != declared {degree}")
    return HomogPoly(num_vars, seen_degree, terms)
