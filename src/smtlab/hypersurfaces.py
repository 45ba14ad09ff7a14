"""Hypersurfaces with function coefficients and their composition with curves.

A hypersurface of degree d in P^N is stored as a sparse map from degree-d
monomials in x_0..x_N to coefficients.  Coefficients are AnalyticFunction
values; a member is "moving" when any coefficient is non-constant.  Fixed
hypersurfaces are the special case of constant coefficients.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from .analytic import AnalyticFunction, _ops, parse_function
from .errors import DegenerateInputError, ValidationError
from .exact_algebra import (
    HomogPoly,
    Monomial,
    grevlex_key,
    parse_homog_poly,
)
from .scalars import GaussianRational


class MovingHypersurface:
    """Degree-d form in x_0..x_N whose coefficients are functions of z."""

    __slots__ = ("num_vars", "degree", "coeffs")

    def __init__(self, num_vars: int, degree: int,
                 coeffs: Dict[Monomial, AnalyticFunction]):
        if num_vars < 2:
            raise ValidationError("need at least two ambient coordinates")
        if degree < 1:
            raise ValidationError("hypersurface degree must be positive")
        clean: Dict[Monomial, AnalyticFunction] = {}
        for mono, fn in coeffs.items():
            if len(mono) != num_vars:
                raise ValidationError(
                    f"monomial {mono} does not have {num_vars} exponents")
            if mono.degree != degree:
                raise ValidationError(
                    f"monomial {mono} has degree {mono.degree}, expected {degree}")
            if not fn.is_zero():
                clean[mono] = fn
        if not clean:
            raise DegenerateInputError("all coefficients vanish identically")
        self.num_vars = num_vars
        self.degree = degree
        self.coeffs = clean

    @staticmethod
    def from_homog(P: HomogPoly) -> "MovingHypersurface":
        coeffs = {m: AnalyticFunction.constant(c) for m, c in P.terms.items()}
        return MovingHypersurface(P.num_vars, P.degree, coeffs)

    @property
    def is_moving(self) -> bool:
        return any(not fn.is_constant() for fn in self.coeffs.values())

    def monomials(self) -> List[Monomial]:
        return sorted(self.coeffs, key=grevlex_key, reverse=True)

    def compose(self, components: Sequence[AnalyticFunction]) -> AnalyticFunction:
        """Q(f) = sum_I a_I(z) f_0^{i_0} ... f_N^{i_N} as one function."""
        if len(components) != self.num_vars:
            raise ValidationError(
                f"curve has {len(components)} components, need {self.num_vars}")
        powers: List[Dict[int, AnalyticFunction]] = [
            {0: AnalyticFunction.constant(GaussianRational(1))}
            for _ in components]

        def comp_power(i: int, e: int) -> AnalyticFunction:
            cache = powers[i]
            if e not in cache:
                cache[e] = components[i] ** e
            return cache[e]

        total: Optional[AnalyticFunction] = None
        for mono in self.monomials():
            term = self.coeffs[mono]
            for i, e in enumerate(mono):
                if e:
                    term = term * comp_power(i, e)
            total = term if total is None else total + term
        assert total is not None
        return total

    def at(self, z: GaussianRational) -> HomogPoly:
        """Exact coefficient snapshot at the point z."""
        terms = {}
        for mono, fn in self.coeffs.items():
            v = fn.eval_exact(z)
            if not v.is_zero():
                terms[mono] = v
        if not terms:
            raise DegenerateInputError(f"every coefficient vanishes at z = {z}")
        return HomogPoly(self.num_vars, self.degree, terms)

    def norm_at(self, z):
        """Euclidean norm of the coefficient vector at z, one point or a
        1-D array of nodes."""
        total = sum(abs(fn.eval_complex(z)) ** 2
                    for fn in self.coeffs.values())
        return _ops(z).sqrt(total)

    def normalize(self) -> "MovingHypersurface":
        """Divide through so the x_0^d coefficient is the constant 1.

        Fails when that coefficient vanishes identically; the underlying
        normalization assumption does not hold for such members and the
        needed coordinate change is out of scope here.
        """
        anchor = Monomial((self.degree,) + (0,) * (self.num_vars - 1))
        lead = self.coeffs.get(anchor)
        if lead is None or lead.is_zero():
            raise DegenerateInputError(
                "coefficient of x0^d vanishes identically; cannot normalize")
        coeffs = {m: fn / lead for m, fn in self.coeffs.items()}
        return MovingHypersurface(self.num_vars, self.degree, coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MovingHypersurface):
            return NotImplemented
        return (self.num_vars == other.num_vars
                and self.degree == other.degree
                and self.coeffs == other.coeffs)

    __hash__ = None

    def __str__(self) -> str:
        bits = []
        for mono in self.monomials():
            bits.append(f"({self.coeffs[mono]})*{mono}")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return (f"MovingHypersurface(num_vars={self.num_vars}, "
                f"degree={self.degree}, {self})")


class HypersurfaceFamily:
    """Ordered family Q_1..Q_q over a common ambient space."""

    __slots__ = ("members",)

    def __init__(self, members: Sequence[MovingHypersurface]):
        members = tuple(members)
        if not members:
            raise ValidationError("family must contain at least one member")
        nv = members[0].num_vars
        for k, m in enumerate(members):
            if m.num_vars != nv:
                raise ValidationError(
                    f"member {k} lives in {m.num_vars} variables, expected {nv}")
        self.members = members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, k: int) -> MovingHypersurface:
        return self.members[k]

    @property
    def num_vars(self) -> int:
        return self.members[0].num_vars

    @property
    def degrees(self) -> Tuple[int, ...]:
        return tuple(m.degree for m in self.members)

    @property
    def common_degree(self) -> int:
        """lcm of the member degrees, the d used after degree equalization."""
        return math.lcm(*self.degrees)

    @property
    def is_moving(self) -> bool:
        return any(m.is_moving for m in self.members)


def _parse_monomial_key(key: str, num_vars: int) -> Monomial:
    p = parse_homog_poly(key, num_vars)
    if len(p.terms) != 1:
        raise ValidationError(f"monomial key {key!r} is not a single monomial")
    (mono, coeff), = p.terms.items()
    if coeff != GaussianRational(1):
        raise ValidationError(f"monomial key {key!r} carries a coefficient")
    return mono


def parse_hypersurface(num_vars: int, degree: int,
                       coefficients: Dict[str, str]) -> MovingHypersurface:
    """Build a hypersurface from scenario-file fields.

    Keys are monomial strings like "x0^2*x1"; values are either constants
    ("3/2", "i") or tagged function literals ("poly: 1 - z").
    """
    coeffs: Dict[Monomial, AnalyticFunction] = {}
    for key, value in coefficients.items():
        mono = _parse_monomial_key(key, num_vars)
        if mono.degree != degree:
            raise ValidationError(
                f"monomial {key!r} has degree {mono.degree}, "
                f"hypersurface declares {degree}")
        if mono in coeffs:
            raise ValidationError(f"monomial {key!r} listed twice")
        coeffs[mono] = parse_function(value)
    return MovingHypersurface(num_vars, degree, coeffs)
