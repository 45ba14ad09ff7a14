"""One-variable analytic functions: exact forms, float evaluation, literals.

Every function is one form: an exponential polynomial
sum_lambda p_lambda(z) exp(lambda z) with Gaussian-rational rates lambda
over a monic polynomial denominator.  Polynomials and rational functions
are the forms without an exponential term, and an exponential term never
sits over a non-constant denominator.  All symbolic arithmetic (sums,
products, derivatives) is exact; floating point appears only at
evaluation time and in located roots.

Float evaluation goes through a plan built on first use and cached on the
object: a Poly1 keeps its coefficients as Python complex numbers in Horner
order, an exponential polynomial keeps (complex lambda, Horner
coefficients) pairs.  eval_scaled, eval_complex, log_abs and
Curve.log_norm take one complex point or a 1-D complex array of nodes and
run the same code on both: plain complex arithmetic and math/cmath on a
point, numpy on an array.

Polynomial roots (poles, and the zeros of a polynomial) are
companion-matrix eigenvalues of the exact square-free factors, with Yun's
algorithm supplying multiplicities unless a reduction modulo a prime
certifies the polynomial square-free.  Loading a scenario runs this
module; the zero finder and Wronskians are :mod:`smtlab.analytic`.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Dict, Iterable, List, Optional, Tuple

from ._lazy import np
from .errors import (BudgetExceededError, DegenerateInputError,
                     ExactEvalUnavailableError, UnsupportedOperationError,
                     ValidationError)
from .exact_algebra import _split_terms
from .scalars import MOD_I, MOD_PRIME, GaussianRational, parse_gaussian

COEFF_BUDGET = 10 ** 4  # max stored coefficients in any expansion


def _check_budget(size: int, what: str):
    if size > COEFF_BUDGET:
        raise BudgetExceededError(
            f"{what} would need {size} coefficients (budget {COEFF_BUDGET})")


# ---------------------------------------------------------------------------
# float evaluation on one point or on an array of nodes
# ---------------------------------------------------------------------------

def _log_abs_point(w: complex) -> float:
    return -math.inf if w == 0 else math.log(abs(w))


def _log_abs_nodes(w: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.abs(w))


_POINT = SimpleNamespace(coerce=complex, exp=math.exp, cexp=cmath.exp,
                         log=math.log, log_abs=_log_abs_point, maximum=max,
                         sqrt=math.sqrt,
                         minimum=min, any=bool,
                         where=lambda cond, a, b: a if cond else b)


@functools.lru_cache(maxsize=None)
def _nodes() -> SimpleNamespace:
    """The numpy counterpart of _POINT, built on first use."""
    return SimpleNamespace(coerce=lambda z: np.asarray(z, dtype=complex),
                           exp=np.exp, cexp=np.exp, log=np.log,
                           log_abs=_log_abs_nodes, maximum=np.maximum.reduce,
                           sqrt=np.sqrt,
                           minimum=np.minimum, any=np.any, where=np.where)


def _ops(z):
    """Elementary functions for z: math/cmath on an int, float or complex
    point (numpy's scalars subclass the last two), numpy on nodes."""
    return _POINT if isinstance(z, (int, float, complex)) else _nodes()


def _first_where(z, mask) -> complex:
    """The first node where mask holds, for error messages."""
    return complex(np.atleast_1d(z)[np.atleast_1d(mask)][0])


def _horner(plan: Tuple[complex, ...], z):
    if not plan:  # the zero polynomial: zeros shaped like z
        return 0j * z
    total = 0j
    for c in plan:
        total = total * z + c
    return total


# ---------------------------------------------------------------------------
# dense univariate polynomials over Q(i)
# ---------------------------------------------------------------------------

class Poly1:
    """Univariate polynomial, coefficients ascending, trailing zeros trimmed."""

    __slots__ = ("coeffs", "_plan")

    def __init__(self, coeffs: Iterable):
        cs = [GaussianRational.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)
        self._plan: Optional[Tuple[complex, ...]] = None

    @staticmethod
    def constant(c) -> "Poly1":
        return Poly1([GaussianRational.coerce(c)])

    @staticmethod
    def zero() -> "Poly1":
        return Poly1([])

    @staticmethod
    def identity() -> "Poly1":
        return Poly1([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> GaussianRational:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "Poly1") -> "Poly1":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly1(out)

    def __neg__(self) -> "Poly1":
        return Poly1([-c for c in self.coeffs])

    def __sub__(self, other: "Poly1") -> "Poly1":
        return self + (-other)

    def __mul__(self, other: "Poly1") -> "Poly1":
        if self.is_zero() or other.is_zero():
            return Poly1.zero()
        _check_budget(len(self.coeffs) + len(other.coeffs) - 1,
                      "polynomial product")
        out = [GaussianRational(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly1(out)

    def scale(self, c) -> "Poly1":
        c = GaussianRational.coerce(c)
        return Poly1([a * c for a in self.coeffs])

    def __pow__(self, k: int) -> "Poly1":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Poly1.constant(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            if k > 1:
                base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Poly1):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def derivative(self) -> "Poly1":
        return Poly1([c * k for k, c in enumerate(self.coeffs) if k >= 1])

    def divmod(self, other: "Poly1") -> Tuple["Poly1", "Poly1"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        db = other.degree
        if self.degree < db:
            return Poly1.zero(), self
        rem = list(self.coeffs)
        lead = other.leading()
        quot = [GaussianRational(0)] * (self.degree - db + 1)
        for k in range(self.degree - db, -1, -1):
            c = rem[k + db]
            if c.is_zero():
                continue
            factor = c / lead
            quot[k] = factor
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - factor * b
        return Poly1(quot), Poly1(rem[:db])

    def __floordiv__(self, other: "Poly1") -> "Poly1":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly1") -> "Poly1":
        return self.divmod(other)[1]

    def monic(self) -> "Poly1":
        if self.is_zero():
            return self
        lead = self.leading()
        return Poly1([c / lead for c in self.coeffs])

    def eval_exact(self, z: GaussianRational) -> GaussianRational:
        total = GaussianRational(0)
        for c in reversed(self.coeffs):
            total = total * z + c
        return total

    @property
    def plan(self) -> Tuple[complex, ...]:
        """Float coefficients in Horner order (highest degree first)."""
        if self._plan is None:
            self._plan = tuple(c.to_complex() for c in reversed(self.coeffs))
        return self._plan

    def eval_complex(self, z):
        """Value at one complex point or at a 1-D array of nodes."""
        return _horner(self.plan, z)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"({c})*z")
            else:
                parts.append(f"({c})*z^{k}")
        return " + ".join(parts)

    __repr__ = __str__


def poly_gcd(a: Poly1, b: Poly1) -> Poly1:
    """Monic gcd over Q(i) by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def _rem_mod(a: List[int], b: List[int], q: int) -> List[int]:
    """a mod b over F_q, coefficients ascending, b trimmed."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, q)
    for k in range(len(a) - 1 - db, -1, -1):
        c = a[k + db] * inv % q
        if c:
            for j in range(db):
                a[k + j] = (a[k + j] - c * b[j]) % q
    a = a[:db]
    while a and not a[-1]:
        a.pop()
    return a


def _squarefree_mod_q(f: Poly1) -> bool:
    """True when f's image mod MOD_PRIME certifies that f is square-free.

    If q divides no denominator, the image keeps f's degree and is
    coprime to its own derivative, then the reduction of the resultant
    Res(f, f') is nonzero, so disc(f) != 0.  False means no certificate,
    not that f has a repeated factor."""
    image = [c.residue(MOD_PRIME, MOD_I) for c in f.coeffs]
    if None in image or not image[-1]:
        return False
    a = image
    b = [k * c % MOD_PRIME for k, c in enumerate(image)][1:]
    while b and not b[-1]:
        b.pop()
    while b:
        a, b = b, _rem_mod(a, b, MOD_PRIME)
    return len(a) == 1


def squarefree_decomposition(f: Poly1) -> List[Tuple[Poly1, int]]:
    """Yun's algorithm: f = lc * prod a_i^i with the a_i squarefree, coprime.

    When the monic f is certified square-free modulo a prime
    (_squarefree_mod_q), Yun's answer is [(f, 1)] and is returned
    without running it."""
    if f.is_zero():
        raise DegenerateInputError("squarefree decomposition of 0")
    if f.degree == 0:
        return []
    f = f.monic()
    if _squarefree_mod_q(f):
        return [(f, 1)]
    d = poly_gcd(f, f.derivative())
    b = f // d
    c = f.derivative() // d
    out: List[Tuple[Poly1, int]] = []
    i = 1
    while b.degree > 0:
        if i > f.degree + 1:
            raise RuntimeError("squarefree decomposition failed to terminate")
        e = c - b.derivative()
        a = poly_gcd(b, e)
        if a.degree > 0:
            out.append((a.monic(), i))
        b = b // a
        c = e // a
        i += 1
    return out


# ---------------------------------------------------------------------------
# analytic functions: an exponential polynomial over a monic polynomial
# ---------------------------------------------------------------------------

_ZERO = GaussianRational(0)
_ONE = Poly1.constant(1)   # every denominator 1 is this object
# the one refusal, for a function's own denominator or a divisor's
_MIXED = ("unsupported: an exponential term in a fraction with a "
          "non-constant denominator")


def _reduced(terms: Dict[GaussianRational, Poly1],
             den: Poly1) -> "AnalyticFunction":
    """terms / den in the reduced form AnalyticFunction keeps: zero terms
    dropped, den monic and coprime to the numerator.  An exponential term
    over a non-constant den is refused."""
    if den.is_zero():
        raise ZeroDivisionError("rational function with zero denominator")
    terms = {lam: p for lam, p in terms.items() if p.coeffs}
    _check_budget(sum(len(p.coeffs) for p in terms.values()),
                  "exponential polynomial")
    if den is _ONE or not terms:
        return AnalyticFunction(terms)
    if den.degree > 0:
        if any(terms):   # a nonzero rate
            raise UnsupportedOperationError(_MIXED)
        num = terms[_ZERO]
        g = poly_gcd(num, den)
        if g.degree > 0:
            num, den = num // g, den // g
        terms = {_ZERO: num}
    lead = den.leading()
    if lead != 1:
        scale = GaussianRational(1) / lead
        terms = {lam: p.scale(scale) for lam, p in terms.items()}
        den = den.scale(scale)
    return AnalyticFunction(terms, den if den.degree > 0 else _ONE)


class AnalyticFunction:
    """(sum_lambda p_lambda(z) e^(lambda z)) / den(z) in one variable.

    terms maps each Gaussian-rational rate lambda to its nonzero Poly1
    coefficient p_lambda (no terms: the zero function); den is a monic
    Poly1, coprime to the numerator; num is the numerator as one Poly1,
    or None when it has an exponential term.  Polynomials, rational
    functions and exponential polynomials are all this one form.  An
    exponential term (lambda != 0) never sits over a non-constant den: an
    operation whose result would hold one, a division by a function with
    an exponential term included, raises UnsupportedOperationError.

    Construct through the classmethods; the constructor takes terms and
    den already reduced.
    """

    __slots__ = ("terms", "den", "num", "_plan", "_derivative")

    def __init__(self, terms: Dict[GaussianRational, Poly1],
                 den: Poly1 = _ONE):
        self.terms = terms
        self.den = den
        self.num: Optional[Poly1] = (
            Poly1.zero() if not terms else
            terms.get(_ZERO) if len(terms) == 1 else None)
        self._plan = None
        self._derivative = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_poly(p: Poly1) -> "AnalyticFunction":
        return AnalyticFunction({_ZERO: p} if p.coeffs else {})

    @staticmethod
    def constant(c) -> "AnalyticFunction":
        return AnalyticFunction.from_poly(Poly1.constant(c))

    @staticmethod
    def identity() -> "AnalyticFunction":
        return AnalyticFunction.from_poly(Poly1.identity())

    @staticmethod
    def rational(num: Poly1, den: Poly1) -> "AnalyticFunction":
        return _reduced({_ZERO: num}, den)

    @staticmethod
    def exppoly(terms: Dict[GaussianRational, Poly1]) -> "AnalyticFunction":
        return _reduced(terms, _ONE)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return (self.num is not None and self.num.is_constant()
                and self.den is _ONE)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "AnalyticFunction") -> "AnalyticFunction":
        other = _coerce_fn(other)
        d1, d2 = self.den, other.den
        if _polynomials(self, other):
            return AnalyticFunction.from_poly(self.num + other.num)
        terms = {lam: _times(p, d2) for lam, p in self.terms.items()}
        for lam, p in other.terms.items():
            p = _times(p, d1)
            terms[lam] = terms[lam] + p if lam in terms else p
        return _reduced(terms, _times(d1, d2))

    __radd__ = __add__

    def __neg__(self) -> "AnalyticFunction":
        return AnalyticFunction({lam: -p for lam, p in self.terms.items()},
                                self.den)

    def __sub__(self, other):
        return self + (-_coerce_fn(other))

    def __rsub__(self, other):
        return _coerce_fn(other) + (-self)

    def __mul__(self, other) -> "AnalyticFunction":
        other = _coerce_fn(other)
        if _polynomials(self, other):
            return AnalyticFunction.from_poly(self.num * other.num)
        terms: Dict[GaussianRational, Poly1] = {}
        for l1, p1 in self.terms.items():
            for l2, p2 in other.terms.items():
                lam, p = l1 + l2, p1 * p2
                terms[lam] = terms[lam] + p if lam in terms else p
        return _reduced(terms, _times(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "AnalyticFunction":
        other = _coerce_fn(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        if other.num is None:   # its exponential terms would be the den
            raise UnsupportedOperationError(_MIXED)
        return self * _reduced({_ZERO: other.den}, other.num)

    def __pow__(self, k: int) -> "AnalyticFunction":
        if k < 0:
            return (AnalyticFunction.constant(1) / self) ** (-k)
        result = AnalyticFunction.constant(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            if k > 1:
                base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, AnalyticFunction):
            return NotImplemented
        try:
            return (self - other).is_zero()
        except UnsupportedOperationError:
            # a true rational function never equals a true exponential sum
            return False

    __hash__ = None

    # -- calculus ---------------------------------------------------------

    def derivative(self) -> "AnalyticFunction":
        if self._derivative is None:  # kept: the zero path asks per circle
            self._derivative = self._differentiate()
        return self._derivative

    def _differentiate(self) -> "AnalyticFunction":
        """(N / den)' = (N' den - N den') / den^2, where
        (p e^(lambda z))' = (p' + lambda p) e^(lambda z)."""
        terms = {lam: p.derivative() + p.scale(lam) if lam else p.derivative()
                 for lam, p in self.terms.items()}
        den = self.den
        if den is _ONE:   # N' over 1 is reduced
            return AnalyticFunction({lam: q for lam, q in terms.items()
                                     if q.coeffs})
        return _reduced({_ZERO: terms[_ZERO] * den
                         - self.num * den.derivative()}, den * den)

    # -- evaluation ---------------------------------------------------------

    def eval_exact(self, z: GaussianRational) -> GaussianRational:
        """Exact value at a Gaussian-rational point (no exponential term)."""
        if self.num is None:
            raise ExactEvalUnavailableError(
                "exponential polynomials have no exact rational evaluation")
        den = self.den.eval_exact(z)
        if den.is_zero():
            raise ZeroDivisionError(f"pole at z = {z}")
        return self.num.eval_exact(z) / den

    def _compiled(self):
        """The float plan (num, terms, den) of Horner coefficients: num is
        the numerator's when it has no exponential term, else terms holds
        (complex lambda, Horner coefficients) per term; den is empty when
        the denominator is 1."""
        if self._plan is None:
            num = self.num
            self._plan = (
                () if num is None else num.plan,
                () if num is not None else tuple(
                    (lam.to_complex(), p.plan)
                    for lam, p in self.terms.items()),
                () if self.den is _ONE else self.den.plan)
        return self._plan

    def eval_scaled(self, z):
        """Return (w, s) with value = w * exp(s); keeps huge moduli finite.

        z is one complex point or a 1-D complex array of nodes; on an array
        w and s are arrays (s stays 0.0 without an exponential term).
        """
        ops = _ops(z)
        z = ops.coerce(z)
        num, terms, den = self._compiled()
        if terms:
            rates = [lam * z for lam, _ in terms]
            scale = ops.maximum([rate.real for rate in rates])
            w = 0j
            for rate, (_, coeffs) in zip(rates, terms):
                w += _horner(coeffs, z) * ops.cexp(rate - scale)
            return w, scale
        w = _horner(num, z)
        if den:
            d = _horner(den, z)
            if ops.any(d == 0):
                raise ZeroDivisionError(
                    f"pole at evaluation point {_first_where(z, d == 0)}")
            w = w / d
        return w, 0.0

    def eval_complex(self, z):
        """Value at a point or on an array of nodes; values below exp(-700)
        flush to 0, values above exp(700) raise OverflowError."""
        w, s = self.eval_scaled(z)
        if self.num is not None:   # no exponential term: s is 0
            return w
        ops = _ops(z)
        live = w != 0
        if ops.any(live & (s > 700)):
            raise OverflowError(
                f"value at {_first_where(z, live & (s > 700))} exceeds "
                "double range; use eval_scaled/log_abs")
        return ops.where(live & (s < -700), 0j,
                         w * ops.exp(ops.minimum(s, 700.0)))

    def log_abs(self, z):
        """log |f(z)|, stable for exponentially large values; -inf at zeros.

        Takes one point or an array of nodes, like eval_scaled."""
        w, s = self.eval_scaled(z)
        return _ops(z).log_abs(w) + s

    def __str__(self):
        text = str(self.num) if self.num is not None else " + ".join(
            f"({p})*exp(({lam})*z)"
            for lam, p in sorted(self.terms.items(),
                                 key=lambda kv: (kv[0].re, kv[0].im)))
        return text if self.den is _ONE else f"({text})/({self.den})"

    __repr__ = __str__


def _polynomials(f: AnalyticFunction, g: AnalyticFunction) -> bool:
    """Whether f and g are both polynomials: those combine as Poly1s, with
    no term dict to merge and no reduction."""
    return (f.den is g.den is _ONE and f.num is not None
            and g.num is not None)


def _times(p: Poly1, den: Poly1) -> Poly1:
    return p if den is _ONE else p * den


def _coerce_fn(value) -> AnalyticFunction:
    if isinstance(value, AnalyticFunction):
        return value
    if isinstance(value, (int, Fraction, GaussianRational)):
        return AnalyticFunction.constant(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to AnalyticFunction")


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

@dataclass
class Curve:
    """A holomorphic map into projective space, given by global components.

    domain_radius is math.inf for maps from the plane, else the radius of
    the source disc.
    """

    components: Tuple[AnalyticFunction, ...]
    domain_radius: float = math.inf

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) < 2:
            raise DegenerateInputError("a curve needs at least two components")
        if all(f.is_zero() for f in comps):
            raise DegenerateInputError("all curve components are zero")
        object.__setattr__(self, "components", comps)

    @property
    def ambient_dim(self) -> int:
        return len(self.components) - 1

    def log_norm(self, z):
        """log ||f(z)|| with the Euclidean norm, computed in the log domain.

        Takes one point or a 1-D array of nodes; a vanishing component
        contributes exp(-inf) = 0 to the sum."""
        ops = _ops(z)
        logs = [2.0 * f.log_abs(z) for f in self.components]
        m = ops.maximum(logs)
        vanish = m == -math.inf
        if ops.any(vanish):
            raise DegenerateInputError(
                f"all components vanish at z = {_first_where(z, vanish)}; "
                "representation not reduced")
        return 0.5 * (m + ops.log(sum(ops.exp(v - m) for v in logs)))


@dataclass(frozen=True)
class RadialGrid:
    """Radii r0 < r_1 < ... < r_max < R used by every grid-valued report;
    R is the domain radius of the curve they sample."""

    r0: float
    values: Tuple[float, ...]
    R: float = math.inf

    def __post_init__(self):
        if self.r0 <= 0:
            raise ValidationError("r0 must be positive")
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValidationError("grid needs at least one radius")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValidationError("grid radii must be strictly increasing")
        if vals[0] <= self.r0:
            raise ValidationError("grid must start above r0")
        if vals[-1] >= self.R:
            raise ValidationError("grid must stay inside the domain radius")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def geometric(r_min: float = 2.0, r_max: float = 1e3, points: int = 40,
                  r0: float = 1.0) -> "RadialGrid":
        ratio = (r_max / r_min) ** (1.0 / (points - 1)) if points > 1 else 1.0
        vals = [r_min * ratio ** j for j in range(points)]
        vals[-1] = r_max
        return RadialGrid(r0, tuple(vals), math.inf)

    @staticmethod
    def finite(R: float, points: int = 20,
               r0: Optional[float] = None) -> "RadialGrid":
        """Circles at R(1 - 2^-j), j = 1..points.  These round to R from
        j = 54 at R = 2 on, so a longer grid is refused."""
        vals = tuple(R * (1 - 2.0 ** (-j)) for j in range(1, points + 1))
        fits = next((j for j, v in enumerate(vals)
                     if v >= R or (j and v <= vals[j - 1])), points)
        if fits < points:
            raise ValidationError(
                f"a finite grid of {points} points does not fit below R = "
                f"{R}: at most {fits} circles R(1 - 2^-j) stay distinct")
        return RadialGrid(R / 4 if r0 is None else r0, vals, R)

    def top_decile(self) -> Tuple[int, ...]:
        """Indices of the last tenth of the grid (at least one point)."""
        count = max(1, len(self.values) // 10)
        return tuple(range(len(self.values) - count, len(self.values)))


def _poly_zeros(p: Poly1) -> List[Tuple[complex, int]]:
    out: List[Tuple[complex, int]] = []
    for factor, mult in squarefree_decomposition(p):
        coeffs = factor.plan
        roots = np.roots(coeffs) if len(coeffs) > 1 else []
        fp = factor.derivative()
        for r in roots:
            z = complex(r)
            for _ in range(3):
                d = fp.eval_complex(z)
                if d == 0:
                    break
                z = z - factor.eval_complex(z) / d
            out.append((z, mult))
    return out


def poles(f: AnalyticFunction) -> List[complex]:
    """Poles of f, located numerically as the roots of its reduced
    denominator; none when the denominator is 1."""
    return [z for z, _ in _poly_zeros(f.den)]


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------

def _parse_poly1(text: str) -> Poly1:
    """Parse "1 - 2*z^3" style literals in the variable z."""
    chunks = _split_terms(text)
    if not chunks:
        raise ValueError(f"empty polynomial literal {text!r}")
    coeffs: Dict[int, GaussianRational] = {}
    for sign, chunk in chunks:
        coeff = GaussianRational(sign)
        power = 0
        for factor in (p.strip() for p in chunk.split("*")):
            if not factor:
                raise ValueError(f"empty factor in {chunk!r}")
            if factor.startswith("(") and factor.endswith(")"):
                coeff = coeff * parse_gaussian(factor[1:-1])
                continue
            if factor == "i":
                coeff = coeff * GaussianRational(0, 1)
                continue
            if factor.startswith("z"):
                rest = factor[1:]
                if rest == "":
                    power += 1
                elif rest.startswith("^") and rest[1:].isdigit():
                    power += int(rest[1:])
                else:
                    raise ValueError(f"cannot parse factor {factor!r}")
                continue
            coeff = coeff * parse_gaussian(factor)
        coeffs[power] = coeffs.get(power, GaussianRational(0)) + coeff
    top = max(coeffs) if coeffs else 0
    _check_budget(top + 1, "polynomial literal")
    return Poly1([coeffs.get(k, GaussianRational(0)) for k in range(top + 1)])


def _parse_exp_argument(text: str) -> GaussianRational:
    body = text.strip()
    if body in ("0", "(0)"):
        return GaussianRational(0)
    if body == "z":
        return GaussianRational(1)
    if body == "-z":
        return GaussianRational(-1)
    if body.endswith("*z"):
        head = body[:-2].strip()
        if head.startswith("(") and head.endswith(")"):
            head = head[1:-1]
        return parse_gaussian(head)
    raise ValueError(f"cannot parse exponent argument {text!r}")


def _parse_exp_term(chunk: str) -> Tuple[GaussianRational, Poly1]:
    marker = chunk.rfind("*exp(")
    if marker < 0:
        if chunk.startswith("exp("):
            poly_part, exp_part = "1", chunk
        else:
            return GaussianRational(0), _parse_poly1(chunk)
    else:
        poly_part = chunk[:marker].strip()
        exp_part = chunk[marker + 1:].strip()
    if not exp_part.startswith("exp(") or not exp_part.endswith(")"):
        raise ValueError(f"malformed exponential term {chunk!r}")
    lam = _parse_exp_argument(exp_part[4:-1])
    if poly_part.startswith("(") and poly_part.endswith(")"):
        poly_part = poly_part[1:-1]
    return lam, _parse_poly1(poly_part)


def parse_function(text: str) -> AnalyticFunction:
    """Parse a one-variable function literal.

    Accepted forms:
      "poly: 1 - 2*z^3"
      "rational: (1)/(1-z)"
      "exppoly: (1)*exp(0) + (z)*exp(2*z)"
      bare Gaussian-rational constants such as "3/2" or "-i".
    """
    text = text.strip()
    if text.startswith("poly:"):
        return AnalyticFunction.from_poly(_parse_poly1(text[5:].strip()))
    if text.startswith("rational:"):
        body = text[9:].strip()
        depth = 0
        split_at = -1
        for pos, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "/" and depth == 0:
                split_at = pos
                break
        if split_at < 0:
            raise ValueError(f"rational literal needs (num)/(den): {text!r}")
        num_text = body[:split_at].strip()
        den_text = body[split_at + 1:].strip()
        if not (num_text.startswith("(") and num_text.endswith(")")
                and den_text.startswith("(") and den_text.endswith(")")):
            raise ValueError(f"rational literal needs (num)/(den): {text!r}")
        return AnalyticFunction.rational(_parse_poly1(num_text[1:-1]),
                                         _parse_poly1(den_text[1:-1]))
    if text.startswith("exppoly:"):
        body = text[8:].strip()
        terms: Dict[GaussianRational, Poly1] = {}
        for sign, chunk in _split_terms(body):
            lam, p = _parse_exp_term(chunk)
            if sign < 0:
                p = -p
            terms[lam] = terms.get(lam, Poly1.zero()) + p
        return AnalyticFunction.exppoly(terms)
    return AnalyticFunction.constant(parse_gaussian(text))
