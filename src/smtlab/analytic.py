"""One-variable analytic functions and zero extraction on closed discs.

Three closed classes of functions are supported: polynomials, rational
functions, and exponential polynomials sum_j p_j(z) exp(lambda_j z) with
Gaussian-rational lambda_j.  All symbolic arithmetic (sums, products,
derivatives, Wronskians) is exact; floating point appears only at
evaluation time and in located zeros.

Float evaluation goes through a plan built on first use and cached on the
object: a Poly1 keeps its coefficients as Python complex numbers in Horner
order, an exponential polynomial keeps (complex lambda, Horner
coefficients) pairs.  eval_scaled, eval_complex, log_abs and
Curve.log_norm take one complex point or a 1-D complex array of nodes and
run the same code on both: plain complex arithmetic and math/cmath on a
point, numpy on an array.

Zero extraction is dual-path.  Polynomial (and rational-numerator) zeros
come from companion-matrix eigenvalues of the exact square-free factors,
with Yun's algorithm supplying multiplicities unless a reduction modulo a
prime certifies the polynomial square-free.  Exponential polynomials go
through contour moments (Delves-Lyness): power sums of the zeros in a disc
are trapezoid sums of z^p f'/f, Newton's identities turn them into a
polynomial whose roots Newton's method polishes, and crowded discs are
split.  This is numerical, and so are its checks: a small-circle winding
per zero and an outer count for the total (the moment walk's own when it
settled on the requested circle), each stopping when two doubling levels
agree, are convergence checks rather than certificates.  Every walk stops
at _WINDING_NODES = 2^18 nodes, or at once on a node where |f| < 1e-280;
a located zero within 1e-9 of the requested circle is an error at once.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ._lazy import np
from .errors import (
    BudgetExceededError,
    CertificationError,
    DegenerateInputError,
    ExactEvalUnavailableError,
    UnsupportedOperationError,
)
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
# the three variants behind AnalyticFunction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Rational:
    num: Poly1
    den: Poly1


def _reduce_rational(num: Poly1, den: Poly1) -> Tuple[Poly1, Poly1]:
    if den.is_zero():
        raise ZeroDivisionError("rational function with zero denominator")
    if num.is_zero():
        return Poly1.zero(), Poly1.constant(1)
    g = poly_gcd(num, den)
    if g.degree > 0:
        num, den = num // g, den // g
    lead = den.leading()
    return num.scale(GaussianRational(1) / lead), den.monic()


def _lambda_key(lam: GaussianRational):
    return (lam.re, lam.im)


class AnalyticFunction:
    """Polynomial, rational, or exponential-polynomial function of one variable.

    Construct through the classmethods; arithmetic promotes variants as
    needed and demotes results to the simplest faithful representation.
    A rational function may not be combined with a genuine exponential
    polynomial.
    """

    __slots__ = ("kind", "data", "_plan", "_derivative")

    def __init__(self, kind: str, data):
        self.kind = kind  # "poly" | "rational" | "exppoly"
        self.data = data
        self._plan = None
        self._derivative = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_poly(p: Poly1) -> "AnalyticFunction":
        return AnalyticFunction("poly", p)

    @staticmethod
    def constant(c) -> "AnalyticFunction":
        return AnalyticFunction("poly", Poly1.constant(c))

    @staticmethod
    def identity() -> "AnalyticFunction":
        return AnalyticFunction("poly", Poly1.identity())

    @staticmethod
    def rational(num: Poly1, den: Poly1) -> "AnalyticFunction":
        num, den = _reduce_rational(num, den)
        if den.degree == 0:
            return AnalyticFunction("poly", num)
        return AnalyticFunction("rational", _Rational(num, den))

    @staticmethod
    def exppoly(terms: Dict[GaussianRational, Poly1]) -> "AnalyticFunction":
        clean = {lam: p for lam, p in terms.items() if not p.is_zero()}
        _check_budget(sum(len(p.coeffs) for p in clean.values()),
                      "exponential polynomial")
        zero_lam = GaussianRational(0)
        if not clean:
            return AnalyticFunction("poly", Poly1.zero())
        if set(clean) == {zero_lam}:
            return AnalyticFunction("poly", clean[zero_lam])
        return AnalyticFunction("exppoly", clean)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        if self.kind == "poly":
            return self.data.is_zero()
        if self.kind == "rational":
            return self.data.num.is_zero()
        return not self.data

    def is_constant(self) -> bool:
        return self.kind == "poly" and self.data.is_constant()

    # -- arithmetic ----------------------------------------------------------

    def _as_exppoly(self) -> Dict[GaussianRational, Poly1]:
        if self.kind == "poly":
            if self.data.is_zero():
                return {}
            return {GaussianRational(0): self.data}
        if self.kind == "exppoly":
            return dict(self.data)
        raise UnsupportedOperationError(
            "cannot combine a rational function with an exponential polynomial")

    def __add__(self, other: "AnalyticFunction") -> "AnalyticFunction":
        other = _coerce_fn(other)
        if self.kind == other.kind == "poly":
            return AnalyticFunction("poly", self.data + other.data)
        if "exppoly" in (self.kind, other.kind):
            terms = self._as_exppoly()
            for lam, p in other._as_exppoly().items():
                terms[lam] = terms.get(lam, Poly1.zero()) + p
            return AnalyticFunction.exppoly(terms)
        n1, d1 = self._as_fraction()
        n2, d2 = other._as_fraction()
        return AnalyticFunction.rational(n1 * d2 + n2 * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self) -> "AnalyticFunction":
        if self.kind == "poly":
            return AnalyticFunction("poly", -self.data)
        if self.kind == "rational":
            return AnalyticFunction("rational",
                                    _Rational(-self.data.num, self.data.den))
        return AnalyticFunction("exppoly",
                                {lam: -p for lam, p in self.data.items()})

    def __sub__(self, other):
        return self + (-_coerce_fn(other))

    def __rsub__(self, other):
        return _coerce_fn(other) + (-self)

    def _as_fraction(self) -> Tuple[Poly1, Poly1]:
        if self.kind == "poly":
            return self.data, Poly1.constant(1)
        if self.kind == "rational":
            return self.data.num, self.data.den
        raise UnsupportedOperationError(
            "cannot combine a rational function with an exponential polynomial")

    def __mul__(self, other) -> "AnalyticFunction":
        other = _coerce_fn(other)
        if self.kind == other.kind == "poly":
            return AnalyticFunction("poly", self.data * other.data)
        if "exppoly" in (self.kind, other.kind):
            terms: Dict[GaussianRational, Poly1] = {}
            for l1, p1 in self._as_exppoly().items():
                for l2, p2 in other._as_exppoly().items():
                    lam = l1 + l2
                    terms[lam] = terms.get(lam, Poly1.zero()) + p1 * p2
            return AnalyticFunction.exppoly(terms)
        n1, d1 = self._as_fraction()
        n2, d2 = other._as_fraction()
        return AnalyticFunction.rational(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "AnalyticFunction":
        other = _coerce_fn(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        if other.kind == "exppoly":
            raise UnsupportedOperationError(
                "division by an exponential polynomial")
        n2, d2 = other._as_fraction()
        if self.kind == "exppoly":
            if not n2.is_constant():
                raise UnsupportedOperationError(
                    "exponential polynomial divided by a non-constant")
            factor = (GaussianRational(1) / n2.coeffs[0])
            scaled = {lam: (p * d2).scale(factor)
                      for lam, p in self.data.items()}
            return AnalyticFunction.exppoly(scaled)
        n1, d1 = self._as_fraction()
        return AnalyticFunction.rational(n1 * d2, d1 * n2)

    def __pow__(self, k: int) -> "AnalyticFunction":
        if k < 0:
            if self.kind == "exppoly":
                raise UnsupportedOperationError(
                    "negative power of an exponential polynomial")
            n, d = self._as_fraction()
            return AnalyticFunction.rational(d, n) ** (-k)
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
        if self.kind == "poly":
            return AnalyticFunction("poly", self.data.derivative())
        if self.kind == "rational":
            n, d = self.data.num, self.data.den
            return AnalyticFunction.rational(
                n.derivative() * d - n * d.derivative(), d * d)
        terms = {}
        for lam, p in self.data.items():
            terms[lam] = p.derivative() + p.scale(lam)
        return AnalyticFunction.exppoly(terms)

    # -- evaluation ---------------------------------------------------------

    def eval_exact(self, z: GaussianRational) -> GaussianRational:
        """Exact value at a Gaussian-rational point (poly/rational only)."""
        if self.kind == "poly":
            return self.data.eval_exact(z)
        if self.kind == "rational":
            den = self.data.den.eval_exact(z)
            if den.is_zero():
                raise ZeroDivisionError(f"pole at sample point {z}")
            return self.data.num.eval_exact(z) / den
        raise ExactEvalUnavailableError(
            "exponential polynomials have no exact rational evaluation")

    def _compiled(self):
        """The float plan: Horner coefficients of the polynomial; of the
        numerator and denominator; or (complex lambda, Horner coefficients)
        per exponential term."""
        if self._plan is None:
            if self.kind == "poly":
                self._plan = self.data.plan
            elif self.kind == "rational":
                self._plan = (self.data.num.plan, self.data.den.plan)
            else:
                self._plan = tuple((lam.to_complex(), p.plan)
                                   for lam, p in self.data.items())
        return self._plan

    def eval_scaled(self, z):
        """Return (w, s) with value = w * exp(s); keeps huge moduli finite.

        z is one complex point or a 1-D complex array of nodes; on an array
        w and s are arrays (s stays 0.0 for polynomial and rational kinds).
        """
        ops = _ops(z)
        z = ops.coerce(z)
        plan = self._compiled()
        if self.kind == "poly":
            return _horner(plan, z), 0.0
        if self.kind == "rational":
            num, den = plan
            d = _horner(den, z)
            if ops.any(d == 0):
                raise ZeroDivisionError(
                    f"pole at evaluation point {_first_where(z, d == 0)}")
            return _horner(num, z) / d, 0.0
        rates = [lam * z for lam, _ in plan]
        scale = ops.maximum([rate.real for rate in rates])
        total = 0j
        for rate, (_, coeffs) in zip(rates, plan):
            total += _horner(coeffs, z) * ops.cexp(rate - scale)
        return total, scale

    def eval_complex(self, z):
        """Value at a point or on an array of nodes; values below exp(-700)
        flush to 0, values above exp(700) raise OverflowError."""
        w, s = self.eval_scaled(z)
        if self.kind != "exppoly":
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
        if self.kind == "poly":
            return str(self.data)
        if self.kind == "rational":
            return f"({self.data.num})/({self.data.den})"
        parts = [f"({p})*exp(({lam})*z)"
                 for lam, p in sorted(self.data.items(),
                                      key=lambda kv: _lambda_key(kv[0]))]
        return " + ".join(parts)

    __repr__ = __str__


def _coerce_fn(value) -> AnalyticFunction:
    if isinstance(value, AnalyticFunction):
        return value
    if isinstance(value, (int, Fraction, GaussianRational)):
        return AnalyticFunction.constant(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to AnalyticFunction")


def derivative(f: AnalyticFunction, order: int = 1) -> AnalyticFunction:
    for _ in range(order):
        f = f.derivative()
    return f


def wronskian(components: Sequence[AnalyticFunction]) -> AnalyticFunction:
    """Wronskian determinant of the component tuple, computed symbolically."""
    k = len(components)
    rows = [list(components)]
    for _ in range(k - 1):
        rows.append([f.derivative() for f in rows[-1]])

    def minor(r: int, cols: Tuple[int, ...]) -> AnalyticFunction:
        if len(cols) == 1:
            return rows[r][cols[0]]
        total = AnalyticFunction.constant(0)
        for pos, c in enumerate(cols):
            rest = cols[:pos] + cols[pos + 1:]
            term = rows[r][c] * minor(r + 1, rest)
            total = total + (term if pos % 2 == 0 else -term)
        return total

    return minor(0, tuple(range(k)))


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


# ---------------------------------------------------------------------------
# winding numbers
# ---------------------------------------------------------------------------

_TINY = 1e-280
_WINDING_NODES = 2 ** 18   # node cap of every winding and moment walk


def _circle_levels(f, fp, t: float, centre: complex = 0j):
    """Yield (u, g) per doubling level of nodes on |z - centre| = t, 64 up
    to _WINDING_NODES: the unit nodes u and the trapezoid integrand
    g = t u f'/f at centre + t u.  Stops at the first level with
    |f| < _TINY at a node: every later level holds that node too.  f' has
    no exponential rate that f lacks, so exp(s_f' - s_f) <= 1."""
    nodes = 64
    while nodes <= _WINDING_NODES:
        u = np.exp(2j * np.pi * np.arange(nodes) / nodes)
        z = t * u
        with np.errstate(over="ignore", invalid="ignore"):
            wf, sf = f.eval_scaled(z + centre)
            if np.any(np.abs(wf) < _TINY):
                return
            wp, sp = fp.eval_scaled(z + centre)
            g = wp / wf * np.exp(sp - sf) * z
        yield u, g
        nodes *= 2


def winding_circle(f: AnalyticFunction, t: float,
                   centre: complex = 0j) -> Tuple[int, int]:
    """Winding of f around |z - centre| = t by the argument principle.

    Trapezoid sums on the levels of _circle_levels until two successive
    levels round to the same integer with residual < 0.25.  The stop is a
    numerical convergence check, not a certificate.  Returns (count,
    nodes_used); raises CertificationError when the levels stop first:
    at the node cap, or at a node where |f| < _TINY.
    """
    prev: Optional[int] = None
    for u, g in _circle_levels(f, f.derivative(), t, centre):
        w = complex(np.sum(g)) / len(g)
        k = round(w.real)
        if prev == k and abs(w - k) < 0.25:
            return k, len(g)
        prev = k
    raise CertificationError(f"winding on |z| = {t} did not converge")


# One circle's moments locate at most _MOMENT_CAP zeros: for e^z - 2 the
# moment roots miss by 2.4e-10 at k = 13 (|z| <= 40), 5.5e-8 at 17 (55),
# 3.8e-7 at 19 (60) and 4e-4 at 25 (80); the cap keeps that near 1e-9 t,
# so a double zero's ring stays well inside _CLUSTER t.  _COVER: seven
# discs of radius 0.55 t cover the disc, each point 0.05 t inside one.
_MOMENT_CAP = 16
_MOMENT_TOL = 1e-8   # moment change between levels, relative to mean |g|
_CLUSTER = 1e-3      # moment roots this close (times the radius) are one zero
_UNPOLISHED_RHO = 3e-7   # small-circle floor around an unpolished centre
_COVER = (0j,) + tuple(cmath.rect(math.sqrt(3) / 2, j * math.pi / 3)
                       for j in range(6))
_MAX_DEPTH = 12


def _disc_moments(f, fp, centre: complex, t: float):
    """(k, s): the count k of zeros of f in |z - centre| < t, settled as
    in winding_circle, and their power sums s_p = sum w^p, p = 0..k, in
    w = (z - centre)/t: trapezoid sums of u^p g, one power at a time.
    s is None if k > _MOMENT_CAP; both are None if the count or the
    moments do not settle (to _MOMENT_TOL) before the levels stop."""
    prev: Optional[List[complex]] = None
    for u, g in _circle_levels(f, fp, t, centre):
        s = [complex(np.sum(g)) / len(g)]
        k = round(s[0].real)
        acc = g
        for _ in range(min(max(k, 0), _MOMENT_CAP)):
            acc = acc * u
            s.append(complex(np.sum(acc)) / len(g))
        if prev is not None and round(prev[0].real) == k \
                and abs(s[0] - k) < 0.25:
            if k > _MOMENT_CAP:
                return k, None
            tol = _MOMENT_TOL * (1.0 + float(np.mean(np.abs(g))))
            if all(abs(a - b) <= tol for a, b in zip(s[1:], prev[1:])):
                return k, s
        prev = s
    return None, None


def _moment_points(f: AnalyticFunction, fp: AnalyticFunction,
                   centre: complex, t: float, s: List[complex]
                   ) -> Optional[List[Tuple[complex, int, bool]]]:
    """Zeros in |z - centre| < t from power sums s: Newton's identities
    give their monic polynomial; roots within _CLUSTER t of each other are
    one zero of that multiplicity, polished from the cluster centre (kept
    unpolished if Newton stalls).  None if a zero falls outside the disc
    or fails its small-circle winding: the caller splits the disc."""
    c = [1.0 + 0j]
    for j in range(1, len(s)):
        c.append(-sum(c[i] * s[j - i] for i in range(j)) / j)
    clusters: List[List[complex]] = []
    for r in np.roots(c):
        z = centre + t * complex(r)
        near = [cl for cl in clusters
                if any(abs(z - q) < _CLUSTER * t for q in cl)]
        clusters = [cl for cl in clusters if cl not in near] + [
            [z] + [q for cl in near for q in cl]]
    starts = [sum(cl) / len(cl) for cl in clusters]
    points = []
    for i, (z0, cl) in enumerate(zip(starts, clusters)):
        gap = min((abs(z0 - w) for j, w in enumerate(starts) if j != i),
                  default=2 * t)   # polishing stays nearer z0 than others
        z = _newton_polish(f, fp, z0, gap / 2, len(cl))
        if z is None and len(cl) > 1:   # close simple zeros polish apart
            apart = [_newton_polish(f, fp, r, min(
                abs(r - q) for q in cl if q is not r) / 2) for r in cl]
            if apart.count(None) < len(cl):
                points += [(r, 1, False) if w is None else (w, 1, True)
                           for r, w in zip(cl, apart)]
                continue
        points.append((z0, len(cl), False) if z is None
                      else (z, len(cl), True))
    if any(abs(z - centre) >= t for z, _, _ in points) or \
            not _multiplicities_hold(f, points):
        return None
    return points


def _locate(f: AnalyticFunction, fp: AnalyticFunction, centre: complex,
            t: float, depth: int = 0
            ) -> Tuple[Optional[int], List[Tuple[complex, int, bool]]]:
    """(k, zeros): the disc's settled count k (None if it did not settle)
    and the zeros of f in |z - centre| < t as (z, mult, polished): from
    the disc's moments, else as the union of the _COVER sub-discs' zeros,
    each kept once, whose total must match k.  A disc whose count or
    moments do not settle (a zero near its circle) is split uncounted;
    its zeros then come back for the caller's count to check."""
    k, s = _disc_moments(f, fp, centre, t)
    if k == 0:
        return k, []
    points = None if s is None else _moment_points(f, fp, centre, t, s)
    if points is not None:
        return k, points
    if depth == _MAX_DEPTH:
        raise CertificationError(
            f"zeros near {centre} not separated at radius {t}")
    found: List[Tuple[complex, int, bool]] = []
    for offset in _COVER:
        for z, m, polished in _locate(f, fp, centre + offset * t,
                                      0.55 * t, depth + 1)[1]:
            # zeros just outside reach the caller's contour check
            if abs(z - centre) < t + 1e-9 and all(
                    abs(z - w) >= _UNPOLISHED_RHO for w, _, _ in found):
                found.append((z, m, polished))
    total = sum(m for _, m, _ in found)
    if k is not None and total != k:
        raise CertificationError(
            f"sub-disc zeros {total} != count {k} on |z - {centre}| = {t}")
    return k, found


def _newton_polish(f: AnalyticFunction, fp: AnalyticFunction,
                   z: complex, reach: float, mult: int = 1
                   ) -> Optional[complex]:
    """Newton steps z - mult f/f'; None if a step fails to shrink (as at a
    multiple zero's noise floor), meets f' = 0 or strays past reach."""
    start, last = z, math.inf
    for _ in range(60):
        wf, sf = f.eval_scaled(z)
        wp, sp = fp.eval_scaled(z)
        if wp == 0:
            return None
        step = mult * (wf / wp) * math.exp(min(sf - sp, 700.0))
        z = z - step
        if abs(z - start) > reach:
            return None
        if abs(step) < 1e-13 * max(1.0, abs(z)):
            return z
        if abs(step) >= last:
            return None
        last = abs(step)
    return None


# ---------------------------------------------------------------------------
# divisors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Divisor:
    """Zeros of a function in a closed disc, with multiplicities.

    points are sorted by (modulus, argument); exp-poly zeros are numerical.
    radius is the closed disc's radius; zeros_in_disc leaves no zero within
    1e-9 of that circle, and its multiplicities add up to an outer winding
    count on it.
    """

    points: Tuple[Tuple[complex, int], ...]
    radius: float

    def total(self, kind_cap: Optional[int] = None) -> int:
        if kind_cap is None:
            return sum(m for _, m in self.points)
        return sum(min(m, kind_cap) for _, m in self.points)


def _sort_points(points: List[Tuple[complex, int]]) -> Tuple[Tuple[complex, int], ...]:
    return tuple(sorted(points,
                        key=lambda pm: (round(abs(pm[0]), 12),
                                        round(cmath.phase(pm[0]) % (2 * math.pi), 12))))


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
    """Poles of a rational function, located numerically as the roots of
    its reduced denominator; none for the other kinds."""
    if f.kind != "rational":
        return []
    return [z for z, _ in _poly_zeros(f.data.den)]


def zeros_in_disc(f: AnalyticFunction, t: float,
                  force_winding: bool = False) -> Divisor:
    """Divisor of zeros of f in the closed disc |z| <= t.

    Rational functions contribute the zeros of their reduced numerator.
    The moment path can be forced for cross-checking the algebraic path.
    Either way the located total must match the outer winding count.  A
    zero within 1e-9 of |z| = t raises CertificationError at once: no
    trapezoid walk resolves the circle through it.
    """
    if f.is_zero():
        raise DegenerateInputError("zero function has no zero divisor")
    if t <= 0:
        raise ValueError("disc radius must be positive")

    if f.kind == "rational":
        core = AnalyticFunction.from_poly(f.data.num)
    else:
        core = f

    count = None
    if core.kind == "poly" and not force_winding:
        if core.data.degree == 0:
            return Divisor((), t)
        located = _poly_zeros(core.data)
    else:
        count, found = _locate(core, core.derivative(), 0j, t)
        located = [(z, m) for z, m, _ in found]
    on_circle = [z for z, _ in located if abs(abs(z) - t) < 1e-9]
    if on_circle:
        raise CertificationError(
            f"zero at {on_circle[0]} within 1e-9 of the contour |z| = {t}")
    inside = [(z, m) for z, m in located if abs(z) <= t]
    if count is None:
        # the moment walk's settled count is the trapezoid sum this
        # walk would repeat on the same nodes; walk only if it has none
        count, _ = winding_circle(core, t)
    total = sum(m for _, m in inside)
    if total != count:
        raise CertificationError(
            f"located multiplicity total {total} != outer winding {count}")
    return Divisor(_sort_points(inside), t)


def _multiplicities_hold(f: AnalyticFunction,
                         points: List[Tuple[complex, int, bool]]) -> bool:
    """Whether each located zero winds m times around a small centred
    circle.  The circle must dominate the location error: polished
    (Newton) zeros are good to ~1e-13, centres whose polishing stalled to
    ~sqrt(eps).  Near an m-fold zero |f| ~ rho^m must clear the
    cancellation noise, so rho grows to 1e-12^(1/m) past m = 3, below a
    quarter of the gap to the nearest other zero."""
    for i, (z, m, polished) in enumerate(points):
        dist = min((abs(z - w) for j, (w, _, _) in enumerate(points) if j != i),
                   default=1.0)
        floor = 1e-8 if polished else _UNPOLISHED_RHO
        rho = max(floor, min(max(1e-4, 1e-12 ** (1 / m)), 0.25 * dist))
        try:
            if winding_circle(f, rho, centre=z)[0] != m:
                return False
        except CertificationError:
            return False
    return True


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
                inner = factor[1:-1]
                coeff = coeff * parse_gaussian(inner)
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
        acc = coeffs.get(power, GaussianRational(0)) + coeff
        coeffs[power] = acc
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
            marker = 0
            poly_part = "1"
            exp_part = chunk
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
