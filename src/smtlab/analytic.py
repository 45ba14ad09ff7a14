"""Zero extraction on closed discs, derivatives and Wronskians of the
functions of :mod:`smtlab.functions`.

Zero extraction is dual-path.  Polynomial (and rational-numerator) zeros
are the roots of the exact square-free factors, found as poles are.
Exponential polynomials go through contour moments (Delves-Lyness): power
sums of the zeros in a disc are trapezoid sums of z^p f'/f, Newton's
identities turn them into a polynomial whose roots Newton's method
polishes, and crowded discs are split.  This is numerical, and so are its
checks: a small-circle winding per zero and an outer count for the total
(the moment walk's own when it settled on the requested circle), each
stopping when two doubling levels agree, are convergence checks rather
than certificates.  Every walk stops at _WINDING_NODES = 2^18 nodes, or at
once on a node where |f| < 1e-280; a located zero within 1e-9 of the
requested circle is an error at once.

Loading a scenario does not run this module; ``nevanlinna`` does.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ._lazy import np
from .errors import CertificationError, DegenerateInputError
from .functions import _ONE, AnalyticFunction, _poly_zeros


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


def _level_mean(g: np.ndarray, t: float) -> complex:
    """Trapezoid mean of one level's g, refused when it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        w = complex(np.sum(g)) / len(g)
    if not cmath.isfinite(w):
        raise CertificationError(
            f"winding on |z| = {t} is not finite (a float computation "
            "overflowed)")
    return w


def winding_circle(f: AnalyticFunction, t: float,
                   centre: complex = 0j) -> Tuple[int, int]:
    """Winding of f around |z - centre| = t by the argument principle.

    Trapezoid sums on the levels of _circle_levels until two successive
    levels round to the same integer with residual < 0.25.  The stop is a
    numerical convergence check, not a certificate.  Returns (count,
    nodes_used); raises CertificationError when the levels stop first:
    at the node cap, or at a node where |f| < _TINY, and at once on a
    level whose sum is not finite.
    """
    prev: Optional[int] = None
    for u, g in _circle_levels(f, f.derivative(), t, centre):
        w = _level_mean(g, t)
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
    moments do not settle (to _MOMENT_TOL) before the levels stop;
    raises CertificationError on a level whose sum is not finite."""
    prev: Optional[List[complex]] = None
    for u, g in _circle_levels(f, fp, t, centre):
        s = [_level_mean(g, t)]
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

def zeros_in_disc(f: AnalyticFunction, t: float,
                  force_winding: bool = False) -> Divisor:
    """Divisor of zeros of f in the closed disc |z| <= t.

    A denominator contributes nothing: the zeros are the numerator's.
    The moment path can be forced for cross-checking the algebraic path.
    Either way the located total must match the outer winding count.  A
    zero within 1e-9 of |z| = t raises CertificationError at once: no
    trapezoid walk resolves the circle through it.
    """
    if f.is_zero():
        raise DegenerateInputError("zero function has no zero divisor")
    if t <= 0:
        raise ValueError("disc radius must be positive")

    num = f.num
    core = f if f.den is _ONE else AnalyticFunction.from_poly(num)
    count = None
    if num is not None and not force_winding:
        if num.degree == 0:
            return Divisor((), t)
        located = _poly_zeros(num)
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
