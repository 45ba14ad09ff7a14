"""Hilbert weights, the Chow weight, and their inequality checks.

S_X(u, c) maximizes the total weight of a monomial set whose residues span
degree u modulo the ideal.  By Groebner degeneration it is the total
c-weight of the degree-u standard monomials of the initial ideal in_c(I),
taken in the order that prefers larger c-weight and breaks ties by grevlex
(:func:`~smtlab.exact_algebra.weighted_key`): those monomials are the
greedy maximum-weight basis of the residue matroid.  The Hilbert numerator
of in_c(I) sums those weights in closed form for every u, and the Chow
weight e_X(c) is (k+1)! times the leading coefficient of that sum, a
polynomial in u of degree k+1 for large u (Mumford): an exact rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import CertificationError, ValidationError
from .exact_algebra import (HomogPoly, Monomial, WeightVector, _tuple_new,
                            weighted_key)
from .groebner import Variety, normal_form
from .hypersurfaces import HypersurfaceFamily, MovingHypersurface

WeightedNumerator = Dict[int, Tuple[int, int]]


@dataclass(frozen=True)
class HilbertWeightResult:
    value: Fraction
    basis: Tuple[Monomial, ...]
    u: int
    weights_used: WeightVector


@dataclass(frozen=True)
class ChowEstimate:
    """The exact Chow weight e_X(c), with the ladder of normalized weights
    s_u = (k+1) delta S_X(u, c) / (u H_X(u)) that tends to it, and the
    weight vector and :func:`_weighted_numerator` they were read from."""
    value: Fraction
    sequence: Tuple[Tuple[int, float], ...]
    weights: WeightVector = field(compare=False, repr=False)
    numerator: WeightedNumerator = field(compare=False, repr=False)


def _weighted_numerator(X: Variety, c: WeightVector) -> WeightedNumerator:
    """The numerator K of in_c(I) by degree: d -> (sum of K_a, sum of
    K_a c'.a) over |a| = d, where c' are the integer numerators of
    :meth:`WeightVector.scaled`.  Its Hilbert series must be that of I (a
    flat degeneration keeps it), or :class:`CertificationError` is
    raised."""
    if len(c) != X.num_vars:
        raise ValidationError(
            f"weight vector has {len(c)} entries, ambient needs {X.num_vars}")
    scaled, _ = c.scaled()
    out: WeightedNumerator = {}
    for a, v in X.numerator(c).items():
        k, w = out.get(d := sum(a), (0, 0))
        out[d] = (k + v, w + v * sum(e * s for e, s in zip(a, scaled)))
    if {d: k for d, (k, _) in out.items() if k} != X.coarse_numerator():
        raise CertificationError(
            "in_c(I) and the grevlex leading ideal have different "
            "Hilbert series")
    return out


def _weight_sum(K: WeightedNumerator, c: WeightVector, u: int) -> Fraction:
    """S_X(u, c) from :func:`_weighted_numerator`, exact for every u >= 0:
    the standard monomials are the a + b, |b| = m = u - |a|, with sign K_a,
    and in n variables each entry of b sums to C(m+n-1, n) over those b.
    The sum is taken in c's integer numerators, over their denominator."""
    scaled, scale = c.scaled()
    n, total = len(scaled), sum(scaled)
    return Fraction(sum(w * math.comb(u - d + n - 1, n - 1)
                        + total * k * math.comb(u - d + n - 1, n)
                        for d, (k, w) in K.items() if d <= u), scale)


def hilbert_weight(X: Variety, u: int, c: WeightVector) -> HilbertWeightResult:
    """Exact S_X(u, c) with a basis that achieves it.

    The value is the closed form of :func:`_weight_sum`.  The basis is the
    H_X(u) degree-u monomials that no minimal generator of in_c(I) divides,
    listed by decreasing c-weight, grevlex-largest first on ties.  Divisors
    of standard monomials are standard, so degree v is grown from degree
    v - 1 by testing its n H_X(v - 1) products with the variables.
    """
    if u < 1:
        raise ValidationError("Hilbert weight needs u >= 1")
    value = _weight_sum(_weighted_numerator(X, c), c, u)
    leading, n = X.weighted_leading(c), X.num_vars
    layer = {(0,) * n}
    for _ in range(u):
        layer = {b for a in layer for i in range(n)
                 for b in [a[:i] + (a[i] + 1,) + a[i + 1:]]
                 if not any(g.divides(b) for g in leading)}
    basis = sorted((_tuple_new(Monomial, a) for a in layer),
                   key=weighted_key(c))
    return HilbertWeightResult(value, tuple(basis), u, c)


def _ladder(start: int, u_max: int) -> List[int]:
    out = [start]
    while out[-1] < u_max:
        nxt = min(u_max, max(out[-1] + 1, (out[-1] * 7) // 5))
        out.append(nxt)
    return out


def chow_weight_estimate(X: Variety, c: WeightVector,
                         u_max: int = 40) -> ChowEstimate:
    """Exact e_X(c), with s_u = (k+1) delta S_X(u,c) / (u H_X(u)) along a
    u-ladder up to u_max.

    From u0 = max |a| over the numerator of in_c(I) on, every binomial
    of :func:`_weight_sum` is a polynomial in u, so e_X(c) =
    (k+1)! [u^(k+1)] S_X is the (k+1)-st difference of S_X at u0.
    """
    k, delta = X.dim_degree()
    if k < 0:
        raise ValidationError("Chow weight of the empty variety is undefined")
    if u_max < k + 3:
        raise ValidationError(f"u_max must be at least dim+3 = {k + 3}")
    K = _weighted_numerator(X, c)
    seq = [(u, float(Fraction((k + 1) * delta) * _weight_sum(K, c, u)
                     / (u * X.hilbert_function(u))))
           for u in _ladder(k + 2, u_max)]
    u0 = max(K)
    value = sum((-1) ** (k + 1 - j) * math.comb(k + 1, j)
                * _weight_sum(K, c, u0 + j) for j in range(k + 2))
    return ChowEstimate(value, tuple(seq), c, K)


def check_evertse_ferretti(X: Variety, u: int, c: WeightVector,
                           e_est: ChowEstimate) -> float:
    """Margin of the weight inequality at level u.

    margin = S/(uH) - [e/((k+1) delta) - (2k+1) delta max(c) / u], exact
    and rounded once; a negative margin falsifies.  ``e_est`` is the
    estimate of X for the same c, whose numerator S is read from.
    """
    k, delta = X.dim_degree()
    if u <= delta:
        raise ValidationError(f"need u > degree = {delta}")
    if e_est.weights != c:
        raise ValidationError("Chow estimate is for another weight vector")
    S = _weight_sum(e_est.numerator, c, u)
    H = X.hilbert_function(u)
    bound = (e_est.value / ((k + 1) * delta)
             - Fraction((2 * k + 1) * delta, u) * c.max_entry())
    return float(S / (u * H) - bound)


def _coordinate_hyperplane(num_vars: int, i: int) -> MovingHypersurface:
    return MovingHypersurface.from_homog(HomogPoly.variable(num_vars, i))


def check_chow_lower_bound(Y: Variety, indices: Sequence[int],
                           c: WeightVector, u_max: int = 40) -> float:
    """Margin of the coordinate-subset lower bound on the Chow weight.

    Verifies the three hypotheses first: the last selected weight is the
    minimum, the first ell-1 hyperplanes still meet Y, and Y lies in none
    of them.  Returns e_Y(c) - (delta / Delta) sum of selected weights.
    """
    from .position_geometry import distributive_constant, empty_cuts

    indices = list(indices)
    if not indices:
        raise ValidationError("need at least one hyperplane index")
    if len(c) != Y.num_vars:
        raise ValidationError("weight vector length must match ambient")
    selected = [c[i] for i in indices]
    if c[indices[-1]] != min(selected):
        raise ValidationError(
            "hypothesis (1) failed: last selected weight is not the minimum")
    head = [HomogPoly.variable(Y.num_vars, i) for i in indices[:-1]]
    if head and next(empty_cuts(Y, head, [range(len(head))])):
        raise ValidationError(
            "hypothesis (2) failed: leading hyperplanes miss the variety")
    for i in indices:
        if normal_form(HomogPoly.variable(Y.num_vars, i), Y.groebner).is_zero():
            raise ValidationError(
                f"hypothesis (3) failed: variety lies in hyperplane {i}")

    family = HypersurfaceFamily(
        [_coordinate_hyperplane(Y.num_vars, i) for i in indices])
    delta = Y.degree
    dist = distributive_constant(Y, family)
    est = chow_weight_estimate(Y, c, u_max)
    bound = Fraction(delta) / dist.value * sum(selected, Fraction(0))
    return float(est.value - bound)
