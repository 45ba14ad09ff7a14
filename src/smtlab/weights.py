"""Hilbert weights, Chow weight estimation, and their inequality checks.

S_X(u, c) maximizes the total weight of a monomial set whose residues span
degree u modulo the ideal.  By Groebner degeneration it is the total
c-weight of the degree-u standard monomials of the initial ideal in_c(I),
taken in the order that prefers larger c-weight and breaks ties by grevlex
(:func:`~smtlab.exact_algebra.weighted_key`): those monomials are the
greedy maximum-weight basis of the residue matroid.  The Chow weight e_X(c)
is realized as the Mumford limit of (k+1) delta S_X(u, c) / (u H_X(u)) and
always carries an extrapolation error bound, which downstream checks treat
as their tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import CertificationError, ValidationError
from .exact_algebra import (
    HomogPoly,
    Monomial,
    WeightVector,
    monomials_of_degree,
    weighted_key,
)
from .groebner import Variety, normal_form
from .hypersurfaces import HypersurfaceFamily, MovingHypersurface


@dataclass(frozen=True)
class HilbertWeightResult:
    value: Fraction
    basis: Tuple[Monomial, ...]
    u: int
    weights_used: WeightVector


@dataclass(frozen=True)
class ChowEstimate:
    value: float
    sequence: Tuple[Tuple[int, float], ...]
    error_bound: float


def hilbert_weight(X: Variety, u: int, c: WeightVector) -> HilbertWeightResult:
    """Exact S_X(u, c) with a basis that achieves it.

    The basis is the set of degree-u monomials that no minimal generator of
    in_c(I) divides, listed by decreasing c-weight, grevlex-largest first on
    ties.  Its size must equal the grevlex Hilbert function H_X(u); a
    mismatch raises :class:`CertificationError`.
    """
    if u < 1:
        raise ValidationError("Hilbert weight needs u >= 1")
    if len(c) != X.num_vars:
        raise ValidationError(
            f"weight vector has {len(c)} entries, ambient needs {X.num_vars}")
    leading = X.weighted_leading(c)
    standard = [m for m in monomials_of_degree(X.num_vars, u)
                if not any(g.divides(m) for g in leading)]
    target = X.hilbert_function(u)
    if len(standard) != target:
        raise CertificationError(
            f"in_c(I) has {len(standard)} standard monomials of degree {u}, "
            f"H_X({u}) = {target}")
    standard.sort(key=weighted_key(c))
    # the total weight is c dotted with the sum of the exponent vectors
    value = c.dot([sum(column) for column in zip(*standard)])
    return HilbertWeightResult(value, tuple(standard), u, c)


def _ladder(start: int, u_max: int) -> List[int]:
    out = [start]
    while out[-1] < u_max:
        nxt = min(u_max, max(out[-1] + 1, (out[-1] * 7) // 5))
        out.append(nxt)
    return out


def _neville_to_zero(xs: Sequence[float], ys: Sequence[float]) -> List[float]:
    """Diagonal of the Neville table at 0; entry j uses points 0..j."""
    n = len(xs)
    p = list(ys)
    diag = [p[0]]
    for j in range(1, n):
        for i in range(n - j):
            p[i] = (xs[i] * p[i + 1] - xs[i + j] * p[i]) / (xs[i] - xs[i + j])
        diag.append(p[0])
    return diag


def chow_weight_estimate(X: Variety, c: WeightVector,
                         u_max: int = 40) -> ChowEstimate:
    """Limit of s_u = (k+1) delta S_X(u,c) / (u H_X(u)) along a u-ladder.

    Extrapolates in 1/u over the tail of the ladder.  The error bound is
    the spread of the last three extrapolants, zero when the sequence is
    exactly constant (projective space).
    """
    k, delta = X.dim_degree()
    if k < 0:
        raise ValidationError("Chow weight of the empty variety is undefined")
    if u_max < k + 3:
        raise ValidationError(f"u_max must be at least dim+3 = {k + 3}")
    seq: List[Tuple[int, Fraction]] = []
    for u in _ladder(k + 2, u_max):
        S = hilbert_weight(X, u, c).value
        H = X.hilbert_function(u)
        seq.append((u, Fraction((k + 1) * delta) * S / (u * H)))

    floats = [(u, float(s)) for u, s in seq]
    if len(set(s for _, s in seq)) == 1:
        value = float(seq[0][1])
        return ChowEstimate(value, tuple(floats), 0.0)

    diffs = [b - a for (_, a), (_, b) in zip(seq, seq[1:])]
    flips = sum(1 for d0, d1 in zip(diffs, diffs[1:])
                if (d0 > 0 > d1) or (d0 < 0 < d1))
    if flips >= 3:
        raise CertificationError(
            "normalized Hilbert weights oscillate; no limit reported")

    tail = floats[-7:]
    xs = [1.0 / u for u, _ in tail]
    ys = [s for _, s in tail]
    diag = _neville_to_zero(xs, ys)
    last = diag[-3:]
    error = max(last) - min(last) if len(last) >= 2 else math.inf
    return ChowEstimate(diag[-1], tuple(floats), error)


def check_evertse_ferretti(X: Variety, u: int, c: WeightVector,
                           e_est: ChowEstimate) -> float:
    """Margin of the weight inequality at level u.

    margin = S/(uH) - [e/((k+1) delta) - (2k+1) delta max(c) / u]; values
    below -error_bound/((k+1) delta) falsify, anything above is consistent.
    """
    k, delta = X.dim_degree()
    if u <= delta:
        raise ValidationError(f"need u > degree = {delta}")
    S = hilbert_weight(X, u, c).value
    H = X.hilbert_function(u)
    lhs = Fraction(S, u * H)
    bound = (e_est.value / ((k + 1) * delta)
             - Fraction((2 * k + 1) * delta, u) * c.max_entry())
    return float(lhs) - float(bound)


def _coordinate_hyperplane(num_vars: int, i: int) -> MovingHypersurface:
    return MovingHypersurface.from_homog(HomogPoly.variable(num_vars, i))


def check_chow_lower_bound(Y: Variety, indices: Sequence[int],
                           c: WeightVector, u_max: int = 40) -> float:
    """Margin of the coordinate-subset lower bound on the Chow weight.

    Verifies the three hypotheses first: the last selected weight is the
    minimum, the first ell-1 hyperplanes still meet Y, and Y lies in none
    of them.  Returns e_Y(c) - (delta / Delta) sum of selected weights.
    """
    from .groebner import intersection_dim
    from .position_geometry import distributive_constant

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
    if head and intersection_dim(Y, head) == -1:
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
    return est.value - float(bound)
