"""Distributive constant, subgeneral position, and norm domination.

The distributive constant maxes #Gamma / (dim V - dim(V cut by Gamma)) over
nonempty subsets Gamma of the family, with the empty intersection counting
as ratio 0.  The scan is incremental: V cut by a subset is the cut by its
prefix cut once more (:meth:`~smtlab.groebner.Variety.cut`), whose
Groebner basis is seeded with the prefix's reduced basis.  Moving families
are snapshotted at exact Gaussian-rational sample points; agreement across
independent samples stands in for the paper-level "generic z", and the
report records the points used.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .analytic import Curve
from .errors import (
    CertificationError,
    DegenerateInputError,
    UnsupportedOperationError,
    ValidationError,
)
from .exact_algebra import HomogPoly
from .groebner import Variety, intersection_dim
from .hypersurfaces import HypersurfaceFamily, MovingHypersurface
from .scalars import GaussianRational

MAX_FAMILY_SIZE = 16
RESAMPLE_BUDGET = 60


@dataclass(frozen=True)
class DistributiveReport:
    value: Fraction
    witness: Tuple[int, ...]
    table: Tuple[Tuple[Tuple[int, ...], int, Fraction], ...]
    sample_points: Tuple[GaussianRational, ...]


def _random_gaussian_point(rng: random.Random) -> GaussianRational:
    re = Fraction(rng.randint(-19, 19), rng.randint(1, 7))
    im = Fraction(rng.randint(-19, 19), rng.randint(1, 7))
    return GaussianRational(re, im)


def _snapshot_family(family: HypersurfaceFamily,
                     z: GaussianRational) -> Optional[List[HomogPoly]]:
    forms = []
    for member in family:
        try:
            forms.append(member.at(z))
        except (ZeroDivisionError, DegenerateInputError):
            return None
    return forms


def _sample_points(family: HypersurfaceFamily, count: int,
                   rng: random.Random) -> List[Tuple[GaussianRational,
                                                     List[HomogPoly]]]:
    picked: List[Tuple[GaussianRational, List[HomogPoly]]] = []
    seen = set()
    for _ in range(RESAMPLE_BUDGET):
        if len(picked) == count:
            return picked
        z = _random_gaussian_point(rng)
        if z in seen:
            continue
        seen.add(z)
        forms = _snapshot_family(family, z)
        if forms is not None:
            picked.append((z, forms))
    if len(picked) == count:
        return picked
    raise CertificationError(
        "could not find enough sample points avoiding coefficient zeros")


def _fixed_or_sampled(V: Variety, family: HypersurfaceFamily, samples: int,
                      seed: int) -> List[Tuple[Optional[GaussianRational],
                                               List[HomogPoly]]]:
    if samples < 1:
        raise ValidationError(f"need at least one sample point, got {samples}")
    if not family.is_moving:
        forms = _snapshot_family(family, GaussianRational(0))
        if forms is None:
            raise DegenerateInputError("fixed family has a vanishing member")
        return [(None, forms)]
    rng = random.Random(seed)
    return [(z, forms)
            for z, forms in _sample_points(family, samples, rng)]


def _scan_subsets(V: Variety, forms: List[HomogPoly]
                  ) -> Tuple[Fraction, Tuple[int, ...],
                             List[Tuple[Tuple[int, ...], int, Fraction]]]:
    """Exhaustive subset scan with superset-of-empty pruning.

    Subsets go size by size, each size in lexicographic order.  The cut
    by a subset extends the cut by its prefix (all but its last member),
    which was built one size earlier, so each subset costs one seeded
    Groebner basis extension; only the previous size's cuts are held.
    A subset contains an empty one exactly when one of its parents (the
    subsets one member smaller, all scanned one size earlier) is empty;
    such a subset is pruned.
    """
    n = V.dim
    if n < 1:
        raise ValidationError(f"variety must have dimension >= 1, got {n}")
    q = len(forms)
    dims: Dict[FrozenSet[int], int] = {}
    best = Fraction(0)
    witness: Tuple[int, ...] = ()
    table: List[Tuple[Tuple[int, ...], int, Fraction]] = []
    cuts: Dict[Tuple[int, ...], Variety] = {(): V}
    for size in range(1, q + 1):
        level: Dict[Tuple[int, ...], Variety] = {}
        for combo in combinations(range(q), size):
            s = frozenset(combo)
            parents = [dims[s - {j}] for j in combo] if size > 1 else []
            if -1 in parents:
                dims[s] = -1
                table.append((combo, -1, Fraction(0)))
                continue
            cut = cuts[combo[:-1]].cut([forms[combo[-1]]])
            d = cut.dim
            if any(d > p for p in parents):
                raise CertificationError(
                    "intersection dimension grew under refinement")
            dims[s] = d
            if d == -1:
                table.append((combo, -1, Fraction(0)))
                continue
            if d >= n:
                raise DegenerateInputError(
                    f"members {combo} contain the variety; "
                    "distributive constant undefined")
            level[combo] = cut
            ratio = Fraction(size, n - d)
            table.append((combo, d, ratio))
            if ratio > best:
                best, witness = ratio, combo
        cuts = level
    return best, witness, table


def distributive_constant(V: Variety, family: HypersurfaceFamily,
                          samples: int = 3,
                          seed: int = 0) -> DistributiveReport:
    """Max of #Gamma/(dim V - dim intersection) over nonempty subsets.

    Fixed families are scanned once, exactly.  Moving families are scanned
    at `samples` generic points and the per-point maxima combined by max;
    all-empty scans yield 0 and signal a degenerate family.
    """
    if len(family) > MAX_FAMILY_SIZE:
        raise ValidationError(
            f"subset scan limited to {MAX_FAMILY_SIZE} members")
    best = Fraction(0)
    witness: Tuple[int, ...] = ()
    table: List[Tuple[Tuple[int, ...], int, Fraction]] = []
    points: List[GaussianRational] = []
    for z, forms in _fixed_or_sampled(V, family, samples, seed):
        value, w, t = _scan_subsets(V, forms)
        if z is not None:
            points.append(z)
        if value > best or not table:
            best, witness, table = value, w, t
    return DistributiveReport(best, witness, tuple(table), tuple(points))


def subgeneral_position(V: Variety, family: HypersurfaceFamily, ell: int,
                        samples: int = 3, seed: int = 0) -> bool:
    """True when every (ell+1)-subset misses V at the sampled points."""
    if ell + 1 > len(family):
        raise ValidationError("need at least ell+1 family members")
    for _, forms in _fixed_or_sampled(V, family, samples, seed):
        for combo in combinations(range(len(family)), ell + 1):
            if intersection_dim(V, [forms[j] for j in combo]) != -1:
                return False
    return True


def check_remark_bound(V: Variety, family: HypersurfaceFamily, ell: int,
                       samples: int = 3, seed: int = 0) -> Fraction:
    """Margin (ell - n + 1) - Delta_V, nonnegative when the bound holds."""
    if not subgeneral_position(V, family, ell, samples, seed):
        raise ValidationError(
            f"family is not in weakly {ell}-subgeneral position")
    n = V.dim
    report = distributive_constant(V, family, samples, seed)
    return Fraction(ell - n + 1) - report.value


def check_norm_domination(V: Variety, family: HypersurfaceFamily,
                          indices: Sequence[int], curve: Curve,
                          radii: Sequence[float], theta_samples: int = 64,
                          samples: int = 3, seed: int = 0
                          ) -> List[Tuple[float, float]]:
    """The paper's norm-domination check: sup of
    ||f||^d / max_s |Q_s(f)|^{d/d_s} on each circle.

    The subfamily must miss V (checked first); the curve must lie on V.
    Members are normalized when their x0^d coefficient allows it.  Returns
    (radius, sup) rows; boundedness across radii is the sanity signal.
    """
    subfamily = HypersurfaceFamily([family[j] for j in indices])
    for g in V.ideal.generators:
        restricted = MovingHypersurface.from_homog(g).compose(curve.components)
        if not restricted.is_zero():
            raise DegenerateInputError("curve does not lie on the variety")
    for _, forms in _fixed_or_sampled(V, subfamily, samples, seed):
        if intersection_dim(V, forms) != -1:
            raise DegenerateInputError(
                "subfamily meets the variety; domination lemma inapplicable")

    d = subfamily.common_degree
    composed: List[Tuple[int, object]] = []
    for member in subfamily:
        try:
            member = member.normalize()
        except DegenerateInputError:
            pass
        g = member.compose(curve.components)
        if g.is_zero():
            raise DegenerateInputError("curve lies in a subfamily member")
        composed.append((member.degree, g))

    rows: List[Tuple[float, float]] = []
    for r in radii:
        worst = -math.inf
        for m in range(theta_samples):
            z = r * complex(math.cos(2 * math.pi * m / theta_samples),
                            math.sin(2 * math.pi * m / theta_samples))
            log_num = d * curve.log_norm(z)
            log_den = max((d / ds) * g.log_abs(z) for ds, g in composed)
            worst = max(worst, log_num - log_den)
        rows.append((r, math.exp(worst)))
    return rows
