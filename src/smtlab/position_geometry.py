"""Distributive constant, subgeneral position, norm domination, and the
curve's hypotheses.

The distributive constant maxes #Gamma / (dim V - dim(V cut by Gamma)) over
nonempty subsets Gamma of the family, with the empty intersection counting
as ratio 0, so only the subsets that meet V are listed.  Each subset's
dimension is first certified modulo the prime MOD_PRIME
(:class:`_ModularCuts`): its parents bound it from below, and a Macaulay
matrix of full rank mod q bounds it from above.  Only a subset
whose certificate fails gets a Groebner basis: V cut by the subset is the
cut by its prefix cut once more (:meth:`~smtlab.groebner.Variety.cut`),
whose basis is seeded with the prefix's reduced basis.  The position
checks ask the same certificate whether an intersection is empty
(:func:`empty_cuts`) and cut only where it fails.  A moving family is
specialized at one exact Gaussian-rational point z0; a fixed family is
read off its constant coefficients.  Fibre dimension is upper
semicontinuous, so each dimension at z0 is at least the generic one and
the constant at z0 bounds the generic constant from above; the report
says whether the scan also proved the two equal.  An intersection empty
at z0 is empty at the generic point, so a position check that passes at
z0 passes generically.

A curve f meets the hypotheses of the second main theorem when it lies on
V (:func:`check_curve_on_variety`) and is nondegenerate over V up to
degree 2 (:func:`check_nondegenerate`, an exact rank check on
coefficients).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement
from operator import add, mul
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ._lazy import np
from .analytic import AnalyticFunction, Curve, Poly1, poly_gcd
from .errors import (
    CertificationError,
    DegenerateInputError,
    ValidationError,
)
from .exact_algebra import HomogPoly, rank_of_vectors
from .groebner import Variety, intersection_dim
from .hypersurfaces import HypersurfaceFamily, MovingHypersurface
from .scalars import MOD_I, MOD_PRIME, GaussianRational

# subsets whose parents are all nonempty examined before a scan is
# refused; every family of at most 16 members stays under it
MAX_SUBSETS = 2 ** 16 - 1
# random points tried for a moving family before giving up
POINT_TRIES = 60
# a Macaulay matrix with more cells is not built; its subset takes the
# exact path
MACAULAY_CELL_CAP = 250_000
# matrices of one shape are eliminated together in numpy, in stacks of at
# most this many cells, unless there are fewer of them than columns and
# each has at most _SPARSE_CELLS cells: numpy's per-call cost then
# outweighs the work, and Python ints keep a sparse matrix sparse
_STACK_CELLS = 1 << 16
_SPARSE_CELLS = 2_500
# below this many rows an elimination step updates every lower row
# rather than finding those with an entry in the pivot column
_STACK_DENSE_ROWS = 16
# probe k is x_{n-1-k} = sum_i t^(i+1) x_i with t = _PROBE_NODE + k; a
# large t puts the common zeros of the probes at coordinates growing like
# powers of t, off every form with small integer coefficients
_PROBE_NODE = 10_001


@dataclass(frozen=True)
class DistributiveReport:
    """Delta_V, the first subset that attains it, and the table: (subset,
    dim, ratio) for each subset that meets V, size by size, each size in
    lexicographic order.  A subset not listed misses V: dim -1, ratio 0."""

    value: Fraction
    witness: Tuple[int, ...]
    table: Tuple[Tuple[Tuple[int, ...], int, Fraction], ...]
    exact: bool     # value is the generic one, not only an upper bound


def _random_gaussian_point(rng: random.Random) -> GaussianRational:
    re = Fraction(rng.randint(-19, 19), rng.randint(1, 7))
    im = Fraction(rng.randint(-19, 19), rng.randint(1, 7))
    return GaussianRational(re, im)


def _specialize(family: HypersurfaceFamily, seed: int) -> List[HomogPoly]:
    """The members at the first point drawn from random.Random(seed) where
    every member is defined and not identically zero; a fixed family is
    the same at every point, so its members are read off their constant
    coefficients with no point drawn.  A coefficient with an exponential
    term has no exact value there, so it is refused, naming its member."""
    for k, member in enumerate(family):
        if any(fn.num is None for fn in member.coeffs.values()):
            raise ValidationError(
                f"family member {k} has an exponential coefficient: a "
                "moving family is specialized at an exact point, so its "
                "coefficients must be polynomial or rational")
    if not family.is_moving:
        return [HomogPoly(m.num_vars, m.degree,
                          {mono: fn.num.coeffs[0]
                           for mono, fn in m.coeffs.items()})
                for m in family]
    rng = random.Random(seed)
    for _ in range(POINT_TRIES):
        z = _random_gaussian_point(rng)
        try:
            return [member.at(z) for member in family]
        except (ZeroDivisionError, DegenerateInputError):
            pass
    raise CertificationError(
        "could not find a point where every member is defined and nonzero")


# a form mod q: exponent tuple -> nonzero residue
Terms = Dict[Tuple[int, ...], int]
# (degree, terms, (monomial code, residue) pairs) of a form mod q
Part = Tuple[int, Terms, List[Tuple[int, int]]]


def _lazard_degree(degrees: Sequence[int], num_vars: int) -> int:
    """Sum of d_i - 1, plus one, over the num_vars largest degrees: the
    degree from which forms of those degrees with no common zero in
    projective space span every form (Lazard, EUROCAL 1983)."""
    top = sorted(degrees, reverse=True)[:num_vars]
    return sum(d - 1 for d in top) + 1


def _substitute(terms: Terms, line: Sequence[int]) -> Terms:
    """The form in k + 1 variables with x_k = sum_i line[i] x_i, mod q."""
    q = MOD_PRIME
    k = len(line)
    powers: List[Terms] = [{(0,) * k: 1}]     # powers of the linear form
    out: Terms = {}
    for exps, r in terms.items():
        e, head = exps[-1], exps[:-1]
        while len(powers) <= e:
            nxt: Terms = {}
            for a, v in powers[-1].items():
                for i, c in enumerate(line):
                    b = a[:i] + (a[i] + 1,) + a[i + 1:]
                    nxt[b] = (nxt.get(b, 0) + v * c) % q
            powers.append(nxt)
        for a, v in powers[e].items():
            b = tuple(map(add, head, a))
            out[b] = (out.get(b, 0) + r * v) % q
    return {a: v for a, v in out.items() if v}


def _eliminate(rows: List[Dict[int, int]], ncols: int) -> bool:
    """True when the rows (column -> nonzero residue, consumed) span
    F_q^ncols: incremental elimination on Python ints, each pivot row at
    its lowest column and scaled to 1 there."""
    q = MOD_PRIME
    pivots: Dict[int, Dict[int, int]] = {}
    for row in rows:
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                inv = pow(row[c], -1, q)
                pivots[c] = {k: v * inv % q for k, v in row.items()}
                if len(pivots) == ncols:
                    return True
                break
            f = row[c]
            for k, v in pivot.items():
                x = (row.get(k, 0) - f * v) % q
                if x:
                    row[k] = x
                else:
                    row.pop(k, None)
    return False


def _inverses(xs: List[int]) -> List[int]:
    """The inverses mod MOD_PRIME of the residues xs, a zero standing for
    1: one pow for the whole list and three products per entry
    (Montgomery's batch inversion)."""
    q = MOD_PRIME
    prefix = []
    acc = 1
    for x in xs:
        prefix.append(acc)
        acc = acc * (x or 1) % q
    inv = pow(acc, -1, q)
    out = [0] * len(xs)
    for k in range(len(xs) - 1, -1, -1):
        out[k] = inv * prefix[k] % q
        inv = inv * (xs[k] or 1) % q
    return out


def _full_rank(M: np.ndarray) -> np.ndarray:
    """Which matrices of a stack (B, R, C) of int64 entries in [0, q) have
    full column rank mod q = MOD_PRIME; M is overwritten.

    Elimination with deferred reduction: at column c only that column
    (rows c and below) and the pivot row are reduced mod q.  The pivot
    row is scaled by the inverse of its pivot, and every row below loses
    l times it, l its reduced entry in column c, so a step moves an entry
    by less than q^2.  An entry in column j moves at most j times, and
    R * C <= MACAULAY_CELL_CAP with R >= C gives C <= 500, so every entry
    stays below q + 500 q^2 < 2^52 in magnitude and int64 never
    overflows.  The last column needs only its pivot."""
    q = MOD_PRIME
    B, R, C = M.shape
    if R < C:
        return np.zeros(B, dtype=bool)
    ok = np.ones(B, dtype=bool)
    stack = np.arange(B)
    for c in range(C):
        col = M[:, c:, c] % q
        nonzero = col != 0
        if c == C - 1:
            return ok & nonzero.any(axis=1)
        r = nonzero.argmax(axis=1)
        pivot = col[stack, r]
        pivots = pivot.tolist()
        if 0 in pivots:                 # some matrix is short of rank
            ok &= pivot != 0
        if r.any():                     # some matrix swaps in its pivot
            swap = r + c
            top = M[stack, swap, c + 1:] % q
            M[stack, swap, c + 1:] = M[:, c, c + 1:]
            col[stack, r] = col[:, 0]
        else:
            top = M[:, c, c + 1:] % q
        top *= np.array(_inverses(pivots))[:, None]
        top %= q
        lower = col[:, 1:]
        if R - c > _STACK_DENSE_ROWS:   # skip rows with no entry to clear
            below = np.flatnonzero(lower.any(axis=0))
            M[:, c + 1 + below, c + 1:] -= (lower[:, below, None]
                                            * top[:, None, :])
        else:
            M[:, c + 1:, c + 1:] -= lower[:, :, None] * top[:, None, :]
    return ok


class _ModularCuts:
    """Upper bounds on dim(V cut by a subset of the family), mod q.

    If V's generators, the subset's forms and lb + 1 linear forms have no
    common zero, the subset cuts V in dimension at most lb.  The linear
    forms are fixed probes L_k = x_{n-1-k} - sum_{i < n-1-k} t_k^(i+1) x_i;
    on their common zeros the last lb + 1 variables are linear in the
    others, so the question becomes whether V's generators and the
    subset's forms, with those variables substituted, have a common zero
    in n - lb - 1 variables.  They have none when their Macaulay matrix
    at some degree D (every form times every monomial of the
    complementary degree, against the degree-D monomials) has full column
    rank: then their ideal holds every degree-D form.  Full rank mod
    q = MOD_PRIME implies full rank over Q(i): for any prime q = 1
    (mod 4), sending i to a square root of -1 (MOD_I) maps the Gaussian
    rationals whose denominators q does not divide onto F_q as a ring, so
    a minor nonzero mod q is the image of a nonzero minor.  D is Lazard's
    degree, where forms with no common zero always reach full rank, so a
    generic cut is certified there.  A coefficient whose denominator q
    divides, a rank that falls short or a matrix past MACAULAY_CELL_CAP
    gives no certificate, never a wrong one.

    Residues are computed once per form, and each substitution once per
    form and lb.  Monomials are coded as integers in a radix above every
    exponent used, so a product of monomials is a sum of codes.  The
    requests of one call that share lb and part degrees share a matrix
    shape; their rows are gathered from one numpy block per degree
    (:meth:`_blocks`) and eliminated as one int64 stack with deferred
    reduction (:func:`_full_rank`), unless there are fewer of them than
    columns and they are small (:func:`_eliminate`, on Python ints).
    """

    def __init__(self, V: Variety, forms: Sequence[HomogPoly]):
        n = self.num_vars = V.num_vars
        gens = V.ideal.generators
        degrees = [g.degree for g in gens] + [f.degree for f in forms]
        radix = _lazard_degree(degrees, n) + 1
        self.codes = [radix ** i for i in range(n)]
        self.num_gens = len(gens)
        # lb -> V's generators, then the members, on the common zeros of
        # the first lb + 1 probes (lb = -1: as given)
        self.levels: Dict[int, List[Optional[Part]]] = {
            -1: [self._residues(f) for f in (*gens, *forms)]}
        self.layers: Dict[Tuple[int, int], List[int]] = {}

    def _part(self, degree: int, terms: Terms) -> Part:
        return degree, terms, [(sum(e * w for e, w in zip(a, self.codes)), r)
                               for a, r in terms.items()]

    def _residues(self, form: HomogPoly) -> Optional[Part]:
        """None when q divides a denominator."""
        terms: Terms = {}
        for mono, coeff in form.terms.items():
            r = coeff.residue(MOD_PRIME, MOD_I)
            if r is None:
                return None
            if r:
                terms[tuple(mono)] = r
        return self._part(form.degree, terms)

    def _level(self, lb: int) -> List[Optional[Part]]:
        got = self.levels.get(lb)
        if got is None:
            k = self.num_vars - 1 - lb      # x_k is substituted
            line = [pow(_PROBE_NODE + lb, j + 1, MOD_PRIME) for j in range(k)]
            got = self.levels[lb] = [
                None if p is None else self._part(p[0], _substitute(p[1], line))
                for p in self._level(lb - 1)]
        return got

    def _monomials(self, m: int, degree: int) -> List[int]:
        """Codes of the monomials of the given degree in x_0..x_{m-1},
        ascending."""
        key = (m, degree)
        if key not in self.layers:
            self.layers[key] = [0] if degree == 0 else sorted(
                {c + w for c in self._monomials(m, degree - 1)
                 for w in self.codes[:m]})
        return self.layers[key]

    def _blocks(self, lb: int, D: int, degree: int) -> np.ndarray:
        """The Macaulay rows at degree D of every form on level lb, as a
        stack (forms, rows, columns); forms of another degree are 0."""
        m = self.num_vars - lb - 1
        columns = np.array(self._monomials(m, D))
        shifts = np.array(self._monomials(m, D - degree))
        level = self._level(lb)
        form, code, residue = np.array(
            [(i, c, r) for i, part in enumerate(level)
             if part is not None and part[0] == degree for c, r in part[2]],
            dtype=np.int64).reshape(-1, 3).T
        out = np.zeros((len(level), len(shifts), len(columns)), dtype=np.int64)
        out[form, np.arange(len(shifts))[:, None],
            np.searchsorted(columns, shifts[:, None] + code)] = residue
        return out

    def bounds(self, requests: Sequence[Tuple[Sequence[int], int]]
               ) -> List[bool]:
        """For each (combo, lb): True when V cut by the members in combo
        is certified to have dimension at most lb."""
        out = [False] * len(requests)
        groups: Dict[Tuple[int, Tuple[int, ...]],
                     List[Tuple[int, List[int]]]] = {}
        G = self.num_gens
        for k, (combo, lb) in enumerate(requests):
            level = self._level(lb)
            parts = [*range(G), *(G + j for j in combo)]
            if len(parts) < self.num_vars - lb - 1 or (None in level and any(
                    level[i] is None for i in parts)):
                continue
            degrees = tuple(level[i][0] for i in parts)
            groups.setdefault((lb, degrees), []).append((k, parts))
        for (lb, degrees), batch in groups.items():
            m = self.num_vars - lb - 1
            D = _lazard_degree(degrees, m)
            C = len(self._monomials(m, D))
            R = sum(len(self._monomials(m, D - d)) for d in degrees)
            if R * C > MACAULAY_CELL_CAP:
                continue
            if len(batch) < C and R * C <= _SPARSE_CELLS:
                level = self._level(lb)
                col = {c: k for k, c in enumerate(self._monomials(m, D))}
                for k, parts in batch:
                    out[k] = _eliminate(
                        [{col[s + c]: r for c, r in level[i][2]}
                         for i in parts
                         for s in self._monomials(m, D - level[i][0])], C)
                continue
            blocks = {d: self._blocks(lb, D, d) for d in set(degrees)}
            step = max(1, _STACK_CELLS // (R * C))
            for start in range(0, len(batch), step):
                chunk = batch[start:start + step]
                index = np.array([parts for _, parts in chunk])
                if len(blocks) == 1:            # one gather, no concatenate
                    M = blocks[degrees[0]][index].reshape(len(chunk), R, C)
                else:
                    M = np.concatenate([blocks[d][index[:, p]]
                                        for p, d in enumerate(degrees)],
                                       axis=1)
                for (k, _), ok in zip(chunk, _full_rank(M)):
                    out[k] = bool(ok)
        return out


def _scan_subsets(V: Variety, forms: List[HomogPoly]
                  ) -> Tuple[Fraction, Tuple[int, ...],
                             List[Tuple[Tuple[int, ...], int, Fraction]],
                             bool]:
    """Scan of the subsets that meet V; returns the value, its witness,
    the table of those subsets and whether each has d = lb.

    Subsets go size by size, each size in lexicographic order: a size is
    the previous size's nonempty subsets, each extended by every member
    above its last one (its prefix).  A subset contains an empty one
    exactly when one of its parents (the subsets one member smaller, all
    scanned one size earlier; V for a single member) is empty, so a
    candidate with a parent not found nonempty is empty: it is neither
    certified nor listed.  The scan stops at the first size with no
    candidate, and refuses a family once more than MAX_SUBSETS candidates
    are built.  Each parent P bounds a candidate's dimension d from below
    by dim P - 1 (Krull), so lb = max dim P - 1, and a certificate of
    d <= lb (:class:`_ModularCuts`, for all candidates of one size at
    once) gives d = lb.  A candidate whose certificate fails is cut
    exactly: V cut by its prefix, built on demand the same way and kept
    for the scan, cut once more.

    When the forms are a moving family at a point z0, each dimension is at
    least the generic one (upper semicontinuity of fibre dimension), so
    the value bounds the generic value from above.  If every candidate has
    d = lb, induction over subset size gives lb <= d_gen <= d(z0) = lb for
    each, and the value is the generic one.
    """
    n = V.dim
    if n < 1:
        raise ValidationError(f"variety must have dimension >= 1, got {n}")
    q = len(forms)
    modular = _ModularCuts(V, forms)
    dims: Dict[int, int] = {}    # nonempty subset as a bit mask -> dimension
    best = Fraction(0)
    witness: Tuple[int, ...] = ()
    table: List[Tuple[Tuple[int, ...], int, Fraction]] = []
    cuts: Dict[Tuple[int, ...], Variety] = {(): V}
    exact = True
    room = MAX_SUBSETS

    def cut(combo: Tuple[int, ...]) -> Variety:
        got = cuts.get(combo)
        if got is None:
            got = cuts[combo] = cut(combo[:-1]).cut([forms[combo[-1]]])
        return got

    level = [((), 0, n)]         # (subset, bit mask, dimension) of a size
    for size in range(1, q + 1):
        scan = []                # (subset, bit mask, parent dims)
        for combo, mask, d in level:
            for j in range(combo[-1] + 1 if combo else 0, q):
                s = mask | 1 << j
                parents = [d, *[dims.get(s ^ 1 << i, -1) for i in combo]]
                if -1 not in parents:
                    scan.append((combo + (j,), s, parents))
            if len(scan) > room:
                raise ValidationError(
                    f"subset scan limited to {MAX_SUBSETS} subsets whose "
                    "parents are all nonempty")
        if not scan:
            break
        room -= len(scan)
        certified = modular.bounds([(combo, max(parents) - 1)
                                    for combo, _, parents in scan])
        level, ratios = [], {}
        for (combo, s, parents), ok in zip(scan, certified):
            lb = max(parents) - 1
            d = lb if ok else cut(combo).dim
            if any(d > p for p in parents):
                raise CertificationError(
                    "intersection dimension grew under refinement")
            if d >= n:
                raise DegenerateInputError(
                    f"members {combo} contain the variety; "
                    "distributive constant undefined")
            exact = exact and d == lb
            if d == -1:
                continue
            level.append((combo, s, d))
            dims[s] = d
            ratio = ratios.get(d)
            if ratio is None:    # later subsets of this size and d tie it
                ratio = ratios[d] = Fraction(size, n - d)
                if ratio > best:
                    best, witness = ratio, combo
            table.append((combo, d, ratio))
    return best, witness, table, exact


def distributive_constant(V: Variety, family: HypersurfaceFamily,
                          seed: int = 0) -> DistributiveReport:
    """Max of #Gamma/(dim V - dim intersection) over nonempty subsets.

    A fixed family is scanned as given, a moving one at one point drawn
    from `seed`; the report says whether the value is the generic one
    (always, for a fixed family) or an upper bound on it.  A family that
    misses V yields 0 and an empty table.
    """
    value, witness, table, exact = _scan_subsets(V, _specialize(family, seed))
    return DistributiveReport(value, witness, tuple(table),
                              exact or not family.is_moving)


def empty_cuts(V: Variety, forms: Sequence[HomogPoly],
               combos: Sequence[Sequence[int]]) -> Iterator[bool]:
    """For each combo in turn, whether the forms it indexes miss V: a
    certificate at lb = -1 (:class:`_ModularCuts`, all combos at once)
    proves a miss, and a combo without one is cut exactly."""
    certified = _ModularCuts(V, forms).bounds([(c, -1) for c in combos])
    for combo, ok in zip(combos, certified):
        yield ok or intersection_dim(V, [forms[j] for j in combo]) == -1


def subgeneral_position(V: Variety, family: HypersurfaceFamily, ell: int,
                        seed: int = 0) -> bool:
    """True when every (ell+1)-subset misses V at the point the family is
    specialized at; empty there, each is empty at the generic point."""
    if ell + 1 > len(family):
        raise ValidationError("need at least ell+1 family members")
    return all(empty_cuts(V, _specialize(family, seed),
                          list(combinations(range(len(family)), ell + 1))))


def check_remark_bound(V: Variety, family: HypersurfaceFamily, ell: int,
                       seed: int = 0) -> Fraction:
    """Margin (ell - n + 1) - Delta_V, nonnegative when the bound holds."""
    if not subgeneral_position(V, family, ell, seed):
        raise ValidationError(
            f"family is not in weakly {ell}-subgeneral position")
    n = V.dim
    report = distributive_constant(V, family, seed)
    return Fraction(ell - n + 1) - report.value


def check_curve_on_variety(V: Variety, curve: Curve) -> None:
    """Refuse a curve off V: every generator of I(V), composed with the
    curve's components, must vanish identically."""
    for g in V.ideal.generators:
        restricted = MovingHypersurface.from_homog(g).compose(curve.components)
        if not restricted.is_zero():
            raise DegenerateInputError("curve does not lie on the variety")


def _cleared_denominators(comps: Sequence[AnalyticFunction]
                          ) -> List[AnalyticFunction]:
    """D f, D the lcm of the components' denominators; each entry has
    denominator 1."""
    D = Poly1.constant(1)
    for c in comps:
        if c.den.degree > 0:
            D = D * (c.den // poly_gcd(D, c.den))
    if D.degree == 0:
        return list(comps)
    return [c * AnalyticFunction.from_poly(D) for c in comps]


def _monomial_rank(fs: Sequence[AnalyticFunction], u: int) -> int:
    """Rank over Q(i) of the degree-u monomials in fs, each written as
    sum p_lambda(z) e^(lambda z) and read as its coefficient vector keyed
    by (lambda, power of z)."""
    rows = [{(lam, k): c
             for lam, p in reduce(mul, factors).terms.items()
             for k, c in enumerate(p.coeffs)}
            for factors in combinations_with_replacement(fs, u)]
    return rank_of_vectors(rows, keyfunc=lambda key: (key[0].re, key[0].im,
                                                      key[1]))


def check_nondegenerate(V: Variety, curve: Curve) -> None:
    """Refuse a curve with a relation of degree 1 or 2 beyond I(V).

    With D the lcm of the denominators, P(D f) = D^u P(f) for every
    degree-u form P, and the functions z^k e^(lambda z) are linearly
    independent, so a curve on V meets only the relations of I(V) in
    degree u exactly when the degree-u monomials in D f, as coefficient
    vectors, have rank H_V(u).  On V = P^N the u = 1 rank decides linear
    independence.
    """
    fs = _cleared_denominators(curve.components)
    for u in (1, 2):
        rank = _monomial_rank(fs, u)
        expected = V.hilbert_function(u)
        if rank < expected:
            raise DegenerateInputError(
                f"curve satisfies an unexpected degree-{u} relation "
                f"(monomial rank {rank} < {expected})")


def check_norm_domination(V: Variety, family: HypersurfaceFamily,
                          indices: Sequence[int], curve: Curve,
                          radii: Sequence[float], theta_samples: int = 64,
                          seed: int = 0
                          ) -> List[Tuple[float, float]]:
    """The paper's norm-domination check: sup of
    ||f||^d / max_s |Q_s(f)|^{d/d_s} on each circle.

    The subfamily must miss V (checked first); the curve must lie on V.
    Members are normalized when their x0^d coefficient allows it.  Returns
    (radius, sup) rows; boundedness across radii is the sanity signal.
    """
    subfamily = HypersurfaceFamily([family[j] for j in indices])
    check_curve_on_variety(V, curve)
    if not next(empty_cuts(V, _specialize(subfamily, seed),
                           [range(len(subfamily))])):
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
