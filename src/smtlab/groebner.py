"""Groebner bases, Hilbert functions, and projective dimension/degree.

Buchberger's algorithm over the Gaussian rationals in a monomial order
given as a sort key: graded reverse lexicographic by default, with the
Hilbert function of the grevlex leading-term ideal driving dimension and
degree.  The c-weighted order of :func:`~smtlab.exact_algebra.weighted_key`
gives the initial ideal in_c(I) whose standard monomials carry the Hilbert
weight.  Dimensions follow the projective convention: the empty variety
reports -1.
"""

from __future__ import annotations

import heapq
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Tuple)

from .errors import BudgetExceededError, ValidationError
from .exact_algebra import (
    HomogPoly,
    Monomial,
    WeightVector,
    grevlex_key,
    monomial_count,
    weighted_key,
)

DEFAULT_REDUCTION_BUDGET = 10 ** 6


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


class _Budget:
    __slots__ = ("left",)

    def __init__(self, total: int):
        self.left = total

    def spend(self, amount: int = 1):
        self.left -= amount
        if self.left < 0:
            raise BudgetExceededError(
                "reduction budget exhausted during basis computation")


def _reduce_full(p: HomogPoly, basis: Sequence[HomogPoly],
                 budget: Optional[_Budget] = None,
                 key: Callable = grevlex_key) -> HomogPoly:
    """Fully reduce p: no term of the result is divisible by any basis LT.

    Leading terms are taken in the order given by ``key``.
    """
    if p.is_zero() or not basis:
        return p
    leads = []
    for g in basis:
        lm = g.leading_monomial(key)
        leads.append((lm, g.terms[lm], g))
    return _reduce(p, leads, budget, key)


def _reduce(p: HomogPoly, leads: Sequence[Tuple[Monomial, object, HomogPoly]],
            budget: Optional[_Budget], key: Callable) -> HomogPoly:
    """:func:`_reduce_full` on (leading monomial, leading coefficient,
    polynomial) triples."""
    result_terms: Dict[Monomial, object] = {}
    work = dict(p.terms)
    while work:
        mono = max(work, key=key)
        coeff = work.pop(mono)
        hit = None
        for lead in leads:
            if lead[0].divides(mono):
                hit = lead
                break
        if hit is None:
            result_terms[mono] = coeff
            continue
        if budget is not None:
            budget.spend()
        lm, lc, g = hit
        quot = mono.quotient(lm)
        factor = coeff / lc
        for gm, gc in g.terms.items():
            if gm == lm:
                continue  # cancels the popped term exactly
            shifted = gm.mul(quot)
            cur = work.get(shifted)
            new = (cur - factor * gc) if cur is not None else -(factor * gc)
            if new.is_zero():
                work.pop(shifted, None)
            else:
                work[shifted] = new
    return HomogPoly(p.num_vars, p.degree, result_terms)


def _s_poly(f: HomogPoly, g: HomogPoly,
            key: Callable = grevlex_key) -> HomogPoly:
    lf, lg = f.leading_monomial(key), g.leading_monomial(key)
    l = lf.lcm(lg)
    a = f.mul_monomial(l.quotient(lf)).scale(1 / f.terms[lf])
    b = g.mul_monomial(l.quotient(lg)).scale(1 / g.terms[lg])
    return a - b


def groebner_basis(ideal: Ideal,
                   budget: int = DEFAULT_REDUCTION_BUDGET,
                   key: Callable = grevlex_key,
                   seed: Sequence[HomogPoly] = ()) -> List[HomogPoly]:
    """Reduced Groebner basis in the monomial order given by ``key``.

    ``key`` is a sort key on exponent tuples (ascending keys, ascending
    monomials) that is a term order within each degree; grevlex by default.
    ``seed`` is a reduced Groebner basis, in the same order, of an ideal J
    in the same ring; the result is the reduced basis of I + J, where I is
    generated by ``ideal``.  Pairs inside the seed already reduce to zero
    and are never formed, so extending a basis by a few forms costs only
    the pairs those forms bring.  The empty seed computes from scratch;
    the reduced basis is unique, so seeding never changes the result.
    Pairs are processed by increasing lcm degree, ties in the order they
    were formed (normal strategy), and the coprime-leading-term criterion
    prunes trivial pairs.  Every S-polynomial of the result reduces to
    zero, which the tests re-check.  The result is sorted by leading
    monomial, largest first.
    """
    meter = _Budget(budget)
    basis: List[HomogPoly] = list(seed)
    leads = [g.leading_monomial(key) for g in basis]
    triples = [(lm, g.terms[lm], g) for lm, g in zip(leads, basis)]
    # heap of (lcm degree, k, i) for the pair (i, k), i < k: pairs are
    # formed in (k, i) order, so ties pop in the order they were formed
    pairs: List[Tuple[int, int, int]] = []

    def add(h: HomogPoly) -> None:
        h = h.monic(key)
        lm = h.leading_monomial(key)
        k = len(basis)
        for i, li in enumerate(leads):
            heapq.heappush(pairs, (li.lcm(lm).degree, k, i))
        basis.append(h)
        leads.append(lm)
        triples.append((lm, h.terms[lm], h))

    for g in sorted(ideal.generators,
                    key=lambda h: (h.degree, key(h.leading_monomial(key)))):
        r = _reduce(g, triples, meter, key)
        if not r.is_zero():
            add(r)

    while pairs:
        _, j, i = heapq.heappop(pairs)
        li, lj = leads[i], leads[j]
        if li.lcm(lj) == li.mul(lj):
            continue  # coprime leading terms; S-poly reduces to zero
        r = _reduce(_s_poly(basis[i], basis[j], key), triples, meter, key)
        if not r.is_zero():
            add(r)

    # minimalize on the stored leading monomials, then inter-reduce the
    # (monic) survivors that have a term in another's leading ideal
    minimal: List[int] = []
    for k in sorted(range(len(basis)), key=lambda k: key(leads[k])):
        lm = leads[k]
        if any(leads[h].divides(lm) for h in minimal):
            continue
        minimal = [h for h in minimal if not lm.divides(leads[h])]
        minimal.append(k)
    reduced = []
    for k in reversed(minimal):  # ascending keys, so largest lead first
        others = [triples[h] for h in minimal if h != k]
        g = basis[k]
        if any(lm.divides(m) for m in g.terms for lm, _, _ in others):
            g = _reduce(g, others, meter, key)
        reduced.append(g)
    return reduced


def normal_form(p: HomogPoly, basis: Sequence[HomogPoly]) -> HomogPoly:
    for g in basis:
        if g.num_vars != p.num_vars:
            raise ValidationError("variable count mismatch in normal form")
    return _reduce_full(p, basis)


# ---------------------------------------------------------------------------
# standard-monomial counting for a monomial ideal
# ---------------------------------------------------------------------------

def _minimalize(gens: Iterable[Monomial]) -> FrozenSet[Monomial]:
    gens = sorted(set(gens), key=lambda m: m.degree)
    out: List[Monomial] = []
    for g in gens:
        if not any(h.divides(g) for h in out):
            out.append(g)
    return frozenset(out)


def _count_standard(num_vars: int, u: int, gens: FrozenSet[Monomial],
                    memo: Dict) -> int:
    """Degree-u monomials outside the monomial ideal <gens>.

    Pivot recursion on the exact sequence splitting off one variable:
    count(I, u) = count(I : x, u-1) + count(I + (x), u), where the second
    summand lives in one variable fewer, so (u + num_vars) strictly drops.
    """
    if u < 0:
        return 0
    if any(g.degree == 0 for g in gens):
        return 0
    if num_vars == 0:
        return 1 if u == 0 else 0
    if not gens:
        return monomial_count(num_vars, u)
    key = (num_vars, u, gens)
    got = memo.get(key)
    if got is not None:
        return got
    # pivot: variable occurring most among the generators
    counts = [0] * num_vars
    for g in gens:
        for i, e in enumerate(g):
            if e:
                counts[i] += 1
    x = counts.index(max(counts))
    quot = _minimalize(
        Monomial(tuple(e - 1 if i == x else e for i, e in enumerate(g)))
        if g[x] else g for g in gens)
    dropped = _minimalize(
        Monomial(g[:x] + g[x + 1:]) for g in gens if not g[x])
    out = (_count_standard(num_vars, u - 1, quot, memo)
           + _count_standard(num_vars - 1, u, dropped, memo))
    memo[key] = out
    return out


class Variety:
    """Projective variety (or scheme) cut out by a homogeneous ideal."""

    def __init__(self, ideal: Ideal, budget: int = DEFAULT_REDUCTION_BUDGET):
        self.ideal = ideal
        self._budget = budget
        # the basis is built as groebner_basis(_added, seed=_seed): the
        # whole ideal from scratch, or a parent's basis plus a cut's forms
        self._added = ideal
        self._seed: Sequence[HomogPoly] = ()
        self._basis: Optional[List[HomogPoly]] = None
        self._leading: Optional[FrozenSet[Monomial]] = None
        self._weighted_leading: Dict[Tuple, FrozenSet[Monomial]] = {}
        self._hilbert_memo: Dict = {}
        self._hilbert_cache: Dict[int, int] = {}
        self._dim_degree: Optional[Tuple[int, int]] = None

    @property
    def num_vars(self) -> int:
        return self.ideal.num_vars

    @property
    def ambient_dim(self) -> int:
        return self.ideal.num_vars - 1

    @property
    def groebner(self) -> List[HomogPoly]:
        if self._basis is None:
            self._basis = groebner_basis(self._added, self._budget,
                                         seed=self._seed)
            self._leading = _minimalize(
                g.leading_monomial() for g in self._basis)
        return self._basis

    def cut(self, forms: Sequence[HomogPoly]) -> "Variety":
        """V cut by the given forms.

        The child's Groebner basis extends ``self.groebner`` by the forms,
        so only the pairs they bring are checked.  The child shares this
        variety's standard-monomial memo, whose entries depend on nothing
        but their key.
        """
        added = Ideal(self.num_vars, forms)
        child = Variety(Ideal(self.num_vars,
                              self.ideal.generators + added.generators),
                        self._budget)
        child._added = added
        child._seed = self.groebner
        child._hilbert_memo = self._hilbert_memo
        return child

    def weighted_leading(self, c: WeightVector) -> FrozenSet[Monomial]:
        """Minimal generators of in_c(I), the initial ideal in the order of
        :func:`~smtlab.exact_algebra.weighted_key`; cached per weight
        vector."""
        got = self._weighted_leading.get(c.entries)
        if got is None:
            key = weighted_key(c)
            got = _minimalize(
                g.leading_monomial(key)
                for g in groebner_basis(self.ideal, self._budget, key))
            self._weighted_leading[c.entries] = got
        return got

    def hilbert_function(self, u: int) -> int:
        if u < 0:
            raise ValueError("Hilbert function argument must be >= 0")
        got = self._hilbert_cache.get(u)
        if got is None:
            self.groebner
            got = _count_standard(self.num_vars, u, self._leading,
                                  self._hilbert_memo)
            self._hilbert_cache[u] = got
        return got

    def dim_degree(self) -> Tuple[int, int]:
        if self._dim_degree is None:
            self._dim_degree = variety_dim_degree(self)
        return self._dim_degree

    @property
    def dim(self) -> int:
        return self.dim_degree()[0]

    @property
    def degree(self) -> int:
        return self.dim_degree()[1]


def variety_dim_degree(X: Variety, u_cap: int = 60) -> Tuple[int, int]:
    """Dimension and degree from the Hilbert function's eventual polynomial.

    Scans u upward until, for some k, the (k+1)-st finite differences vanish
    at k_max+2 consecutive points.  The stable k-th difference is then
    delta * k! / k! = delta.  All-zero values mean the empty variety.
    """
    k_max = X.ambient_dim
    need = k_max + 2
    values: List[int] = []
    for u in range(u_cap + 1):
        values.append(X.hilbert_function(u))
        for k in range(k_max + 1):
            # (k+1)-st differences of the last `need + k + 1` values
            window = values[-(need + k + 1):]
            if len(window) < need + k + 1:
                continue
            diffs = window
            for _ in range(k + 1):
                diffs = [b - a for a, b in zip(diffs, diffs[1:])]
            if any(diffs):
                continue
            kth = window
            for _ in range(k):
                kth = [b - a for a, b in zip(kth, kth[1:])]
            delta = kth[-1]
            if delta == 0:
                return (-1, 0)
            return (k, delta)
    raise BudgetExceededError(
        f"Hilbert function did not stabilize for u <= {u_cap}")


def intersection_dim(V: Variety, forms: Sequence[HomogPoly]) -> int:
    """dim of V cut by the given forms; -1 encodes the empty intersection."""
    return V.cut(forms).dim
