"""Groebner bases, Hilbert functions, and projective dimension/degree.

Buchberger's algorithm over the Gaussian rationals in a monomial order
given as a sort key: graded reverse lexicographic by default.  The
fine-graded Hilbert numerator of a monomial initial ideal
(:func:`_numerator`) gives the Hilbert function of the grevlex leading-term
ideal, which drives dimension and degree, and the Hilbert and Chow weights
of the initial ideal in_c(I) of the c-weighted order of
:func:`~smtlab.exact_algebra.weighted_key`.  Dimensions follow the
projective convention: the empty variety reports -1.

The Buchberger loop stores only monic elements (a seed is made monic on
entry), so reduction never divides nor forms a reducer's cancelling leading
term.  Each call keeps its own memo of order keys: one shared across calls
or orders would hand grevlex keys to a weighted basis.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Tuple)

from .errors import BudgetExceededError, ValidationError
from .exact_algebra import (
    HomogPoly,
    Monomial,
    WeightVector,
    _homog,
    _tuple_new,
    grevlex_key,
    weighted_key,
)
from .scalars import ONE

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


class _KeyMemo(dict):
    """Order keys computed on first use; ``__getitem__`` is the key."""

    def __init__(self, key: Callable):
        self.key = key

    def __missing__(self, mono: Monomial):
        got = self[mono] = self.key(mono)
        return got


def _reduce_full(p: HomogPoly, basis: Sequence[HomogPoly],
                 budget: Optional[_Budget] = None,
                 key: Callable = grevlex_key) -> HomogPoly:
    """Fully reduce p: no term of the result is divisible by any basis LT.

    Leading terms are taken in the order given by ``key``.  The basis is
    made monic first, which leaves the remainder unchanged.
    """
    if p.is_zero() or not basis:
        return p
    order = _KeyMemo(key).__getitem__
    leads = [g.leading_monomial(order) for g in basis]
    return _reduce(p, [(lm, g.monic_at(lm)) for lm, g in zip(leads, basis)],
                   budget, order)


def _reduce(p: HomogPoly, reducers: Sequence[Tuple[Monomial, HomogPoly]],
            budget: Optional[_Budget], key: Callable) -> HomogPoly:
    """:func:`_reduce_full` on (leading monomial, monic polynomial) pairs.

    The pending monomials are kept sorted by ``key``, largest last, so the
    next term is a pop; a term that cancels stays listed until it is
    popped and skipped.  Reduction only adds terms below the one it
    reduces, so a popped monomial never comes back.
    """
    result_terms: Dict[Monomial, object] = {}
    work = dict(p.terms)
    pending = sorted(work, key=key)
    while pending:
        mono = pending.pop()
        coeff = work.pop(mono, None)
        if coeff is None:
            continue
        for lm, g in reducers:
            if lm.divides(mono):
                break
        else:
            result_terms[mono] = coeff
            continue
        if budget is not None:
            budget.spend()
        for m in _subtract(work, coeff, g, lm, mono.quotient(lm)):
            insort(pending, m, key=key)
    return _homog(p.num_vars, p.degree, result_terms)


def _subtract(work: Dict[Monomial, object], coeff, g: HomogPoly,
              lm: Monomial, quot: Monomial) -> List[Monomial]:
    """work -= coeff * quot * (g without its leading term at lm), in place;
    returns the monomials that were not in work before."""
    added = []
    for gm, gc in g.terms.items():
        if gm == lm:
            continue
        m = gm.mul(quot)
        cur = work.get(m)
        if cur is None:
            work[m] = -(coeff * gc)
            added.append(m)
            continue
        new = cur - coeff * gc
        if new.is_zero():
            del work[m]
        else:
            work[m] = new
    return added


def _s_poly(f: HomogPoly, g: HomogPoly, lf: Monomial,
            lg: Monomial) -> HomogPoly:
    """f*(l/lf) - g*(l/lg) for monic f and g with leading monomials lf
    and lg, l = lcm(lf, lg)."""
    l = lf.lcm(lg)
    quot = l.quotient(lf)
    terms = {m.mul(quot): c for m, c in f.terms.items() if m != lf}
    _subtract(terms, ONE, g, lg, l.quotient(lg))
    return _homog(f.num_vars, l.degree, terms)


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
    order = _KeyMemo(key).__getitem__
    leads = [g.leading_monomial(order) for g in seed]
    basis = [g.monic_at(lm) for lm, g in zip(leads, seed)]
    reducers = list(zip(leads, basis))
    # heap of (lcm degree, k, i) for the pair (i, k), i < k: pairs are
    # formed in (k, i) order, so ties pop in the order they were formed
    pairs: List[Tuple[int, int, int]] = []

    def add(h: HomogPoly) -> None:
        lm = h.leading_monomial(order)
        h = h.monic_at(lm)
        k = len(basis)
        for i, li in enumerate(leads):
            heapq.heappush(pairs, (li.lcm(lm).degree, k, i))
        basis.append(h)
        leads.append(lm)
        reducers.append((lm, h))

    for g in sorted(ideal.generators,
                    key=lambda h: (h.degree, order(h.leading_monomial(order)))):
        r = _reduce(g, reducers, meter, order)
        if not r.is_zero():
            add(r)

    while pairs:
        _, j, i = heapq.heappop(pairs)
        li, lj = leads[i], leads[j]
        if li.lcm(lj) == li.mul(lj):
            continue  # coprime leading terms; S-poly reduces to zero
        r = _reduce(_s_poly(basis[i], basis[j], li, lj), reducers, meter,
                    order)
        if not r.is_zero():
            add(r)

    # minimalize on the stored leading monomials, then inter-reduce the
    # (monic) survivors that have a term in another's leading ideal
    minimal: List[int] = []
    for k in sorted(range(len(basis)), key=lambda k: order(leads[k])):
        lm = leads[k]
        if any(leads[h].divides(lm) for h in minimal):
            continue
        minimal = [h for h in minimal if not lm.divides(leads[h])]
        minimal.append(k)
    reduced = []
    for k in reversed(minimal):  # ascending keys, so largest lead first
        others = [reducers[h] for h in minimal if h != k]
        g = basis[k]
        if any(lm.divides(m) for m in g.terms for lm, _ in others):
            g = _reduce(g, others, meter, order)
        reduced.append(g)
    return reduced


def normal_form(p: HomogPoly, basis: Sequence[HomogPoly]) -> HomogPoly:
    for g in basis:
        if g.num_vars != p.num_vars:
            raise ValidationError("variable count mismatch in normal form")
    return _reduce_full(p, basis)


# ---------------------------------------------------------------------------
# Hilbert numerator of a monomial ideal
# ---------------------------------------------------------------------------

# fine-graded numerator: exponent vector a -> coefficient of t^a
Numerator = Dict[Tuple[int, ...], int]


def _numerator(n: int, gens: FrozenSet[Monomial], memo: Dict) -> Numerator:
    """Fine-graded Hilbert numerator K of R/<gens>, R in n variables.

    The Hilbert series of R/<gens> is K(t) / prod(1 - t_i); ``gens`` are
    minimal generators.  The pivot x, the variable in most generators,
    splits the ideal (Bayer-Stillman): the exact sequence
    0 -> R/(I : x)(-e_x) -> R/I -> R/(J + (x)) -> 0 with J = <gens without
    x> gives K(I) = (1 - t_x) K(J) + t_x K(I : x), where J has fewer
    generators and I : x a smaller total degree.  Entries depend only on
    their generator set, so one memo serves every ideal in n variables.
    """
    got = memo.get(gens)
    if got is not None:
        return got
    counts = [sum(map(bool, column)) for column in zip(*gens)]
    if not any(counts):
        out = {} if gens else {(0,) * n: 1}     # K(<1>) = 0, K(<>) = 1
    else:
        x = counts.index(max(counts))
        without = frozenset(g for g in gens if not g[x])
        lowered = [_tuple_new(Monomial, g[:x] + (g[x] - 1,) + g[x + 1:])
                   for g in gens if g[x]]
        # of minimal gens, only one without x can be a multiple of a g / x
        quot = frozenset(lowered).union(
            g for g in without if not any(h.divides(g) for h in lowered))
        low = _numerator(n, without, memo)
        out = dict(low)
        for part, sign in ((low, -1), (_numerator(n, quot, memo), 1)):
            for a, v in part.items():
                b = a[:x] + (a[x] + 1,) + a[x + 1:]
                out[b] = out.get(b, 0) + sign * v
    out = {a: v for a, v in out.items() if v}
    memo[gens] = out
    return out


def _by_degree(K: Numerator) -> Dict[int, int]:
    """K(t, ..., t): the numerator of the ordinary Hilbert series."""
    out: Dict[int, int] = {}
    for a, v in K.items():
        out[sum(a)] = out.get(sum(a), 0) + v
    return {d: v for d, v in out.items() if v}


class Variety:
    """Projective variety (or scheme) cut out by a homogeneous ideal."""

    def __init__(self, ideal: Ideal, budget: int = DEFAULT_REDUCTION_BUDGET):
        self.ideal = ideal
        self._budget = budget
        # the basis is built as groebner_basis(_added, seed=_parent's
        # basis): the whole ideal from scratch, or a cut's forms on top of
        # the variety it cuts
        self._added = ideal
        self._parent: Optional[Variety] = None
        self._basis: Optional[List[HomogPoly]] = None
        self._leading: Optional[FrozenSet[Monomial]] = None
        self._weighted_leading: Dict[Tuple, FrozenSet[Monomial]] = {}
        self._hilbert_memo: Dict = {}
        self._coarse: Optional[Dict[int, int]] = None
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
            seed = () if self._parent is None else self._parent.groebner
            self._basis = groebner_basis(self._added, self._budget,
                                         seed=seed)
            self._leading = frozenset(
                g.leading_monomial() for g in self._basis)
        return self._basis

    def cut(self, forms: Sequence[HomogPoly]) -> "Variety":
        """V cut by the given forms.

        The child's Groebner basis extends ``self.groebner`` by the forms,
        so only the pairs they bring are checked; neither basis is built
        before the child's is asked for.  The child shares this variety's
        Hilbert-numerator memo, whose entries depend on nothing but their
        key.
        """
        added = Ideal(self.num_vars, forms)
        child = Variety(Ideal(self.num_vars,
                              self.ideal.generators + added.generators),
                        self._budget)
        child._added = added
        child._parent = self
        child._hilbert_memo = self._hilbert_memo
        return child

    def weighted_leading(self, c: WeightVector) -> FrozenSet[Monomial]:
        """Minimal generators of in_c(I), the initial ideal in the order of
        :func:`~smtlab.exact_algebra.weighted_key`; cached per weight
        vector."""
        got = self._weighted_leading.get(c.entries)
        if got is None:
            key = weighted_key(c)
            got = frozenset(
                g.leading_monomial(key)
                for g in groebner_basis(self.ideal, self._budget, key))
            self._weighted_leading[c.entries] = got
        return got

    def numerator(self, c: Optional[WeightVector] = None) -> Numerator:
        """Fine-graded Hilbert numerator (:func:`_numerator`) of the grevlex
        leading ideal, or of in_c(I) when a weight vector c is given."""
        if c is None:
            self.groebner
        gens = self._leading if c is None else self.weighted_leading(c)
        return _numerator(self.num_vars, gens, self._hilbert_memo)

    def coarse_numerator(self) -> Dict[int, int]:
        """The numerator of the ordinary Hilbert series, by degree."""
        if self._coarse is None:
            self._coarse = _by_degree(self.numerator())
        return self._coarse

    def hilbert_function(self, u: int) -> int:
        if u < 0:
            raise ValueError("Hilbert function argument must be >= 0")
        # sum of K_d C(u - d + n - 1, n - 1), zero past u
        n = self.num_vars
        return sum(v * math.comb(u - d + n - 1, n - 1)
                   for d, v in self.coarse_numerator().items() if d <= u)

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


def variety_dim_degree(X: Variety) -> Tuple[int, int]:
    """(dim, degree) of X from the grevlex Hilbert numerator K(t).

    The Hilbert series is K(t) / (1 - t)^n, so if K(t) = (1 - t)^m L(t)
    with L(1) != 0, then dim = n - 1 - m and degree = L(1), where
    (-1)^m L(1) = K^(m)(1) / m! = sum_d K_d C(d, m).  (-1, 0) for an
    empty X, where m >= n or K = 0.
    """
    K, n = X.coarse_numerator(), X.num_vars
    for m in range(n):
        top = sum(v * math.comb(d, m) for d, v in K.items())
        if top:
            return n - 1 - m, (-1) ** m * top
    return -1, 0


def intersection_dim(V: Variety, forms: Sequence[HomogPoly]) -> int:
    """dim of V cut by the given forms; -1 encodes the empty intersection."""
    return V.cut(forms).dim
