"""Groebner engine against hand reductions and rank-based Hilbert oracles."""

import heapq
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from smtlab import groebner
from smtlab.errors import BudgetExceededError
from smtlab.exact_algebra import (
    HomogPoly,
    Monomial,
    WeightVector,
    grevlex_key,
    monomials_of_degree,
    parse_homog_poly,
    rank_of_vectors,
    weighted_key,
)
from smtlab.groebner import (
    Ideal,
    Variety,
    _by_degree,
    _numerator,
    _reduce_full,
    _s_poly,
    groebner_basis,
    intersection_dim,
    normal_form,
)
from smtlab.scalars import GaussianRational
from smtlab.weights import hilbert_weight


def ideal(num_vars, *texts):
    return Ideal(num_vars, [parse_homog_poly(t, num_vars) for t in texts])


CONIC = ideal(3, "x0*x2 - x1^2")
TWISTED_CUBIC = ideal(4, "x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2")
CI23 = ideal(4, "2*x0^2 - 3*x1^2 + x2*x3",
             "x1^3 + 4*x0*x2^2 - x3^3 + 2*x0*x1*x3")
WEIGHTS = [WeightVector([0, 0, 0, 0]), WeightVector([1, 2, 3, 4]),
           WeightVector([4, 0, 0, 1]), WeightVector([Fraction(1, 2), 3, 0, 3])]


def scale(g, c):
    """c times g."""
    return g * HomogPoly.monomial(g.num_vars, (0,) * g.num_vars, c)


def hilbert_rank_oracle(idl, u):
    """H(u) by exact linear algebra: codimension of the degree-u slice.

    Spans (I)_u by all monomial multiples of the generators, independent of
    any leading-term reasoning.
    """
    vectors = []
    for g in idl.generators:
        if g.degree > u:
            continue
        for m in monomials_of_degree(idl.num_vars, u - g.degree):
            vectors.append(dict((g * HomogPoly.monomial(idl.num_vars, m))
                                .terms))
    return (math.comb(idl.num_vars - 1 + u, u)
            - rank_of_vectors(vectors))


# -- basis computation ------------------------------------------------------

def test_single_variable_basis():
    gb = groebner_basis(ideal(2, "x0"))
    assert gb == [parse_homog_poly("x0", 2)]


def test_single_relation_already_reduced():
    gb = groebner_basis(CONIC)
    assert len(gb) == 1
    # monic form with grevlex leading term x1^2
    assert gb[0] == parse_homog_poly("x1^2 - x0*x2", 3)
    assert gb[0].leading_monomial() == Monomial((0, 2, 0))


def test_linear_elimination():
    gb = groebner_basis(ideal(2, "x0 + x1", "x0 - x1"))
    assert gb == [parse_homog_poly("x0", 2), parse_homog_poly("x1", 2)]


def test_buchberger_criterion_on_result():
    gb = groebner_basis(TWISTED_CUBIC)
    assert len(gb) >= 3
    for i in range(len(gb)):
        for j in range(i):
            s = _s_poly(gb[i], gb[j], gb[i].leading_monomial(),
                        gb[j].leading_monomial())
            assert normal_form(s, gb).is_zero()
    for g in TWISTED_CUBIC.generators:
        assert normal_form(g, gb).is_zero()


def test_weighted_basis_buchberger_criterion():
    for idl in (TWISTED_CUBIC, CI23):
        for c in WEIGHTS:
            key = weighted_key(c)
            gb = groebner_basis(idl, key=key)
            for i in range(len(gb)):
                for j in range(i):
                    s = _s_poly(gb[i], gb[j], gb[i].leading_monomial(key),
                                gb[j].leading_monomial(key))
                    assert _reduce_full(s, gb, key=key).is_zero()
            for g in idl.generators:
                assert _reduce_full(g, gb, key=key).is_zero()


def direct_count(leading, num_vars, u):
    """Degree-u monomials that no generator divides, listed one by one."""
    return sum(1 for m in monomials_of_degree(num_vars, u)
               if not any(g.divides(m) for g in leading))


def test_weighted_initial_ideal_hilbert_function():
    # a flat degeneration keeps the Hilbert function of grevlex
    for idl in (TWISTED_CUBIC, CI23):
        X = Variety(idl)
        for c in WEIGHTS:
            leading = X.weighted_leading(c)
            # the in_c(I) numerator is memo-independent and has the
            # Hilbert series of the grevlex leading ideal
            fine = _numerator(4, leading, {})
            assert fine == X.numerator(c)
            assert _by_degree(fine) == _by_degree(X.numerator())
            for u in range(13):
                assert (X.hilbert_function(u)
                        == direct_count(leading, 4, u)), (c, u)


def test_grevlex_leading_terms_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x0:4")
    cases = [
        ("x0*x2 - x1**2",),
        ("x0*x2 - x1**2", "x0*x3 - x1*x2", "x1*x3 - x2**2"),
        ("2*x0**2 - 3*x1**2 + x2*x3",
         "x1**3 + 4*x0*x2**2 - x3**3 + 2*x0*x1*x3"),
    ]
    for texts in cases:
        n = 3 if len(texts) == 1 else 4
        ours = groebner_basis(ideal(n, *(t.replace("**", "^") for t in texts)))
        theirs = sympy.groebner([sympy.sympify(t) for t in texts], *x[:n],
                                order="grevlex")
        want = sorted(sympy.Poly(g, *x[:n]).monoms(order="grevlex")[0]
                      for g in theirs.exprs)
        assert sorted(g.leading_monomial() for g in ours) == want


def test_budget_error():
    with pytest.raises(BudgetExceededError):
        groebner_basis(TWISTED_CUBIC, budget=0)


# -- seeded bases -------------------------------------------------------------

def gaussian_form(rng, num_vars, degree):
    """A sparse form whose coefficients are mostly non-real, so reductions
    run the general Gaussian arithmetic and not only the real shortcuts."""
    terms = {}
    for m in monomials_of_degree(num_vars, degree):
        if rng.random() < 0.5:
            terms[m] = GaussianRational(Fraction(rng.randint(-4, 4),
                                                 rng.randint(1, 3)),
                                        rng.randint(-3, 3))
    return HomogPoly(num_vars, degree, terms)


def seeded_families(trials, seed):
    """(num_vars, subideal generators, extra forms) drawn at random."""
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.choice((3, 4))
        base = [gaussian_form(rng, n, rng.choice((1, 2)))
                for _ in range(rng.randint(0, 2))]
        extra = [gaussian_form(rng, n, rng.choice((1, 2)))
                 for _ in range(rng.randint(1, 2))]
        yield n, base, extra


def test_seeded_basis_matches_scratch():
    for n, base, extra in seeded_families(40, 5):
        seed = groebner_basis(Ideal(n, base))
        got = groebner_basis(Ideal(n, extra), seed=seed)
        assert got == groebner_basis(Ideal(n, base + extra)), (base, extra)
        # a subideal's generators on top of its own basis add nothing
        assert groebner_basis(Ideal(n, base), seed=seed) == seed


def test_seeded_basis_matches_scratch_weighted():
    weights = [WeightVector([1, 2, 3, 4]), WeightVector([4, 0, 0, 1]),
               WeightVector([Fraction(1, 2), 3, 0])]
    rng = random.Random(6)
    for n, base, extra in seeded_families(30, 7):
        c = rng.choice([w for w in weights if len(w) == n])
        key = weighted_key(c)
        seed = groebner_basis(Ideal(n, base), key=key)
        got = groebner_basis(Ideal(n, extra), key=key, seed=seed)
        assert got == groebner_basis(Ideal(n, base + extra), key=key)


def test_cut_matches_fresh_variety():
    rng = random.Random(8)
    for idl in (ideal(3), CONIC, TWISTED_CUBIC, CI23):
        n = idl.num_vars
        V = Variety(idl)
        for _ in range(4):
            first = [gaussian_form(rng, n, rng.choice((1, 2)))]
            second = [gaussian_form(rng, n, 1)]
            child = V.cut(first)
            grandchild = child.cut(second)
            assert grandchild._hilbert_memo is V._hilbert_memo
            for X, forms in ((child, first), (grandchild, first + second)):
                fresh = Variety(Ideal(n, list(idl.generators) + forms))
                assert X.groebner == fresh.groebner
                assert X.dim_degree() == fresh.dim_degree()
                assert intersection_dim(V, forms) == fresh.dim


def test_seeded_basis_budget_error():
    seed = groebner_basis(TWISTED_CUBIC)
    form = parse_homog_poly("x0*x1 + x2^2", 4)
    with pytest.raises(BudgetExceededError):
        groebner_basis(Ideal(4, [form]), budget=0, seed=seed)
    # P^3 has the empty basis, and one linear form needs no reduction;
    # the second form reduces against the first
    line = Variety(ideal(4), budget=0).cut([parse_homog_poly("x0 + x1", 4)])
    assert line.dim == 2
    with pytest.raises(BudgetExceededError):
        line.cut([parse_homog_poly("x0 + x3", 4)]).dim


# -- the kernel against a dividing reference ----------------------------------
#
# A copy of the straightforward kernel: every monomial is built through the
# validating constructor, every order key is recomputed, and each reduction
# step divides by the reducer's leading coefficient.  It counts its
# reduction steps, the steps the library's ``_Budget`` charges.

def _mono(exps):
    return Monomial(tuple(exps))


def ref_reduce(p, triples, steps, key):
    result_terms = {}
    work = dict(p.terms)
    while work:
        mono = max(work, key=key)
        coeff = work.pop(mono)
        hit = next((t for t in triples
                    if all(a <= b for a, b in zip(t[0], mono))), None)
        if hit is None:
            result_terms[mono] = coeff
            continue
        steps[0] += 1
        lm, lc, g = hit
        quot = _mono(a - b for a, b in zip(mono, lm))
        factor = coeff / lc
        for gm, gc in g.terms.items():
            if gm == lm:
                continue
            shifted = _mono(a + b for a, b in zip(gm, quot))
            cur = work.get(shifted)
            new = (cur - factor * gc) if cur is not None else -(factor * gc)
            if new.is_zero():
                work.pop(shifted, None)
            else:
                work[shifted] = new
    return HomogPoly(p.num_vars, p.degree, result_terms)


def ref_s_poly(f, g, key):
    lf, lg = f.leading_monomial(key), g.leading_monomial(key)
    l = _mono(max(a, b) for a, b in zip(lf, lg))
    n = f.num_vars
    a = HomogPoly.monomial(n, _mono(x - y for x, y in zip(l, lf)),
                           1 / f.terms[lf])
    b = HomogPoly.monomial(n, _mono(x - y for x, y in zip(l, lg)),
                           1 / g.terms[lg])
    return a * f - b * g


def ref_groebner_basis(idl, key=grevlex_key, seed=()):
    """(reduced basis, reduction steps), seed assumed monic."""
    steps = [0]
    basis = list(seed)
    leads = [g.leading_monomial(key) for g in basis]
    triples = [(lm, g.terms[lm], g) for lm, g in zip(leads, basis)]
    pairs = []

    def lcm(a, b):
        return _mono(max(x, y) for x, y in zip(a, b))

    def add(h):
        h = h.monic(key)
        lm = h.leading_monomial(key)
        k = len(basis)
        for i, li in enumerate(leads):
            heapq.heappush(pairs, (lcm(li, lm).degree, k, i))
        basis.append(h)
        leads.append(lm)
        triples.append((lm, h.terms[lm], h))

    for g in sorted(idl.generators,
                    key=lambda h: (h.degree, key(h.leading_monomial(key)))):
        r = ref_reduce(g, triples, steps, key)
        if not r.is_zero():
            add(r)
    while pairs:
        _, j, i = heapq.heappop(pairs)
        li, lj = leads[i], leads[j]
        if lcm(li, lj) == _mono(a + b for a, b in zip(li, lj)):
            continue
        r = ref_reduce(ref_s_poly(basis[i], basis[j], key), triples, steps,
                       key)
        if not r.is_zero():
            add(r)
    minimal = []
    for k in sorted(range(len(basis)), key=lambda k: key(leads[k])):
        lm = leads[k]
        if any(leads[h].divides(lm) for h in minimal):
            continue
        minimal = [h for h in minimal if not lm.divides(leads[h])]
        minimal.append(k)
    reduced = []
    for k in reversed(minimal):
        others = [triples[h] for h in minimal if h != k]
        g = basis[k]
        if any(lm.divides(m) for m in g.terms for lm, _, _ in others):
            g = ref_reduce(g, others, steps, key)
        reduced.append(g)
    return reduced, steps[0]


def counted_basis(monkeypatch, *args, **kwargs):
    """(groebner_basis(...), number of _Budget.spend calls it made)."""
    spent = [0]
    spend = groebner._Budget.spend

    def counting(self, amount=1):
        spent[0] += 1
        spend(self, amount)

    monkeypatch.setattr(groebner._Budget, "spend", counting)
    basis = groebner_basis(*args, **kwargs)
    monkeypatch.undo()
    return basis, spent[0]


def test_kernel_matches_dividing_reference(monkeypatch):
    # grevlex and a weighted order run back to back on the same monomials,
    # as in weights-ladder.  The reference's step count is also the budget,
    # so a kernel that stops cancelling leading terms fails at once instead
    # of reducing on with ever longer coefficients.
    weights = {3: WeightVector([Fraction(1, 2), 3, 0]),
               4: WeightVector([4, 0, 1, 2])}
    two_i = GaussianRational(2, 1)
    for n, base, extra in seeded_families(40, 11):
        for key in (grevlex_key, weighted_key(weights[n])):
            want, want_steps = ref_groebner_basis(Ideal(n, base + extra), key)
            got, steps = counted_basis(monkeypatch, Ideal(n, base + extra),
                                       want_steps, key)
            assert (got, steps) == (want, want_steps), (base, extra)
            seed, _ = ref_groebner_basis(Ideal(n, base), key)
            want, want_steps = ref_groebner_basis(Ideal(n, extra), key, seed)
            got, steps = counted_basis(monkeypatch, Ideal(n, extra),
                                       want_steps, key, seed=seed)
            assert (got, steps) == (want, want_steps), (base, extra)
            # a seed off by a unit is made monic on entry
            scaled = [scale(g, two_i) for g in seed]
            assert groebner_basis(Ideal(n, extra), want_steps, key,
                                  seed=scaled) == want


def test_normal_form_by_non_monic_basis_matches_reference():
    rng = random.Random(12)
    for n, base, extra in seeded_families(20, 13):
        unit = GaussianRational(rng.randint(1, 3), rng.randint(-2, 2))
        basis = [scale(g, unit)
                 for g in ref_groebner_basis(Ideal(n, base + extra))[0]]
        triples = [(g.leading_monomial(), g.leading_coefficient(), g)
                   for g in basis]
        for p in [gaussian_form(rng, n, 2), gaussian_form(rng, n, 3)]:
            want = ref_reduce(p, triples, [0], grevlex_key) if basis else p
            assert normal_form(p, basis) == want


def test_kernel_cost_guard(monkeypatch):
    # one fixed conic pair with non-real coefficients
    conics = ideal(3, "x0*x2 - x1^2", "x0*x1 - (2+i)*x2^2 + (1/3)*x1*x2")
    calls = Counter()

    def key(m):
        calls[m] += 1
        return grevlex_key(m)

    made = []
    validating = Monomial.__new__

    def counting_new(cls, exponents):
        made.append(exponents)
        return validating(cls, exponents)

    monkeypatch.setattr(Monomial, "__new__", staticmethod(counting_new))
    basis = groebner_basis(conics, budget=100, key=key)
    X = Variety(TWISTED_CUBIC)
    hilbert = [X.hilbert_function(u) for u in range(8)]
    weight = hilbert_weight(X, 6, WeightVector([1, 2, 3, 4]))
    monkeypatch.undo()
    assert len(basis) > 2
    assert max(calls.values()) == 1       # each order key computed once
    assert made == []                     # no monomial validated again
    assert hilbert == [1] + [3 * u + 1 for u in range(1, 8)]
    assert len(weight.basis) == hilbert[6]

    # a dense plane nonic, not monic: one leading-monomial scan for the
    # generator and one for the element it adds
    nonic = HomogPoly(3, 9, {m: GaussianRational(k + 2, k % 3) for k, m
                             in enumerate(monomials_of_degree(3, 9))})
    scans = []
    scan = HomogPoly.leading_monomial

    def counting_scan(self, key=grevlex_key):
        scans.append(self)
        return scan(self, key)

    monkeypatch.setattr(HomogPoly, "leading_monomial", counting_scan)
    basis = groebner_basis(Ideal(3, [nonic]))
    nonic_scans = len(scans)
    cubic = groebner_basis(TWISTED_CUBIC)
    monkeypatch.undo()
    assert basis == [nonic.monic()]
    assert nonic_scans <= 2
    # the twisted cubic: three scans sort the generators and three find
    # the leads of the elements they add; S-pairs reuse the stored leads
    assert len(cubic) == 3
    assert len(scans) - nonic_scans <= 6


def test_public_constructors_still_validate():
    with pytest.raises(ValueError):
        Monomial((1, -1))
    with pytest.raises(ValueError):
        HomogPoly(3, 2, {(1, 1): GaussianRational(1)})        # arity
    with pytest.raises(ValueError):
        HomogPoly(3, 2, {(1, 1, 1): GaussianRational(1)})     # degree


# -- normal forms ----------------------------------------------------------

def test_normal_form_conic():
    gb = groebner_basis(CONIC)
    p = parse_homog_poly("x1^2", 3)
    nf = normal_form(p, gb)
    assert nf == parse_homog_poly("x0*x2", 3)
    # difference is in the ideal
    assert normal_form(p - nf, gb).is_zero()


def test_normal_form_pure_power():
    gb = groebner_basis(ideal(2, "x0"))
    assert normal_form(parse_homog_poly("x0^3", 2), gb).is_zero()


def test_normal_form_zero_ideal():
    p = parse_homog_poly("x0^2 + x1*x2", 3)
    assert normal_form(p, []) == p


def test_normal_form_no_divisible_terms():
    gb = groebner_basis(TWISTED_CUBIC)
    leads = [g.leading_monomial() for g in gb]
    p = parse_homog_poly("x1^2*x3 + x2^3 - x0*x1*x2", 4)
    nf = normal_form(p, gb)
    for mono in nf.terms:
        assert not any(lm.divides(mono) for lm in leads)


# -- Hilbert functions --------------------------------------------------------

def test_hilbert_projective_plane():
    X = Variety(ideal(3))
    assert X.hilbert_function(3) == 10
    assert [X.hilbert_function(u) for u in range(4)] == [1, 3, 6, 10]


def test_hilbert_conic_frozen():
    X = Variety(CONIC)
    assert X.hilbert_function(2) == 5
    assert X.hilbert_function(3) == 7
    for u in range(1, 8):
        assert X.hilbert_function(u) == 2 * u + 1


def test_hilbert_matches_rank_oracle():
    for idl, cap in ((CONIC, 6), (TWISTED_CUBIC, 5),
                     (ideal(3, "x0^2 + x1*x2", "x1^3"), 6)):
        X = Variety(idl)
        for u in range(cap + 1):
            assert X.hilbert_function(u) == hilbert_rank_oracle(idl, u)


def test_recursion_matches_direct_count():
    # leading monomials that share variables, pure powers, the zero ideal
    for idl, cap in ((TWISTED_CUBIC, 7), (CI23, 9),
                     (ideal(3, "x0^2 + x1*x2", "x1^3"), 8),
                     (ideal(3, "x0*x1", "x1*x2", "x0*x2"), 6),
                     (ideal(4, "x0^2*x1", "x0*x1^2*x3", "x1*x2^2", "x3^3"), 9),
                     (ideal(2), 5)):
        X = Variety(idl)
        X.groebner
        for u in range(cap):
            assert (X.hilbert_function(u)
                    == direct_count(X._leading, idl.num_vars, u)), (idl, u)


# -- dimension and degree ------------------------------------------------------

def test_dim_degree_conic():
    assert Variety(CONIC).dim_degree() == (1, 2)


def test_dim_degree_projective_plane():
    assert Variety(ideal(3)).dim_degree() == (2, 1)


def test_dim_degree_irrelevant_ideal():
    assert Variety(ideal(3, "x0", "x1", "x2")).dim_degree() == (-1, 0)


def test_dim_degree_twisted_cubic():
    assert Variety(TWISTED_CUBIC).dim_degree() == (1, 3)


def test_dim_degree_two_points():
    X = Variety(ideal(3, "x0", "x1*x2"))
    assert X.dim_degree() == (0, 2)


def test_hypersurface_dim_degree_sweep():
    for n in range(2, 5):
        for d in range(1, 5):
            text = " + ".join(f"x{i}^{d}" for i in range(n + 1))
            X = Variety(ideal(n + 1, text))
            assert X.dim_degree() == (n - 1, d), (n, d)


# -- intersections and emptiness ---------------------------------------------

def test_intersection_dims():
    plane = Variety(ideal(3))
    forms = [parse_homog_poly("x0", 3), parse_homog_poly("x1", 3)]
    assert intersection_dim(plane, forms) == 0
    forms.append(parse_homog_poly("x2", 3))
    assert intersection_dim(plane, forms) == -1
    conic = Variety(CONIC)
    assert intersection_dim(conic, [parse_homog_poly("x1", 3)]) == 0


def test_empty_iff_pure_powers_in_leading_terms():
    cases = [
        ideal(3, "x0^2", "x1^3", "x2"),
        ideal(3, "x0^2", "x1^3"),
        ideal(3, "x0*x1", "x1*x2", "x0*x2"),
        ideal(4, "x0", "x1^2", "x2^3", "x3^4"),
        ideal(3, "x0^2 - x1^2", "x1^2 - x2^2", "x0*x1 + x2^2"),
    ]
    for idl in cases:
        X = Variety(idl)
        X.groebner
        leads = X._leading
        pure = all(
            any(set(i for i, e in enumerate(lm) if e) == {v} for lm in leads)
            for v in range(idl.num_vars))
        assert (X.dim == -1) == pure, str(idl)
