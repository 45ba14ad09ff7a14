"""Groebner engine against hand reductions and rank-based Hilbert oracles."""

import random
from fractions import Fraction

import pytest

from smtlab.errors import BudgetExceededError
from smtlab.exact_algebra import (
    HomogPoly,
    Monomial,
    WeightVector,
    monomial_count,
    monomials_of_degree,
    parse_homog_poly,
    rank_of_vectors,
    weighted_key,
)
from smtlab.groebner import (
    Ideal,
    Variety,
    _count_standard,
    _reduce_full,
    _s_poly,
    groebner_basis,
    intersection_dim,
    normal_form,
    variety_dim_degree,
)
from smtlab.scalars import GaussianRational


def ideal(num_vars, *texts):
    return Ideal(num_vars, [parse_homog_poly(t, num_vars) for t in texts])


CONIC = ideal(3, "x0*x2 - x1^2")
TWISTED_CUBIC = ideal(4, "x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2")
CI23 = ideal(4, "2*x0^2 - 3*x1^2 + x2*x3",
             "x1^3 + 4*x0*x2^2 - x3^3 + 2*x0*x1*x3")
WEIGHTS = [WeightVector([0, 0, 0, 0]), WeightVector([1, 2, 3, 4]),
           WeightVector([4, 0, 0, 1]), WeightVector([Fraction(1, 2), 3, 0, 3])]


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
            vectors.append(dict(g.mul_monomial(m).terms))
    return monomial_count(idl.num_vars, u) - rank_of_vectors(vectors)


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
            assert normal_form(_s_poly(gb[i], gb[j]), gb).is_zero()
    for g in TWISTED_CUBIC.generators:
        assert normal_form(g, gb).is_zero()


def test_weighted_basis_buchberger_criterion():
    for idl in (TWISTED_CUBIC, CI23):
        for c in WEIGHTS:
            key = weighted_key(c)
            gb = groebner_basis(idl, key=key)
            for i in range(len(gb)):
                for j in range(i):
                    assert _reduce_full(_s_poly(gb[i], gb[j], key), gb,
                                        key=key).is_zero()
            for g in idl.generators:
                assert _reduce_full(g, gb, key=key).is_zero()


def test_weighted_initial_ideal_hilbert_function():
    # a flat degeneration keeps the Hilbert function of grevlex
    for idl in (TWISTED_CUBIC, CI23):
        X = Variety(idl)
        for c in WEIGHTS:
            leading = X.weighted_leading(c)
            memo = {}
            for u in range(13):
                assert (_count_standard(4, u, leading, memo)
                        == X.hilbert_function(u)), (c, u)


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
    X = Variety(TWISTED_CUBIC)
    X.groebner
    leads = sorted(X._leading)
    for u in range(7):
        direct = sum(1 for m in monomials_of_degree(4, u)
                     if not any(g.divides(m) for g in leads))
        assert X.hilbert_function(u) == direct


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
