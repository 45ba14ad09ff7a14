"""Hilbert/Chow weights against brute-force and closed-form oracles."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from smtlab.errors import CertificationError, ValidationError
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
from smtlab.groebner import Ideal, Variety, normal_form, variety_dim_degree
from smtlab.weights import (
    _weighted_numerator,
    check_chow_lower_bound,
    check_evertse_ferretti,
    chow_weight_estimate,
    hilbert_weight,
)


def projective_space(n):
    return Variety(Ideal(n + 1, []))


def conic():
    return Variety(Ideal(3, [parse_homog_poly("x0*x2 - x1^2", 3)]))


def twisted_cubic():
    return Variety(Ideal(4, [parse_homog_poly("x0*x2 - x1^2", 4),
                             parse_homog_poly("x0*x3 - x1*x2", 4),
                             parse_homog_poly("x1*x3 - x2^2", 4)]))


def brute_force_weight(X, u, c, nf_cache):
    """Exhaustive max over all independent monomial subsets of full size."""
    mons = monomials_of_degree(X.num_vars, u)
    if u not in nf_cache:
        nf_cache[u] = {
            m: dict(normal_form(HomogPoly.monomial(X.num_vars, m),
                                X.groebner).terms)
            for m in mons}
    nfs = nf_cache[u]
    H = X.hilbert_function(u)
    best = None
    for combo in combinations(mons, H):
        vecs = [nfs[m] for m in combo]
        if any(not v for v in vecs):
            continue
        if rank_of_vectors(vecs) != H:
            continue
        val = sum((c.dot(m) for m in combo), Fraction(0))
        if best is None or val > best:
            best = val
    return best


def greedy_weight(X, u, c):
    """The matroid greedy sweep: largest c-weight first, grevlex-largest on
    ties, keeping each monomial whose residue is independent of those kept."""
    candidates = sorted(monomials_of_degree(X.num_vars, u),
                        key=lambda m: (c.dot(m), grevlex_key(m)),
                        reverse=True)
    target = X.hilbert_function(u)
    chosen, residues = [], []
    for m in candidates:
        if len(chosen) == target:
            break
        residue = normal_form(HomogPoly.monomial(X.num_vars, m), X.groebner)
        if (not residue.is_zero() and rank_of_vectors(
                residues + [dict(residue.terms)]) > len(residues)):
            chosen.append(m)
            residues.append(dict(residue.terms))
    assert len(chosen) == target
    return sum((c.dot(m) for m in chosen), Fraction(0)), tuple(chosen)


def scaled_rnc(n, s):
    """2x2 minors of the degree-n rational normal curve after the diagonal
    scaling x_i -> s_i x_i."""
    gens = []
    for i in range(n):
        for j in range(i + 1, n):
            a, b = [0] * (n + 1), [0] * (n + 1)
            a[i] += 1
            a[j + 1] += 1
            b[i + 1] += 1
            b[j] += 1
            gens.append(HomogPoly(n + 1, 2, {
                Monomial(a): Fraction(s[i] * s[j + 1]),
                Monomial(b): Fraction(-s[i + 1] * s[j])}))
    return Variety(Ideal(n + 1, gens))


def random_weights(rng, length):
    return WeightVector([Fraction(rng.randint(0, 9), rng.randint(1, 4))
                         for _ in range(length)])


# -- Hilbert weights ------------------------------------------------------------

def test_p1_full_basis_frozen():
    res = hilbert_weight(projective_space(1), 2, WeightVector([1, 0]))
    assert res.value == 3
    assert sorted(res.basis) == sorted(monomials_of_degree(2, 2))


def test_projective_space_identity():
    # sum of any single exponent over all degree-u monomials is symmetric
    rng = random.Random(11)
    for n in (1, 2, 3):
        X = projective_space(n)
        for u in (1, 2, 4, 6):
            c = random_weights(rng, n + 1)
            res = hilbert_weight(X, u, c)
            H = X.hilbert_function(u)
            want = c.total() * u * H / (n + 1)
            assert res.value == want


def test_conic_greedy_equals_brute_force():
    X = conic()
    rng = random.Random(3)
    cache = {}
    for _ in range(25):
        c = random_weights(rng, 3)
        for u in (2, 3):
            assert hilbert_weight(X, u, c).value == brute_force_weight(
                X, u, c, cache)


def test_twisted_cubic_greedy_equals_brute_force():
    X = twisted_cubic()
    rng = random.Random(8)
    cache = {}
    for _ in range(4):
        c = random_weights(rng, 4)
        # u = 2: 10 monomials, H = 7, C(10,7) = 120 subsets
        assert hilbert_weight(X, 2, c).value == brute_force_weight(
            X, 2, c, cache)


def test_weighted_initial_ideal_matches_greedy_sweep():
    # zeros and ties in c are where the grevlex tie-break decides the basis
    rng = random.Random(29)
    dense_quintic = HomogPoly(3, 5, {
        m: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        for m in monomials_of_degree(3, 5)})
    varieties = [
        (scaled_rnc(3, [2, -1, 3, 1]), 4),
        (scaled_rnc(4, [1, 3, -2, 1, 2]), 3),
        (Variety(Ideal(3, [dense_quintic])), 7),
        (Variety(Ideal(4, [
            parse_homog_poly("2*x0^2 - 3*x1^2 + x2*x3", 4),
            parse_homog_poly("x1^3 + 4*x0*x2^2 - x3^3 + 2*x0*x1*x3", 4),
        ])), 5),
    ]
    for X, u_top in varieties:
        n = X.num_vars
        weights = [WeightVector([0] * n), WeightVector([1] * n),
                   WeightVector([2, 0] * (n // 2) + [2] * (n % 2))]
        weights += [WeightVector([Fraction(rng.randint(0, 3),
                                           rng.randint(1, 2))
                                  for _ in range(n)]) for _ in range(4)]
        for c in weights:
            for u in range(1, u_top + 1):
                res = hilbert_weight(X, u, c)
                assert (res.value, res.basis) == greedy_weight(X, u, c), (c, u)
            # the closed form against the standard monomials listed one by
            # one, below and above the top numerator degree max |a|
            leading = X.weighted_leading(c)
            for u in range(1, 13):
                standard = sorted(
                    (m for m in monomials_of_degree(n, u)
                     if not any(g.divides(m) for g in leading)),
                    key=weighted_key(c))
                res = hilbert_weight(X, u, c)
                assert res.basis == tuple(standard), (c, u)
                assert res.value == sum((c.dot(m) for m in standard),
                                        Fraction(0)), (c, u)


def test_positive_scaling():
    X = conic()
    c = WeightVector([Fraction(3, 2), 0, Fraction(1, 3)])
    lam = Fraction(7, 5)
    scaled = WeightVector([lam * e for e in c])
    a = hilbert_weight(X, 3, c)
    b = hilbert_weight(X, 3, scaled)
    assert b.value == lam * a.value
    assert b.basis == a.basis


def test_fixed_basis_never_beats_optimum():
    X = conic()
    ca = WeightVector([2, 0, 1])
    cb = WeightVector([0, 3, 1])
    combined = WeightVector([2, 3, 2])
    opt = hilbert_weight(X, 3, combined).value
    for res in (hilbert_weight(X, 3, ca), hilbert_weight(X, 3, cb)):
        fixed_eval = sum((combined.dot(m) for m in res.basis), Fraction(0))
        assert fixed_eval <= opt


def test_weight_validation():
    with pytest.raises(ValidationError):
        hilbert_weight(projective_space(1), 0, WeightVector([1, 0]))
    with pytest.raises(ValidationError):
        hilbert_weight(projective_space(1), 2, WeightVector([1, 0, 0]))
    # an initial ideal whose Hilbert series differs from the grevlex one
    X = conic()
    c = WeightVector([1, 0, 0])
    X._weighted_leading[c.entries] = frozenset([Monomial((0, 1, 0))])
    with pytest.raises(CertificationError, match="Hilbert series"):
        hilbert_weight(X, 2, c)
    with pytest.raises(CertificationError, match="Hilbert series"):
        chow_weight_estimate(X, c, u_max=8)


# -- Chow estimates ------------------------------------------------------------

def test_chow_p1_exact():
    est = chow_weight_estimate(projective_space(1), WeightVector([2, 3]),
                               u_max=20)
    assert est.value == 5
    assert isinstance(est.value, Fraction)
    assert all(s == 5.0 for _, s in est.sequence)


def test_chow_p2_exact():
    est = chow_weight_estimate(projective_space(2), WeightVector([1, 1, 1]),
                               u_max=15)
    assert est.value == 3
    assert isinstance(est.value, Fraction)


def test_chow_conic_limit():
    # S(u, (1,0,0)) = u^2 on the conic, so s_u = 4u/(2u+1) -> 2
    est = chow_weight_estimate(conic(), WeightVector([1, 0, 0]), u_max=40)
    for u, s in est.sequence:
        assert abs(s - 4 * u / (2 * u + 1)) < 1e-12
    assert est.value == 2


def test_chow_conic_second_weight():
    est = chow_weight_estimate(conic(), WeightVector([1, 1, 0]), u_max=40)
    assert est.value == 3


def test_chow_weight_exact_closed_forms():
    rng = random.Random(29)
    # x2^5 present, so the curve misses {x0 = x1 = 0}: delta (c0 + c1)
    quintic = Variety(Ideal(3, [HomogPoly(3, 5, {
        m: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        for m in monomials_of_degree(3, 5)})]))
    # misses {x0 = x3 = 0}: 2 x1^2 = x2^2 and x1^3 = 2 x2^3 force x1 = x2 = 0
    ci23 = Variety(Ideal(4, [
        parse_homog_poly("x0^2 + 2*x1^2 - x2^2 + x3^2 + x0*x3", 4),
        parse_homog_poly("x0^3 - x1^3 + 2*x2^3 + x3^3 + x0*x1*x2", 4)]))
    cases = [(quintic, [3, 1, 0], 20),
             (scaled_rnc(4, [1, 3, -2, 1, 2]), [0, 0, 1, 3, 5], 20),
             (ci23, [2, 0, 1, 5], 42)]
    # the rational normal curve is toric: n(n+2) on the ladder (1..n+1)
    cases += [(scaled_rnc(n, [1, 2, -1, 3, 1][:n + 1]), range(1, n + 2),
               n * (n + 2)) for n in (2, 3, 4)]
    # projective space: the total weight
    cases += [(projective_space(n), c, sum(c))
              for n, c in ((1, [0, 7]), (2, [1, 4, 2]), (3, [5, 0, 0, 2]))]
    for X, c, want in cases:
        value = chow_weight_estimate(X, WeightVector(c), u_max=8).value
        assert isinstance(value, Fraction) and value == want, (c, value)


def test_numerator_dim_degree_against_bezout():
    rng = random.Random(31)

    def dense(deg):
        return HomogPoly(3, deg, {m: Fraction(rng.randint(-3, 3))
                                  for m in monomials_of_degree(3, deg)})

    def ideal(n, *gens):
        return Variety(Ideal(n, [parse_homog_poly(g, n) for g in gens]))

    cases = [(ideal(3, "x0^10"), (1, 10)),
             (Variety(Ideal(3, [dense(5), dense(5)])), (0, 25)),
             (ideal(3, "x0*x1", "x0*x2"), (1, 1)),
             (ideal(3, "x0", "x1", "x2"), (-1, 0)),
             (ideal(3, "x0", "x1", "x2 - x0"), (-1, 0)),
             (conic(), (1, 2)), (twisted_cubic(), (1, 3)),
             (projective_space(3), (3, 1))]
    for X, want in cases:
        assert variety_dim_degree(X) == want


def test_chow_weight_of_x0_power_against_brute_force():
    # x0^10 in P^2 is the line x0 = 0 ten times: (1, 10).  The ideal is
    # monomial, so the standard monomials of degree u are those with
    # a0 < 10, and S(u) is quadratic from u = 9 on: e = (k+1)! [u^2] S is
    # its second difference
    X = Variety(Ideal(3, [parse_homog_poly("x0^10", 3)]))
    assert X.dim_degree() == (1, 10)
    c = WeightVector([1, 2, 3])

    def standard(u):
        return [m for m in monomials_of_degree(3, u) if m[0] < 10]

    def S(u):
        return sum((c.dot(m) for m in standard(u)), Fraction(0))

    est = chow_weight_estimate(X, c, u_max=12)
    assert est.value == S(22) - 2 * S(21) + S(20) == 50
    for u, s in est.sequence:
        assert s == float(2 * 10 * S(u) / (u * len(standard(u))))


def test_chow_validation():
    with pytest.raises(ValidationError):
        chow_weight_estimate(projective_space(1), WeightVector([1, 0]),
                             u_max=2)


# -- Theorem-style checks ---------------------------------------------------------

def test_evertse_ferretti_frozen_p1():
    X = projective_space(1)
    c = WeightVector([1, 0])
    est = chow_weight_estimate(X, c, u_max=20)
    margin = check_evertse_ferretti(X, 5, c, est)
    assert abs(margin - Fraction(3, 5)) < 1e-12


def test_evertse_ferretti_reads_the_estimates_numerator():
    # S(u, c) comes from the estimate's own numerator, so an estimate for
    # another weight vector is refused
    X = conic()
    c = WeightVector([2, 0, 1])
    est = chow_weight_estimate(X, c, u_max=20)
    assert est.weights == c
    assert dict(est.numerator) == dict(_weighted_numerator(X, c))
    with pytest.raises(ValidationError, match="another weight vector"):
        check_evertse_ferretti(X, 5, WeightVector([1, 0, 0]), est)


def test_evertse_ferretti_zero_weights():
    X = projective_space(2)
    c = WeightVector([0, 0, 0])
    est = chow_weight_estimate(X, c, u_max=15)
    assert abs(check_evertse_ferretti(X, 4, c, est)) < 1e-12


def test_evertse_ferretti_needs_large_u():
    X = conic()
    c = WeightVector([1, 0, 0])
    est = chow_weight_estimate(X, c, u_max=20)
    with pytest.raises(ValidationError):
        check_evertse_ferretti(X, 2, c, est)


def test_evertse_ferretti_conic_random():
    X = conic()
    rng = random.Random(17)
    for _ in range(5):
        c = random_weights(rng, 3)
        est = chow_weight_estimate(X, c, u_max=40)
        margin = check_evertse_ferretti(X, 10, c, est)
        assert margin >= 0


def test_chow_lower_bound_p2_frozen():
    margin = check_chow_lower_bound(projective_space(2), [0, 1],
                                    WeightVector([1, 1, 0]), u_max=15)
    assert abs(margin) < 1e-12


def test_chow_lower_bound_zero_weights():
    margin = check_chow_lower_bound(projective_space(2), [0, 1],
                                    WeightVector([0, 0, 0]), u_max=15)
    assert abs(margin) < 1e-12


def test_chow_lower_bound_conic():
    margin = check_chow_lower_bound(conic(), [0, 1],
                                    WeightVector([1, 1, 0]), u_max=40)
    assert margin >= 0


class _Passed(Exception):
    pass


def test_chow_leading_hyperplanes_match_the_exact_only_reference(
        monkeypatch):
    # hypothesis (2) through the certificate against intersection_dim;
    # a check that gets past the hypotheses stops at the distributive
    # constant
    from smtlab import position_geometry
    from smtlab.groebner import intersection_dim

    def passed(*args, **kwargs):
        raise _Passed

    built = []
    cut = Variety.cut

    def counting_cut(self, more):
        built.append(more)
        return cut(self, more)

    monkeypatch.setattr(position_geometry, "distributive_constant", passed)
    monkeypatch.setattr(Variety, "cut", counting_cut)
    rng = random.Random(6)
    varieties = [projective_space(2), conic(), twisted_cubic(),
                 projective_space(3)]
    outcomes = []
    for _ in range(30):
        Y = rng.choice(varieties)
        n = Y.num_vars
        indices = rng.sample(range(n), rng.randint(2, n)) + [
            rng.randrange(n)]
        c = WeightVector([rng.randint(1, 4) for _ in range(n)])
        c = WeightVector([0 if i == indices[-1] else w
                          for i, w in enumerate(c)])
        head = [HomogPoly.variable(n, i) for i in indices[:-1]]
        misses = intersection_dim(Y, head) == -1
        del built[:]
        try:
            check_chow_lower_bound(Y, indices, c, u_max=8)
            raise AssertionError("the check got past the distributive stub")
        except _Passed:
            got = False
        except ValidationError as exc:
            got = "(2)" in str(exc)
        assert got == misses
        if misses:      # a miss is certified, no cut built
            assert not built
        outcomes.append(misses)
    assert any(outcomes) and not all(outcomes)


def test_chow_lower_bound_hypothesis_failures():
    P2 = projective_space(2)
    with pytest.raises(ValidationError, match=r"\(1\)"):
        check_chow_lower_bound(P2, [2, 0], WeightVector([1, 1, 0]), u_max=15)
    with pytest.raises(ValidationError, match=r"\(2\)"):
        check_chow_lower_bound(conic(), [0, 2, 1],
                               WeightVector([1, 1, 1]), u_max=15)
    line = Variety(Ideal(3, [parse_homog_poly("x0", 3)]))
    with pytest.raises(ValidationError, match=r"\(3\)"):
        check_chow_lower_bound(line, [0], WeightVector([1, 0, 0]), u_max=15)
