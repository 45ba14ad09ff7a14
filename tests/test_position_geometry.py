"""Distributive constants, subgeneral position, and the domination sweep."""

import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from smtlab.functions import AnalyticFunction, Curve, Poly1
from smtlab.errors import DegenerateInputError, ValidationError
from smtlab.exact_algebra import (HomogPoly, Monomial, monomials_of_degree,
                                  parse_homog_poly)
from smtlab.groebner import Ideal, Variety, intersection_dim
from smtlab.hypersurfaces import (
    HypersurfaceFamily,
    MovingHypersurface,
    parse_hypersurface,
)
from smtlab import groebner
from smtlab.position_geometry import (
    MACAULAY_CELL_CAP,
    _eliminate,
    _full_rank,
    _lazard_degree,
    _ModularCuts,
    _scan_subsets,
    _specialize,
    check_norm_domination,
    check_remark_bound,
    distributive_constant,
    subgeneral_position,
)
from smtlab.scalars import MOD_I, MOD_PRIME, GaussianRational
from smtlab.scenario import load_scenario

GR = GaussianRational
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def fixed_family(num_vars, *texts):
    return HypersurfaceFamily(
        [MovingHypersurface.from_homog(parse_homog_poly(t, num_vars))
         for t in texts])


def projective_space(n):
    return Variety(Ideal(n + 1, []))


CONIC = Variety(Ideal(3, [parse_homog_poly("x0*x2 - x1^2", 3)]))


def curve_poly(*coeff_rows):
    return Curve(tuple(AnalyticFunction.from_poly(Poly1([GR(c) for c in row]))
                       for row in coeff_rows))


# -- distributive constant ----------------------------------------------------

def test_general_position_lines():
    rep = distributive_constant(projective_space(2),
                                fixed_family(3, "x0", "x1", "x2"))
    assert rep.value == Fraction(1)
    assert rep.exact
    # the triple intersection is empty: it contributes ratio 0 and is
    # not listed
    assert [row[0] for row in rep.table] == [(0,), (1,), (2,), (0, 1),
                                             (0, 2), (1, 2)]


def test_concurrent_lines():
    rep = distributive_constant(projective_space(2),
                                fixed_family(3, "x0", "x1", "x0 + x1"))
    assert rep.value == Fraction(3, 2)
    assert rep.exact    # a fixed family is its own generic member
    assert rep.witness == (0, 1, 2)


def test_three_points_on_line():
    fam = fixed_family(2, "x0", "x1 - x0", "x1 + x0")
    rep = distributive_constant(projective_space(1), fam)
    assert rep.value == Fraction(1)
    # every pair is empty, so only the points are listed
    assert [row[0] for row in rep.table] == [(0,), (1,), (2,)]


def test_member_containing_variety_is_degenerate():
    fam = fixed_family(3, "x0*x2 - x1^2")
    with pytest.raises(DegenerateInputError):
        distributive_constant(CONIC, fam)
    # the first such member in scan order is the one named
    fam = fixed_family(3, "x0", "x0*x2 - x1^2", "x1", "2*x0*x2 - 2*x1^2")
    with pytest.raises(DegenerateInputError, match=r"members \(1,\)"):
        distributive_constant(CONIC, fam)


def test_moving_family_generic_agreement():
    fam = HypersurfaceFamily([
        parse_hypersurface(3, 1, {"x0": "1", "x1": "poly: z"}),
        parse_hypersurface(3, 1, {"x1": "1"}),
        parse_hypersurface(3, 1, {"x2": "1"}),
    ])
    assert fam.is_moving
    rep_a = distributive_constant(projective_space(2), fam, seed=0)
    rep_b = distributive_constant(projective_space(2), fam, seed=991)
    assert rep_a.value == rep_b.value == Fraction(1)
    assert rep_a.exact and rep_b.exact
    assert _specialize(fam, 0) != _specialize(fam, 991)


def test_fixed_family_is_read_off_without_a_point(monkeypatch):
    fam = fixed_family(3, "x0 - 1/3*x1", "x1^2 + (2+i)*x0*x2", "x2")
    want = [parse_homog_poly(t, 3)
            for t in ("x0 - 1/3*x1", "x1^2 + (2+i)*x0*x2", "x2")]

    def no_point(self, z):
        raise AssertionError("a fixed family was evaluated at a point")

    monkeypatch.setattr(MovingHypersurface, "at", no_point)
    assert _specialize(fam, 0) == _specialize(fam, 991) == want


def moving_line(*polys):
    """The line sum_i c_i(z) x_i of P^2, each c_i given by its integer
    coefficients in z, ascending."""
    return MovingHypersurface(3, 1, {
        Monomial(tuple(int(i == j) for i in range(3))):
            AnalyticFunction.from_poly(Poly1([GR(c) for c in p]))
        for j, p in enumerate(polys)})


def moving_line_families():
    """(lines through the moving point, family) for seeded families of
    P^2: lines with coefficients random and linear in z (none through the
    point), and 2-5 lines through (1 : z : z^2) plus one fixed line."""
    rng = random.Random(40)

    def nonzero(count):
        while True:
            v = [rng.randint(-4, 4) for _ in range(count)]
            if any(v):
                return v

    for _ in range(8):
        yield 0, HypersurfaceFamily([
            moving_line(nonzero(2), nonzero(2), nonzero(2))
            for _ in range(rng.randint(3, 5))])
    for _ in range(12):
        through = []
        for _ in range(rng.randint(2, 5)):
            w = nonzero(3)
            # (1, z, z^2) x w: the line through the moving point and w
            through.append(moving_line([0, w[2], -w[1]], [-w[2], 0, w[0]],
                                       [w[1], -w[0]]))
        yield len(through), HypersurfaceFamily(
            through + [moving_line([1], nonzero(1), nonzero(1))])


def test_exact_moving_scan_is_the_generic_value():
    # d(z) >= d_gen at every z, so where the scan at its point says
    # exact, no subset may cut V in a lower dimension at another point,
    # and no other point may give a smaller constant
    P2 = projective_space(2)
    kinds = Counter()
    for seed, (through, fam) in enumerate(moving_line_families()):
        rep = distributive_constant(P2, fam, seed=seed)
        kinds[through >= 3, rep.exact] += 1
        if not rep.exact:
            continue
        for k in (1, 2, 3):
            forms = _specialize(fam, seed + 1000 * k)
            for subset, d, _ in rep.table:
                assert intersection_dim(P2, [forms[j] for j in subset]) >= d
            assert rep.value <= _scan_subsets(P2, forms)[0]
    # three lines through one point never cut to their lower bound, two
    # and fewer always do
    assert kinds == Counter({(False, True): kinds[False, True],
                             (True, False): kinds[True, False]})
    assert kinds[False, True] >= 10 and kinds[True, False] >= 5


def test_coordinate_change_invariance():
    rng = random.Random(7)
    base_fam = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]    # x0, x1, x0 + x1
    for _ in range(3):
        # random product of integer shears: exactly invertible
        mat = [[Fraction(1 if i == j else 0) for j in range(3)]
               for i in range(3)]
        for _ in range(4):
            i, j = rng.sample(range(3), 2)
            c = Fraction(rng.randint(-3, 3))
            for k in range(3):
                mat[i][k] += c * mat[j][k]
        # x_i -> sum_j mat[i][j] x_j takes sum_i c_i x_i to sum_j (c mat)_j x_j
        fam = HypersurfaceFamily([
            MovingHypersurface.from_homog(HomogPoly(3, 1, {
                Monomial(tuple(int(i == j) for i in range(3))):
                    sum(c[i] * mat[i][j] for i in range(3))
                for j in range(3)
                if sum(c[i] * mat[i][j] for i in range(3))}))
            for c in base_fam])
        rep = distributive_constant(projective_space(2), fam)
        assert rep.value == Fraction(3, 2)


def scan_reference(V, forms):
    """The subset scan with one fresh Variety per subset and no pruning."""
    n = V.dim
    best, witness, table = Fraction(0), (), []
    for size in range(1, len(forms) + 1):
        for combo in combinations(range(len(forms)), size):
            gens = list(V.ideal.generators) + [forms[j] for j in combo]
            d = Variety(Ideal(V.num_vars, gens)).dim
            ratio = Fraction(0) if d == -1 else Fraction(size, n - d)
            table.append((combo, d, ratio))
            if ratio > best:
                best, witness = ratio, combo
    return best, witness, table


def listed(table):
    """The rows of a full subset table that a scan lists: those of the
    subsets that meet V."""
    return [row for row in table if row[1] != -1]


def scan_both(V, forms, monkeypatch, certificates=None):
    """(scan, reference with its listed rows, number of cuts the scan
    built); each modular certificate the scan tried lands in
    ``certificates`` as {subset: certified}."""
    built = []
    cut = Variety.cut
    bounds = _ModularCuts.bounds

    def counting_cut(self, more):
        built.append(more)
        return cut(self, more)

    def recorded_bounds(self, requests):
        got = bounds(self, requests)
        if certificates is not None:
            for (combo, _), ok in zip(requests, got):
                certificates[tuple(combo)] = ok
        return got

    monkeypatch.setattr(Variety, "cut", counting_cut)
    monkeypatch.setattr(_ModularCuts, "bounds", recorded_bounds)
    got = _scan_subsets(V, forms)
    best, witness, table = scan_reference(Variety(V.ideal), forms)
    return got[:3], (best, witness, listed(table)), len(built)


def prefix_closure(combos):
    """The nonempty prefixes of the given subsets: the cuts built for
    them."""
    return {c[:k] for c in combos for k in range(1, len(c) + 1)}


@pytest.mark.parametrize("name", sorted(p.name
                                        for p in SCENARIOS.glob("*.json")))
def test_scan_matches_fresh_varieties_on_shipped_scenarios(name,
                                                           monkeypatch):
    sc = load_scenario(str(SCENARIOS / name))
    got, want, _ = scan_both(sc.variety, _specialize(sc.family, sc.seed),
                             monkeypatch)
    assert got == want


def test_scan_matches_fresh_varieties_concurrent_lines(monkeypatch):
    # four lines through one point: no pair, triple or quadruple drops
    # the dimension below a point, and nothing is empty.  Lines and pairs
    # are certified; the triples and the quadruple, which do not drop to
    # their lower bound -1, are cut exactly, with their prefixes
    forms = [parse_homog_poly(t, 3) for t in ("x0", "x1", "x0 + x1",
                                              "x0 - 2*x1")]
    tried = {}
    got, want, built = scan_both(projective_space(2), forms, monkeypatch,
                                 tried)
    assert got == want
    failed = {c for c, ok in tried.items() if not ok}
    assert failed == {c for c in tried if len(c) >= 3}
    assert built == len(prefix_closure(failed)) == 10
    assert got[0] == Fraction(4, 2) and got[1] == (0, 1, 2, 3)


def test_scan_matches_fresh_varieties_with_pruning(monkeypatch):
    # {0, 1, 2} is a point, {0, 1, 3} is empty, so {0, 1, 2, 3} is pruned
    # along with every superset of the other empty triples
    forms = [parse_homog_poly(t, 3) for t in ("x0", "x1", "x0 + x1", "x2",
                                              "x1 + x2")]
    got, want, built = scan_both(projective_space(2), forms, monkeypatch)
    assert got == want
    assert built < 2 ** len(forms) - 1
    on_conic = [parse_homog_poly(t, 3) for t in ("x0", "x2", "x1",
                                                 "x0 + x1 + x2")]
    got, want, built = scan_both(CONIC, on_conic, monkeypatch)
    assert got == want
    assert built < 2 ** len(on_conic) - 1



def test_scan_prunes_exactly_below_empty_parents(monkeypatch):
    # points of P^1, some repeated: a pair of distinct points is empty, a
    # repeated point is not, so empty and nonempty subsets mix at every
    # size; the scan tries a certificate for a subset exactly when none
    # of its parents (one member fewer) is empty, cuts exactly the
    # subsets whose certificate failed (and their prefixes), and matches
    # a fresh-Variety scan with no pruning
    rng = random.Random(4)
    one, other = Monomial((1, 0)), Monomial((0, 1))
    for _ in range(6):
        roots = [rng.randint(-2, 2) for _ in range(rng.randint(3, 6))]
        forms = [HomogPoly(2, 1, {one: 1, other: -r} if r else {one: 1})
                 for r in roots]
        tried = {}
        got, want, built = scan_both(projective_space(1), forms, monkeypatch,
                                     tried)
        assert got == want
        nonempty = {frozenset(c) for c, _, _ in want[2]}
        subsets = [frozenset(c) for size in range(1, len(forms) + 1)
                   for c in combinations(range(len(forms)), size)]
        assert any(len(c) == 2 and c not in nonempty for c in subsets)
        assert {frozenset(c) for c in tried} == {
            c for c in subsets
            if all(c - {j} in nonempty for j in c if len(c) > 1)}
        failed = [c for c, ok in tried.items() if not ok]
        assert built == len(prefix_closure(failed))
        monkeypatch.undo()


def brute_force_scan(V, forms):
    """(value, witness, table, exact, requests) with nothing pruned: every
    subset in ``combinations`` order, size by size, its dimension from
    ``intersection_dim`` on a fresh variety.  ``requests`` holds, per size,
    the (subset, lower bound) of each subset with no empty parent, and
    exact says whether each of those has its lower bound as dimension."""
    n = V.dim
    dims = {(): n}
    best, witness, table, exact, requests = Fraction(0), (), [], True, []
    for size in range(1, len(forms) + 1):
        asked = []
        for combo in combinations(range(len(forms)), size):
            d = intersection_dim(Variety(V.ideal), [forms[j] for j in combo])
            dims[combo] = d
            parents = [dims[combo[:k] + combo[k + 1:]] for k in range(size)]
            if -1 not in parents:
                asked.append((combo, max(parents) - 1))
                exact = exact and d == max(parents) - 1
            ratio = Fraction(0) if d == -1 else Fraction(size, n - d)
            table.append((combo, d, ratio))
            if ratio > best:
                best, witness = ratio, combo
        requests.append(asked)
    return best, witness, table, exact, requests


def brute_force_families():
    """(name, V, forms): distinct points of P^1, whose pairs are all empty;
    ten general lines of P^2, whose triples are; concurrent lines, where
    the triples and the quadruples are only partly empty; a repeated
    line, whose pair is a line while the other pairs holding either copy
    are points; a family on a conic."""
    one, other = Monomial((1, 0)), Monomial((0, 1))
    yield "points", projective_space(1), [
        HomogPoly(2, 1, {one: 1, other: -r} if r else {one: 1})
        for r in (0, 1, -2, 3, Fraction(1, 2))]
    yield "lines", projective_space(2), [
        linear(h) for h in general_lines(random.Random(10), 10)]
    yield "concurrent", projective_space(2), [
        parse_homog_poly(t, 3)
        for t in ("x0", "x1", "x0 + x1", "x0 - 2*x1", "x2", "x1 + x2")]
    yield "repeated", projective_space(2), [
        parse_homog_poly(t, 3) for t in ("x0", "2*x0", "x1", "x1 + x2", "x2")]
    yield "conic", CONIC, [
        parse_homog_poly(t, 3)
        for t in ("x0", "x2", "x1", "x0 + x1 + x2", "x0 - x2", "x1 - x2")]


@pytest.mark.parametrize("name", ["points", "lines", "concurrent",
                                  "repeated", "conic"])
def test_scan_matches_a_brute_force_reference(name, monkeypatch):
    V, forms = next((V, forms) for label, V, forms in brute_force_families()
                    if label == name)
    asked = []
    bounds = _ModularCuts.bounds

    def spy(self, requests):
        asked.append([(tuple(c), lb) for c, lb in requests])
        return bounds(self, requests)

    monkeypatch.setattr(_ModularCuts, "bounds", spy)
    rep = distributive_constant(
        V, HypersurfaceFamily([MovingHypersurface.from_homog(f)
                               for f in forms]))
    monkeypatch.undo()
    value, witness, table, exact, requests = brute_force_scan(V, forms)
    assert len(table) == 2 ** len(forms) - 1
    assert list(rep.table) == listed(table)
    # nothing is lost: every subset not listed is empty, with ratio 0
    rows = {row[0]: row for row in rep.table}
    assert [rows.get(combo, (combo, -1, Fraction(0)))
            for combo, _, _ in table] == table
    assert (rep.value, rep.witness, rep.exact) == (value, witness, True)
    assert _scan_subsets(V, forms)[3] == exact
    # one certificate call per size with a subset that is not pruned,
    # asking for exactly those subsets in lexicographic order, and no call
    # with an empty list
    assert asked == [r for r in requests if r]
    if name in ("points", "lines"):
        # a size is all empty, and the sizes after it ask nothing
        first_empty = next(k for k, r in enumerate(requests, 1) if not r)
        assert len(asked) == first_empty - 1 < len(forms)


# -- modular certificates ----------------------------------------------------

def linear(coeffs):
    n = len(coeffs)
    return HomogPoly(n, 1, {Monomial(tuple(int(i == j) for i in range(n))): c
                            for j, c in enumerate(coeffs) if c})


def product(factors):
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


def det3(a, b, c):
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def general_lines(rng, count):
    """count integer lines of P^2, no three through one point (and so no
    two equal)."""
    while True:
        lines = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(count)]
        if all(det3(*trio) for trio in combinations(lines, 3)):
            return lines


def certificate_families():
    """(V, forms) for the scan: general position, three concurrent lines,
    a repeated member, members sharing a component, a variety with
    generators, and snapshots of a moving family."""
    rng = random.Random(21)
    P2, P3 = projective_space(2), projective_space(3)

    def texts(n, *ts):
        return [parse_homog_poly(t, n) for t in ts]

    yield P2, [linear(h) for h in general_lines(rng, 5)]
    yield P2, [product([linear(h) for h in general_lines(rng, 2)])
               for _ in range(4)]
    yield P3, [linear([rng.randint(-5, 5) for _ in range(4)])
               for _ in range(6)]
    yield P2, texts(3, "x0", "x1", "x0 + x1", "x2 - 3*x1")
    yield P2, texts(3, "x0 - x1", "x2", "x0 - x1", "x1 + 2*x2")
    yield P2, texts(3, "x0*x1", "x0*x2", "x1^2 - x2^2", "x0 + x1 + x2")
    yield CONIC, texts(3, "x0", "x2", "x1", "x0 + x1 + x2", "x0 - x2")
    quadric = Variety(Ideal(4, texts(4, "x0*x3 - x1*x2")))
    yield quadric, texts(4, "x0", "x3", "x1 + x2", "x0 - x1 + x3", "x2")
    moving = HypersurfaceFamily([
        parse_hypersurface(3, 1, {"x0": "1", "x1": "poly: z"}),
        parse_hypersurface(3, 1, {"x1": "1", "x2": "poly: z^2"}),
        parse_hypersurface(3, 2, {"x0^2": "1", "x1*x2": "poly: z - 1/2"}),
        parse_hypersurface(3, 1, {"x2": "1"}),
    ])
    for seed in (5, 6, 7):
        yield P2, _specialize(moving, seed)


def test_certified_dims_match_fresh_varieties(monkeypatch):
    certified = 0
    for V, forms in certificate_families():
        tried = {}
        got, want, built = scan_both(V, forms, monkeypatch, tried)
        assert got == want, forms
        failed = [c for c, ok in tried.items() if not ok]
        assert built == len(prefix_closure(failed))
        certified += sum(tried.values())
        monkeypatch.undo()
    assert certified > 100


def test_denominator_divisible_by_q_takes_the_exact_path(monkeypatch):
    P2 = projective_space(2)
    forms = [linear([1, 0, 0]), linear([0, Fraction(1, MOD_PRIME), 1]),
             linear([1, 0, 1]), linear([2, 1, -1])]
    assert _ModularCuts(P2, forms).levels[-1][1] is None
    tried = {}
    got, want, built = scan_both(P2, forms, monkeypatch, tried)
    assert got == want
    assert all(ok == (1 not in c) for c, ok in tried.items())
    assert built == len(prefix_closure(c for c, ok in tried.items()
                                       if not ok))
    monkeypatch.undo()
    # in a generator of V, no subset is certified
    conic = Variety(Ideal(3, [parse_homog_poly(
        f"x0*x2 - 1/{MOD_PRIME}*x1^2", 3)]))
    tried = {}
    got, want, _ = scan_both(conic, [forms[0], forms[2], forms[3]],
                             monkeypatch, tried)
    assert got == want and tried and not any(tried.values())


def count_bases(monkeypatch):
    calls = []
    basis = groebner.groebner_basis

    def counting(*args, **kwargs):
        calls.append(1)
        return basis(*args, **kwargs)

    monkeypatch.setattr(groebner, "groebner_basis", counting)
    return calls


@pytest.mark.parametrize("degree", [7, 8])
def test_products_of_lines_certified_in_under_a_second(degree, monkeypatch):
    # three plane curves, each a product of `degree` lines, no three of
    # the 3 * degree lines concurrent: each curve is a curve, two meet in
    # points and all three miss each other, so Delta = 1
    lines = general_lines(random.Random(degree), 3 * degree)
    family = HypersurfaceFamily([
        MovingHypersurface.from_homog(product(
            [linear(h) for h in lines[k * degree:(k + 1) * degree]]))
        for k in range(3)])
    calls = count_bases(monkeypatch)
    t0 = time.perf_counter()
    rep = distributive_constant(projective_space(2), family)
    elapsed = time.perf_counter() - t0
    assert rep.value == 1
    assert [d for _, d, _ in rep.table] == [1, 1, 1, 0, 0, 0]
    assert len(calls) == 1     # V's basis; every cut is certified
    assert elapsed < 1


def test_fully_certified_scan_builds_only_the_basis_of_v(monkeypatch):
    rng = random.Random(3)
    quadric = Variety(Ideal(4, [parse_homog_poly("x0^2 + x1^2 - x2*x3",
                                                 4)]))
    forms = [linear([rng.randint(-5, 5) for _ in range(4)])
             for _ in range(5)]
    calls = count_bases(monkeypatch)
    got = _scan_subsets(quadric, forms)
    assert len(calls) == 1
    monkeypatch.undo()
    best, witness, table = scan_reference(quadric, forms)
    assert got == (best, witness, listed(table), True)


def random_stack(rng, nrows, ncols, count):
    """count matrices of residues mod q, with 0, 1 and q - 1 common, some
    with a row or a column that is a multiple of another."""
    q = MOD_PRIME
    stack = []
    for _ in range(count):
        rows = [[rng.choice((0, 1, q - 1, rng.randrange(q)))
                 for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.3 and nrows > 1:       # a dependent row
            a, b = rng.sample(range(nrows), 2)
            f = rng.randrange(q)
            rows[a] = [(f * v) % q for v in rows[b]]
        if rng.random() < 0.2 and ncols > 1:       # a dependent column
            a, b = rng.sample(range(ncols), 2)
            f = rng.randrange(q)
            for row in rows:
                row[a] = (f * row[b]) % q
        stack.append(rows)
    return stack


def python_ranks(stack, ncols):
    return [_eliminate([{k: v for k, v in enumerate(row) if v}
                        for row in rows], ncols) for rows in stack]


def test_stacked_elimination_matches_the_python_loop():
    # the stacked int64 elimination against the Python-int loop, matrix
    # by matrix, on full-rank and rank-deficient matrices with residues
    # up to q - 1
    rng = random.Random(17)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 9)
        stack = random_stack(rng, nrows, ncols, rng.randint(1, 6))
        got = _full_rank(np.array(stack, dtype=np.int64))
        assert list(got) == python_ranks(stack, ncols)


def test_stacked_elimination_matches_on_wide_and_sparse_stacks():
    # more columns than one step of the deferred reduction could hide a
    # wrong bound in (C > 64), rows past the dense-row threshold, sparse
    # matrices whose pivots must be swapped in, and a rank one short
    rng = random.Random(29)
    seen = Counter()
    for nrows, ncols, count in [(70, 66, 2), (90, 80, 1), (40, 40, 3),
                                (33, 17, 4)]:
        stack = random_stack(rng, nrows, ncols, count)
        for rows in stack[:count // 2 + 1]:      # mostly zeros
            for row in rows:
                for k in range(ncols):
                    if rng.random() < 0.85:
                        row[k] = 0
        want = python_ranks(stack, ncols)
        got = _full_rank(np.array(stack, dtype=np.int64))
        assert list(got) == want
        seen.update(want)
        # row 0 and column 0 made dependent: never full rank
        for rows in stack:
            for row in rows:
                row[0] = row[1] * 3 % MOD_PRIME
        got = _full_rank(np.array(stack, dtype=np.int64))
        assert list(got) == python_ranks(stack, ncols) == [False] * count
    assert seen[True] and seen[False]


def dense_form(rng, num_vars, degree):
    return HomogPoly(num_vars, degree, {
        mono: rng.randint(-9, 9) or 1
        for mono in monomials_of_degree(num_vars, degree)})


def test_septic_macaulay_stack_full_rank_and_a_dependent_column():
    # three seeded dense ternary septics: their Macaulay matrix at
    # Lazard's degree 19 has 3 * 91 rows and 210 columns
    rng = random.Random(7)
    septics = [dense_form(rng, 3, 7) for _ in range(3)]
    cuts = _ModularCuts(projective_space(2), septics)
    D = _lazard_degree([7, 7, 7], 3)
    M = cuts._blocks(-1, D, 7).reshape(1, -1, len(cuts._monomials(3, D)))
    assert M.shape == (1, 273, 210)
    rows = [{k: int(v) for k, v in enumerate(row) if v} for row in M[0]]
    assert _full_rank(M.copy())[0] and _eliminate(rows, 210)
    dependent = M.copy()
    dependent[0, :, 100] = (5 * M[0, :, 3] + 7 * M[0, :, 150]) % MOD_PRIME
    rows = [{k: int(v) for k, v in enumerate(row) if v}
            for row in dependent[0]]
    assert not _full_rank(dependent.copy())[0]
    assert not _eliminate(rows, 210)
    assert cuts.bounds([((0, 1, 2), -1), ((0, 1), 0)]) == [True, True]


def test_blocks_match_a_per_shift_reference():
    rng = random.Random(11)
    quadric = Variety(Ideal(4, [parse_homog_poly("x0*x3 - x1*x2", 4)]))
    forms = [dense_form(rng, 4, d) for d in (1, 2, 2, 3)]
    cuts = _ModularCuts(quadric, forms)
    for lb in (-1, 0, 1):
        m = 4 - lb - 1
        level = cuts._level(lb)
        for degree in (1, 2, 3):
            D = _lazard_degree([2, 2, degree, 3], m)
            columns = cuts._monomials(m, D)
            shifts = cuts._monomials(m, D - degree)
            want = [[[0] * len(columns) for _ in shifts] for _ in level]
            for i, part in enumerate(level):
                if part[0] == degree:
                    for j, s in enumerate(shifts):
                        for c, r in part[2]:
                            want[i][j][columns.index(s + c)] = r
            assert cuts._blocks(lb, D, degree).tolist() == want


def test_degree_1000_cuts_list_no_monomials_past_the_cap():
    # three curves of degree 1000 have Lazard degree 2998: the Macaulay
    # matrix is refused from binomial counts, with no monomial listed;
    # codes are built degree by degree, past Python's recursion limit
    forms = [parse_homog_poly(text, 3) for text in (
        "x0^1000 - x1^1000", "x1^1000 - x2^1000", "x0^1000 + x2^1000")]
    cuts = _ModularCuts(projective_space(2), forms)
    assert cuts.bounds([((0, 1, 2), -1)]) == [False]
    assert cuts.layers == {}
    radix = cuts.codes[1]
    assert cuts._monomials(2, 1200) == [(1200 - a) + a * radix
                                        for a in range(1201)]
    assert len(cuts._monomials(3, 40)) == math.comb(42, 2)


def test_deferred_elimination_stays_inside_int64():
    # an entry of column j moves at most j times, each time by less than
    # q^2; R >= C and R * C <= MACAULAY_CELL_CAP bound C
    q = MOD_PRIME
    c_max = math.isqrt(MACAULAY_CELL_CAP)
    assert q + c_max * (q - 1) ** 2 < 2 ** 52 < 2 ** 63
    assert q % 4 == 1 and (MOD_I ** 2 + 1) % q == 0
    assert all(q % p for p in range(2, math.isqrt(q) + 1))


# -- subgeneral position -------------------------------------------------------

def test_subgeneral_general_lines():
    assert subgeneral_position(projective_space(2),
                               fixed_family(3, "x0", "x1", "x2"), 2)


def test_subgeneral_concurrent_lines():
    assert not subgeneral_position(projective_space(2),
                                   fixed_family(3, "x0", "x1", "x0 + x1"), 2)


def test_subgeneral_on_conic_matches_cross_product_oracle():
    texts = ["x0 + x1 + x2", "x0 - x1 + x2", "x0 + x1 - x2", "x0 + 2*x1 + 3*x2"]
    rows = [(1, 1, 1), (1, -1, 1), (1, 1, -1), (1, 2, 3)]
    got = subgeneral_position(CONIC, fixed_family(3, *texts), 1)
    # oracle: pair meets the conic iff the cross-product point lies on it
    expect = True
    for i in range(4):
        for j in range(i + 1, 4):
            a, b = rows[i], rows[j]
            p = (a[1] * b[2] - a[2] * b[1],
                 a[2] * b[0] - a[0] * b[2],
                 a[0] * b[1] - a[1] * b[0])
            if p[0] * p[2] - p[1] ** 2 == 0:
                expect = False
    assert got == expect
    assert got  # these four lines were chosen to avoid the conic


def count_cuts(monkeypatch):
    built = []
    cut = Variety.cut

    def counting_cut(self, more):
        built.append(more)
        return cut(self, more)

    monkeypatch.setattr(Variety, "cut", counting_cut)
    return built


def random_families(rng):
    """(V, family) pairs of lines, conics and planes with small integer
    coefficients, so that some subsets meet and some miss, and a moving
    family."""
    quadric = Variety(Ideal(4, [parse_homog_poly("x0*x3 - x1*x2", 4)]))
    for _ in range(12):
        V = rng.choice([projective_space(2), CONIC, quadric,
                        projective_space(3)])
        n = V.num_vars
        members = []
        for _ in range(rng.randint(n, n + 2)):
            degree = rng.choice((1, 1, 2)) if n == 3 else 1
            terms = {mono: rng.randint(-2, 2)
                     for mono in monomials_of_degree(n, degree)
                     if rng.random() < 0.6}
            terms = {m: c for m, c in terms.items() if c} or {
                Monomial((degree,) + (0,) * (n - 1)): 1}
            members.append(MovingHypersurface.from_homog(
                HomogPoly(n, degree, terms)))
        yield V, HypersurfaceFamily(members)
    yield projective_space(2), next(iter(moving_line_families()))[1]


def test_subgeneral_matches_the_exact_only_reference():
    rng = random.Random(31)
    outcomes = Counter()
    for V, fam in random_families(rng):
        forms = _specialize(fam, 5)
        for ell in range(V.dim, len(fam)):
            want = all(intersection_dim(V, [forms[j] for j in combo]) == -1
                       for combo in combinations(range(len(fam)), ell + 1))
            assert subgeneral_position(V, fam, ell, seed=5) == want
            outcomes[want] += 1
    assert outcomes[True] >= 5 and outcomes[False] >= 5


def test_general_position_is_certified_without_a_cut(monkeypatch):
    rng = random.Random(8)
    P2 = projective_space(2)
    lines = HypersurfaceFamily([MovingHypersurface.from_homog(linear(h))
                                for h in general_lines(rng, 7)])
    built = count_cuts(monkeypatch)
    assert subgeneral_position(P2, lines, 2)
    assert not built
    rows = check_norm_domination(P2, lines, [1, 4, 6],
                                 curve_poly([1], [0, 1], [0, 0, 1]), [2.0],
                                 theta_samples=8)
    assert len(rows) == 1 and not built
    # a subset that meets V is cut exactly
    assert not subgeneral_position(P2, lines, 1)
    assert built


def test_remark_bound_frozen_margins():
    assert check_remark_bound(projective_space(2),
                              fixed_family(3, "x0", "x1", "x2"), 2) == 0
    assert check_remark_bound(projective_space(1),
                              fixed_family(2, "x0", "x1 - x0", "x1 + x0"),
                              1) == 0
    assert check_remark_bound(
        projective_space(2),
        fixed_family(3, "x0", "x1", "x2", "x0 + x1 + x2"), 2) == 0


def test_remark_bound_requires_position():
    with pytest.raises(ValidationError):
        check_remark_bound(projective_space(2),
                           fixed_family(3, "x0", "x1", "x0 + x1"), 2)


def test_remark_bound_randomized_families():
    rng = random.Random(2024)
    checked = 0
    while checked < 20:
        n = rng.randint(1, 3)
        q = rng.randint(n + 1, 6)
        fam_polys = []
        for _ in range(q):
            coeffs = [rng.randint(-4, 4) for _ in range(n + 1)]
            if all(c == 0 for c in coeffs):
                coeffs[rng.randrange(n + 1)] = 1
            text = " + ".join(f"{c}*x{i}" for i, c in enumerate(coeffs)
                              if c != 0)
            fam_polys.append(text)
        fam = fixed_family(n + 1, *fam_polys)
        V = projective_space(n)
        ell = None
        for cand in range(n, q):
            if subgeneral_position(V, fam, cand):
                ell = cand
                break
        if ell is None:
            continue
        assert check_remark_bound(V, fam, ell) >= 0
        checked += 1


# -- norm domination -----------------------------------------------------------

def test_domination_coordinate_pair_closed_form():
    fam = fixed_family(2, "x0", "x1")
    rows = check_norm_domination(projective_space(1), fam, [0, 1],
                                 curve_poly([1], [0, 1]), [1.0, 2.0, 5.0])
    for r, sup in rows:
        want = math.sqrt(1 + r * r) / max(1.0, r)
        assert abs(sup - want) < 1e-9
        assert sup <= math.sqrt(2) + 1e-12


def test_domination_requires_empty_intersection():
    fam = fixed_family(2, "x0", "x1")
    with pytest.raises(DegenerateInputError):
        check_norm_domination(projective_space(1), fam, [0],
                              curve_poly([1], [0, 1]), [1.0])


def test_domination_hypothesis_matches_the_exact_only_reference():
    rng = random.Random(12)
    curve = curve_poly([1, 2], [0, 1], [3, 0, 1])
    outcomes = Counter()
    for _ in range(15):
        fam = HypersurfaceFamily([
            MovingHypersurface.from_homog(linear(
                [rng.randint(-2, 2) or 1 for _ in range(3)]))
            for _ in range(5)])
        indices = rng.sample(range(5), 3)
        forms = _specialize(HypersurfaceFamily([fam[j] for j in indices]), 0)
        meets = intersection_dim(projective_space(2), forms) != -1
        try:
            check_norm_domination(projective_space(2), fam, indices, curve,
                                  [0.5], theta_samples=4)
            refused = False
        except DegenerateInputError as exc:
            refused = "meets the variety" in str(exc)
        assert refused == meets
        outcomes[meets] += 1
    assert outcomes[True] and outcomes[False]


def test_domination_on_conic():
    fam = fixed_family(3, "x0", "x2")
    rows = check_norm_domination(CONIC, fam, [0, 1],
                                 curve_poly([1], [0, 1], [0, 0, 1]),
                                 [1.0, 2.0, 5.0])
    for _, sup in rows:
        assert sup < 2.0


def test_domination_curve_off_variety():
    fam = fixed_family(3, "x0", "x2")
    with pytest.raises(DegenerateInputError):
        check_norm_domination(CONIC, fam, [0, 1],
                              curve_poly([1], [0, 1], [0, 0, 0, 1]),
                              [1.0])
