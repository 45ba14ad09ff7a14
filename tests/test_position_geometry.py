"""Distributive constants, subgeneral position, and the domination sweep."""

import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from smtlab.analytic import AnalyticFunction, Curve, Poly1
from smtlab.errors import DegenerateInputError, ValidationError
from smtlab.exact_algebra import HomogPoly, Monomial, parse_homog_poly
from smtlab.groebner import Ideal, Variety
from smtlab.hypersurfaces import (
    HypersurfaceFamily,
    MovingHypersurface,
    parse_hypersurface,
)
from smtlab.position_geometry import (
    _fixed_or_sampled,
    _scan_subsets,
    check_norm_domination,
    check_remark_bound,
    distributive_constant,
    subgeneral_position,
)
from smtlab.scalars import GaussianRational
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
    assert rep.sample_points == ()
    # triple intersection is empty and contributes ratio 0
    triple = [row for row in rep.table if row[0] == (0, 1, 2)]
    assert triple == [((0, 1, 2), -1, Fraction(0))]


def test_concurrent_lines():
    rep = distributive_constant(projective_space(2),
                                fixed_family(3, "x0", "x1", "x0 + x1"))
    assert rep.value == Fraction(3, 2)
    assert rep.witness == (0, 1, 2)


def test_three_points_on_line():
    fam = fixed_family(2, "x0", "x1 - x0", "x1 + x0")
    rep = distributive_constant(projective_space(1), fam)
    assert rep.value == Fraction(1)
    pairs = [row for row in rep.table if len(row[0]) == 2]
    assert all(dim == -1 for _, dim, _ in pairs)


def test_member_containing_variety_is_degenerate():
    fam = fixed_family(3, "x0*x2 - x1^2")
    with pytest.raises(DegenerateInputError):
        distributive_constant(CONIC, fam)


def test_moving_family_generic_agreement():
    fam = HypersurfaceFamily([
        parse_hypersurface(3, 1, {"x0": "1", "x1": "poly: z"}),
        parse_hypersurface(3, 1, {"x1": "1"}),
        parse_hypersurface(3, 1, {"x2": "1"}),
    ])
    assert fam.is_moving
    rep_a = distributive_constant(projective_space(2), fam, samples=3, seed=0)
    rep_b = distributive_constant(projective_space(2), fam, samples=3, seed=991)
    assert rep_a.value == rep_b.value == Fraction(1)
    assert len(rep_a.sample_points) == 3
    assert set(rep_a.sample_points) != set(rep_b.sample_points)


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


def scan_both(V, forms, monkeypatch):
    """(scan, reference, number of cuts the scan built)."""
    built = []
    cut = Variety.cut

    def counting_cut(self, more):
        built.append(more)
        return cut(self, more)

    monkeypatch.setattr(Variety, "cut", counting_cut)
    got = _scan_subsets(V, forms)
    return got, scan_reference(Variety(V.ideal), forms), len(built)


@pytest.mark.parametrize("name", sorted(p.name
                                        for p in SCENARIOS.glob("*.json")))
def test_scan_matches_fresh_varieties_on_shipped_scenarios(name,
                                                           monkeypatch):
    sc = load_scenario(str(SCENARIOS / name))
    for _, forms in _fixed_or_sampled(sc.variety, sc.family, 3, sc.seed):
        got, want, _ = scan_both(sc.variety, forms, monkeypatch)
        assert got == want


def test_scan_matches_fresh_varieties_concurrent_lines(monkeypatch):
    # four lines through one point: no pair, triple or quadruple drops
    # the dimension below a point, and nothing is empty
    forms = [parse_homog_poly(t, 3) for t in ("x0", "x1", "x0 + x1",
                                              "x0 - 2*x1")]
    got, want, built = scan_both(projective_space(2), forms, monkeypatch)
    assert got == want
    assert built == 15
    assert got[0] == Fraction(4, 2) and got[1] == (0, 1, 2, 3)


def test_scan_matches_fresh_varieties_with_pruning(monkeypatch):
    # {0, 1, 2} is a point, {0, 1, 3} is empty, so {0, 1, 2, 3} is pruned
    # along with every superset of the other empty triples
    forms = [parse_homog_poly(t, 3) for t in ("x0", "x1", "x0 + x1", "x2",
                                              "x1 + x2")]
    got, want, built = scan_both(projective_space(2), forms, monkeypatch)
    assert got == want
    assert built < len(want[2])
    on_conic = [parse_homog_poly(t, 3) for t in ("x0", "x2", "x1",
                                                 "x0 + x1 + x2")]
    got, want, built = scan_both(CONIC, on_conic, monkeypatch)
    assert got == want
    assert built < len(want[2])



def test_scan_prunes_exactly_below_empty_parents(monkeypatch):
    # points of P^1, some repeated: a pair of distinct points is empty, a
    # repeated point is not, so empty and nonempty subsets mix at every
    # size; the scan builds a cut for a subset exactly when none of its
    # parents (one member fewer) is empty, and otherwise matches a
    # fresh-Variety scan with no pruning
    rng = random.Random(4)
    one, other = Monomial((1, 0)), Monomial((0, 1))
    for _ in range(6):
        roots = [rng.randint(-2, 2) for _ in range(rng.randint(3, 6))]
        forms = [HomogPoly(2, 1, {one: 1, other: -r} if r else {one: 1})
                 for r in roots]
        got, want, built = scan_both(projective_space(1), forms, monkeypatch)
        assert got == want
        dims = {frozenset(c): d for c, d, _ in want[2]}
        assert any(d == -1 for c, d, _ in want[2] if len(c) == 2)
        assert built == sum(
            1 for c in dims
            if all(dims[c - {j}] != -1 for j in c if len(c) > 1))
        monkeypatch.undo()

def test_family_size_guard():
    fam = fixed_family(3, *(["x0"] * 17))
    with pytest.raises(ValidationError):
        distributive_constant(projective_space(2), fam)


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
