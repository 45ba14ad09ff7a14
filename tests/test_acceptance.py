"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured quantity so a
plain `pytest -s tests/test_acceptance.py` reads as a checklist.  Stated
runtimes are asserted, not aspirational.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from smtlab.analytic import AnalyticFunction, Curve, Poly1, zeros_in_disc
from smtlab.exact_algebra import (
    HomogPoly,
    Monomial,
    WeightVector,
    monomials_of_degree,
    parse_homog_poly,
    rank_of_vectors,
)
from smtlab.groebner import Ideal, Variety, normal_form
from smtlab.hypersurfaces import HypersurfaceFamily, MovingHypersurface
from smtlab.nevanlinna import (
    RadialGrid,
    check_ru_sibony,
    circle_average,
    fmt_residual,
    growth_index_model,
    growth_index_sampled,
)
from smtlab.position_geometry import (
    check_remark_bound,
    distributive_constant,
    subgeneral_position,
)
from smtlab.scalars import GaussianRational
from smtlab.scenario import load_scenario
from smtlab.smt_verifier import (
    constants_fixed,
    constants_moving,
    constants_theoremB,
    defect_relation_report,
    verify_main_inequality,
)
from smtlab.weights import (
    check_chow_lower_bound,
    check_evertse_ferretti,
    chow_weight_estimate,
    hilbert_weight,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

AF = AnalyticFunction
GR = GaussianRational


def report(num, ok, detail):
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def fn_poly(*coeffs):
    return AF.from_poly(Poly1(list(coeffs)))


def fixed_form(num_vars, degree, entries):
    coeffs = {Monomial(m): AF.constant(GR(c)) for m, c in entries.items()}
    return MovingHypersurface(num_vars, degree, coeffs)


def projective_space(n):
    return Variety(Ideal(n + 1, []))


def conic():
    return Variety(Ideal(3, [parse_homog_poly("x0*x2 - x1^2", 3)]))


def twisted_cubic():
    return Variety(Ideal(4, [parse_homog_poly("x0*x2 - x1^2", 4),
                             parse_homog_poly("x0*x3 - x1*x2", 4),
                             parse_homog_poly("x1*x3 - x2^2", 4)]))


LINE = Curve((fn_poly(1), fn_poly(0, 1)))
PARABOLA = Curve((fn_poly(1), fn_poly(0, 1), fn_poly(0, 0, 1)))


def test_criterion_01_constants_reproduction():
    t0 = time.perf_counter()
    fixed = constants_fixed(1, 1, 1, Fraction(1), Fraction(1))
    moving = constants_moving(1, 1, 1, 2, Fraction(1), Fraction(1))
    theorem_b = constants_theoremB(1, 1, 1, 5, Fraction(1), Fraction(1))
    elapsed = time.perf_counter() - t0
    ok = (fixed.u == 18 and fixed.L == 57
          and moving.u == 36
          and 9.8e4 <= moving.log10_L <= 9.9e4
          and theorem_b.L == 3914
          and elapsed < 1.0)
    report(1, ok, f"u'={fixed.u} L'={fixed.L} u={moving.u} "
                  f"log10_L={moving.log10_L:.1f} L_B={theorem_b.L} "
                  f"({elapsed:.2f}s)")


def test_criterion_02_first_main_theorem_residuals():
    t0 = time.perf_counter()
    grid = RadialGrid.geometric(2.0, 50.0, 20, r0=0.25)
    line_form = fixed_form(2, 1, {(1, 0): 1, (0, 1): 1})
    _, spread_line = fmt_residual(LINE, line_form, grid)
    quadric = fixed_form(3, 2, {(2, 0, 0): 1, (0, 1, 1): 1, (0, 0, 2): 1})
    _, spread_quadric = fmt_residual(PARABOLA, quadric, grid)
    elapsed = time.perf_counter() - t0
    ok = spread_line <= 1e-6 and spread_quadric <= 1e-5 and elapsed < 5.0
    report(2, ok, f"spread(line)={spread_line:.2e} "
                  f"spread(quadric)={spread_quadric:.2e} ({elapsed:.2f}s)")


def test_criterion_03_characteristic_quadrature():
    worst_err, worst_nodes = 0.0, 0
    for r in (1.0, 3.0, 10.0):
        value, nodes = circle_average(LINE.log_norm, r, tol=1e-9)
        T = value - LINE.log_norm(0j)
        worst_err = max(worst_err, abs(T - 0.5 * math.log1p(r * r)))
        worst_nodes = max(worst_nodes, nodes)
    ok = worst_err <= 1e-9 and worst_nodes <= 4096
    report(3, ok, f"max|T - closed form|={worst_err:.1e} "
                  f"nodes<={worst_nodes}")


def brute_force_weight(X, u, c, nf_cache):
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


def test_criterion_04_hilbert_weight_greedy_exact():
    t0 = time.perf_counter()
    X = conic()
    rng = random.Random(14)
    cache = {}
    checked = 0
    for _ in range(25):
        c = WeightVector([Fraction(rng.randint(0, 9), rng.randint(1, 4))
                          for _ in range(3)])
        for u in (2, 3):
            weight = hilbert_weight(X, u, c).value
            brute = brute_force_weight(X, u, c, cache)
            assert weight == brute
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 50 and elapsed < 10.0
    report(4, ok, f"{checked} initial-ideal/brute agreements, exact "
                  f"({elapsed:.2f}s)")


def test_criterion_05_chow_weight_oracle():
    rng = random.Random(23)
    exact = 0
    for n in (1, 1, 1, 1, 2, 2, 2, 3, 3, 3):
        c = WeightVector([Fraction(rng.randint(0, 6), rng.randint(1, 3))
                          for _ in range(n + 1)])
        est = chow_weight_estimate(projective_space(n), c,
                                   u_max=max(n + 3, 8))
        target = float(c.total())
        assert est.value == c.total()
        assert all(s == target for _, s in est.sequence)
        exact += 1
    margins = []
    for X, c in ((conic(), WeightVector([1, 0, 0])),
                 (conic(), WeightVector([1, 1, 0])),
                 (twisted_cubic(), WeightVector([1, 2, 3, 4]))):
        est = chow_weight_estimate(X, c, u_max=40)
        margin = check_evertse_ferretti(X, 40, c, est)
        assert margin >= 0
        margins.append(margin)
    ok = exact == 10 and len(margins) == 3
    report(5, ok, f"{exact} exact projective-space ladders; "
                  f"min margin={min(margins):.3f}")


def test_criterion_06_chow_lower_bound_instances():
    rng = random.Random(8)
    worst = math.inf
    for trial in range(10):
        Y = projective_space(2) if trial % 2 == 0 else conic()
        u_max = 15 if trial % 2 == 0 else 25
        weights = [Fraction(rng.randint(1, 6)) for _ in range(3)]
        j_min = min(range(3), key=lambda i: weights[i])
        j_other = rng.choice([i for i in range(3) if i != j_min])
        c = WeightVector(weights)
        margin = check_chow_lower_bound(Y, [j_other, j_min], c, u_max=u_max)
        assert margin >= 0
        worst = min(worst, margin)
    report(6, True, f"10 coordinate instances, worst margin={worst:.3f}")


def _lines(num_vars, *texts):
    forms = []
    for text in texts:
        poly = parse_homog_poly(text, num_vars)
        coeffs = {m: AF.constant(coeff) for m, coeff in poly.terms.items()}
        forms.append(MovingHypersurface(num_vars, 1, coeffs))
    return HypersurfaceFamily(forms)


def test_criterion_07_distributive_constants():
    t0 = time.perf_counter()
    P2 = projective_space(2)
    general = _lines(3, "x0", "x1", "x2", "x0 + x1 + x2")
    concurrent = _lines(3, "x0", "x1", "x0 + x1")
    val_general = distributive_constant(P2, general).value
    val_concurrent = distributive_constant(P2, concurrent).value
    assert val_general == Fraction(1)
    assert val_concurrent == Fraction(3, 2)

    rng = random.Random(77)
    checked = 0
    while checked < 20:
        n = rng.randint(1, 3)
        q = rng.randint(n + 1, 6)
        texts = []
        for _ in range(q):
            coeffs = [rng.randint(-4, 4) for _ in range(n + 1)]
            if all(c == 0 for c in coeffs):
                coeffs[rng.randrange(n + 1)] = 1
            texts.append(" + ".join(f"{c}*x{i}"
                                    for i, c in enumerate(coeffs) if c != 0))
        fam = _lines(n + 1, *texts)
        V = projective_space(n)
        ell = next((cand for cand in range(n, q)
                    if subgeneral_position(V, fam, cand)), None)
        if ell is None:
            continue
        assert check_remark_bound(V, fam, ell) >= 0
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(7, ok, f"general={val_general} concurrent={val_concurrent}, "
                  f"{checked} randomized subgeneral families "
                  f"({elapsed:.1f}s)")


def test_criterion_08_zero_counting():
    f = AF.exppoly({GR(1): Poly1([1])}) + fn_poly(-1)   # e^z - 1
    div = zeros_in_disc(f, 7.0)
    expected = [0j, 2j * math.pi, -2j * math.pi]
    ok_exp = (len(div.points) == 3
              and all(m == 1 for _, m in div.points)
              and all(min(abs(z - w) for z, _ in div.points) < 1e-6
                      for w in expected))

    rng = random.Random(31)
    agreements = 0
    while agreements < 20:
        deg = rng.randint(1, 8)
        coeffs = [GR(rng.randint(-5, 5), rng.randint(-5, 5))
                  for _ in range(deg)] + [GR(rng.randint(1, 5))]
        g = AF.from_poly(Poly1(coeffs))
        if g.num.degree < 1:
            continue
        alg = zeros_in_disc(g, 2.5)
        win = zeros_in_disc(g, 2.5, force_winding=True)
        assert len(alg.points) == len(win.points)
        for (za, ma), (zw, mw) in zip(alg.points, win.points):
            assert ma == mw and abs(za - zw) < 1e-7
        agreements += 1
    report(8, ok_exp, f"e^z-1: {len(div.points)} simple zeros near "
                      f"0, +-2 pi i; {agreements} polynomial/winding "
                      f"agreements")


def _four_lines():
    return _lines(3, "x0 + x1 + x2", "x0 - x1 + x2", "x0 + x1 - x2",
                  "x0 + 2*x1 + 3*x2")


def test_criterion_09_cartan_margin_at_large_radius():
    grid = RadialGrid.geometric(100.0, 1000.0, 4, r0=1.0)
    rows = check_ru_sibony(PARABOLA, _four_lines(), grid)
    r, margin, T = rows[-1]
    ok = r == 1000.0 and margin / T >= -0.05
    report(9, ok, f"margin/T={margin / T:.4f} at r={r:g}")


def test_criterion_10_main_inequality_no_falsification():
    s = load_scenario(str(SCENARIOS / "conic_four_lines.json"))
    rep = verify_main_inequality(s)
    saturated = any("saturated" in f for f in rep.flags)
    ok = (not rep.falsified) and saturated
    worst = min(m for _, _, _, m in rep.rows)
    report(10, ok, f"falsified={rep.falsified} saturation flag="
                   f"{saturated} worst margin={worst:.3f}")


def test_criterion_11_growth_index():
    closed = growth_index_model(2.0, 1.0)
    grid = RadialGrid.finite(1.0, points=18, r0=0.1)
    T = [2.0 * math.log(1.0 / (1.0 - r)) + 0.3 for r in grid.values]
    sampled = growth_index_sampled(grid, T)
    plane_grid = RadialGrid.geometric(2.0, 100.0, 10, r0=1.0)
    plane_T = [math.log(r) for r in plane_grid.values]
    plane = growth_index_sampled(plane_grid, plane_T)
    ok = (closed.value == 0.5
          and abs(sampled.value - 0.5) <= 0.025
          and plane.value == 0.0)
    report(11, ok, f"model={closed.value} sampled={sampled.value:.4f} "
                   f"plane={plane.value}")


def test_criterion_12_defect_relation():
    s = load_scenario(str(SCENARIOS / "line_three_points.json"))
    rep = defect_relation_report(s)
    values = [v for _, v in rep.defects]
    targets = [1.0, 0.0, 0.0]
    ok = (rep.total <= 2.5 + 1e-9
          and all(abs(v - t) <= 0.02 for v, t in zip(values, targets))
          and rep.holds)
    report(12, ok, f"defects={[round(v, 4) for v in values]} "
                   f"total={rep.total:.4f} <= bound={rep.bound}")
