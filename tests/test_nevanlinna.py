"""Characteristic, counting, proximity, residual, and defect functionals."""

import cmath
import math
import random

import numpy as np
import pytest

from smtlab import nevanlinna
from smtlab.analytic import AnalyticFunction, Curve, Divisor, Poly1, wronskian
from smtlab.errors import (
    CertificationError,
    DegenerateInputError,
    ValidationError,
)
from smtlab.exact_algebra import Monomial
from smtlab.hypersurfaces import MovingHypersurface, HypersurfaceFamily
from smtlab.nevanlinna import (
    GridSession,
    RadialGrid,
    build_profile,
    characteristic,
    check_ru_sibony,
    circle_average,
    counting,
    defect,
    fmt_residual,
    growth_index_model,
    growth_index_sampled,
    proximity,
)
from smtlab.scalars import GaussianRational

AF = AnalyticFunction
GR = GaussianRational


def fn_poly(*coeffs):
    return AF.from_poly(Poly1(list(coeffs)))


def fixed_form(num_vars, degree, entries):
    coeffs = {Monomial(m): AF.constant(GR(c)) for m, c in entries.items()}
    return MovingHypersurface(num_vars, degree, coeffs)


LINE = Curve((fn_poly(1), fn_poly(0, 1)))                  # (1, z)
PARABOLA = Curve((fn_poly(1), fn_poly(0, 1), fn_poly(0, 0, 1)))

X0 = fixed_form(2, 1, {(1, 0): 1})
X1 = fixed_form(2, 1, {(0, 1): 1})
X1_MINUS_X0 = fixed_form(2, 1, {(0, 1): 1, (1, 0): -1})
X1_PLUS_X0 = fixed_form(2, 1, {(0, 1): 1, (1, 0): 1})


# -- grids ------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValidationError):
        RadialGrid(0.0, (1.0, 2.0))
    with pytest.raises(ValidationError):
        RadialGrid(0.5, (2.0, 2.0))
    with pytest.raises(ValidationError):
        RadialGrid(0.5, (0.25, 2.0))
    with pytest.raises(ValidationError):
        RadialGrid(0.5, (1.0, 2.0), R=2.0)


def test_grid_constructors():
    g = RadialGrid.geometric()
    assert len(g.values) == 40
    assert g.values[0] == 2.0 and g.values[-1] == 1e3
    assert math.isinf(g.R)
    assert len(g.top_decile()) == 4
    h = RadialGrid.finite(1.0)
    assert len(h.values) == 20
    assert h.values[0] == 0.5
    assert h.values[-1] == 1.0 - 2.0 ** -20
    assert h.r0 == 0.25


def test_finite_grid_stops_where_radii_round_to_R():
    # R(1 - 2^-j) rounds to R = 2 from j = 54 on, to R = 10 from j = 53
    g = RadialGrid.finite(2.0, 53)
    assert g.values == tuple(2.0 * (1 - 2.0 ** -j) for j in range(1, 54))
    for R, points, fits in ((2.0, 54, 53), (2.0, 55, 53), (2.0, 60, 53),
                            (2.0, 1000, 53), (10.0, 53, 52)):
        with pytest.raises(ValidationError,
                           match=f"grid of {points} points .* at most {fits} "):
            RadialGrid.finite(R, points)
    assert len(RadialGrid.finite(10.0, 52).values) == 52


# -- quadrature and characteristic ------------------------------------------

def test_circle_average_constant_and_harmonic():
    val, nodes = circle_average(lambda z: np.full_like(z.real, 3.25), 2.0)
    assert val == 3.25 and nodes == 128
    # average of Re z over a circle is 0
    val, _ = circle_average(lambda z: z.real, 1.5)
    assert abs(val) <= 1e-10


def test_circle_average_matches_pointwise_loop():
    # reference: the same doubling ladder summed one node at a time
    def loop_average(fn, r, tol=1e-8):
        nodes = 64
        total = sum(fn(r * cmath.exp(2j * math.pi * m / nodes))
                    for m in range(nodes))
        prev = total / nodes
        while True:
            total += sum(fn(r * cmath.exp(2j * math.pi * (2 * m + 1)
                                          / (2 * nodes)))
                         for m in range(nodes))
            nodes *= 2
            if abs(total / nodes - prev) <= tol:
                return total / nodes, nodes
            prev = total / nodes

    curves = (Curve((fn_poly(1, 2), fn_poly(-1, 1, 3))),
              Curve((fn_poly(1), AF.exppoly({GR(1): Poly1([1])}))))
    for curve in curves:
        for r in (0.7, 3.0, 40.0):
            want, want_nodes = loop_average(curve.log_norm, r)
            got, nodes = circle_average(curve.log_norm, r)
            assert nodes == want_nodes
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_circle_average_rejects_point_integrands():
    with pytest.raises(ValueError):
        circle_average(lambda z: 3.25, 2.0)


@pytest.mark.parametrize("lead, roots", [
    (GR(1), [GR(0, 2)]),
    (GR(3, -4), [GR(3, 10), GR(-1, 1), GR(0, 2), GR(5, 2) - GR(0, 1) / 2,
                 GR(3)]),
    (GR(-2), [GR(1, 1) / 4, GR(-7, 3), GR(6)]),
])
def test_circle_average_jensen(lead, roots):
    # Jensen: the mean of log|p| on |z| = r is log|lc| + sum log max(r, |a|)
    p = Poly1([lead])
    for a in roots:
        p = p * Poly1([-a, 1])
    f = AF.from_poly(p)
    for r in (0.5, 1.7, 4.0):
        val, _ = circle_average(f.log_abs, r, tol=1e-12)
        want = math.log(abs(lead.to_complex())) + sum(
            math.log(max(r, abs(a.to_complex()))) for a in roots)
        assert abs(val - want) <= 1e-10


def test_circle_average_node_cap(monkeypatch):
    # a spike too narrow to resolve forces the certification failure
    monkeypatch.setattr(nevanlinna, "_QUAD_NODES", 256)
    with pytest.raises(CertificationError):
        circle_average(lambda z: np.exp(-abs(z - 1.0) ** 2 * 1e12),
                       1.0, tol=1e-12)


def test_characteristic_frozen_line():
    # T(r) = log sqrt(1 + r^2) for (1, z); integrand is theta-free
    for r in (1.0, 3.0, 10.0):
        want = 0.5 * math.log(1 + r * r)
        assert abs(characteristic(LINE, r) - want) <= 1e-9
    val, nodes = circle_average(LINE.log_norm, 3.0, tol=1e-9)
    assert nodes <= 4096
    assert abs(val - 0.5 * math.log(10)) <= 1e-9


def test_characteristic_monotone_and_domain():
    ts = [characteristic(LINE, r) for r in (1.0, 2.0, 4.0)]
    assert ts[0] < ts[1] < ts[2]
    disc_curve = Curve((fn_poly(1), fn_poly(0, 1)), domain_radius=2.0)
    with pytest.raises(ValidationError):
        characteristic(disc_curve, 2.0)


def test_characteristic_unitary_invariance():
    # exact orthogonal change of frame: [[3/5, 4/5], [-4/5, 3/5]]
    a = AF.from_poly(Poly1([GR("3/5"), GR("4/5")]))
    b = AF.from_poly(Poly1([GR("-4/5"), GR("3/5")]))
    rotated = Curve((a, b))
    for r in (1.0, 5.0):
        assert abs(characteristic(rotated, r)
                   - characteristic(LINE, r)) <= 1e-7


def test_characteristic_and_proximity_with_zero_component():
    # (1, 0, z) has the same norm as (1, z), so the same T and m
    padded = Curve((fn_poly(1), fn_poly(), fn_poly(0, 1)))
    x2 = fixed_form(3, 1, {(0, 0, 1): 1})
    for r in (2.0, 10.0):
        assert abs(characteristic(padded, r)
                   - characteristic(LINE, r)) <= 1e-12
        assert abs(proximity(padded, x2, r)
                   - proximity(LINE, X1, r)) <= 1e-12


# -- counting ----------------------------------------------------------------

def test_counting_frozen_single_zero():
    div = Divisor(((0.5 + 0j, 3),), 5.0)
    grid = RadialGrid(0.1, (2.0,))
    assert abs(counting(div, grid, 2)[0] - 2 * math.log(4)) <= 1e-12
    assert abs(counting(div, grid, math.inf)[0] - 3 * math.log(4)) <= 1e-12
    assert abs(counting(div, grid, 1)[0] - math.log(4)) <= 1e-12


def test_counting_origin_convention():
    div = Divisor(((0j, 2),), 5.0)
    grid = RadialGrid(0.1, (2.0, 4.0))
    assert counting(div, grid, math.inf) == [0.0, 0.0]
    strict = counting(div, grid, math.inf, strict_origin=True)
    assert abs(strict[0] - 2 * math.log(20)) <= 1e-12
    assert abs(strict[1] - 2 * math.log(40)) <= 1e-12


def test_counting_zero_below_r0():
    div = Divisor(((0.05 + 0j, 1),), 5.0)
    grid = RadialGrid(0.1, (1.0,))
    assert abs(counting(div, grid, math.inf)[0] - math.log(10)) <= 1e-12


def test_counting_slope_between_zeros():
    # between consecutive zero moduli, N grows linearly in log r with
    # slope equal to the truncated count inside
    div = Divisor(((1.0 + 0j, 2), (2.0 + 0j, 5)), 5.0)
    grid = RadialGrid(0.5, (1.5, 1.7))
    for k, slope in ((math.inf, 2), (1, 1)):
        vals = counting(div, grid, k)
        got = (vals[1] - vals[0]) / math.log(1.7 / 1.5)
        assert abs(got - slope) <= 1e-9


def test_counting_validation():
    div = Divisor(((0.5 + 0j, 1),), 2.0)
    with pytest.raises(ValidationError):
        counting(div, RadialGrid(0.1, (3.0,)), math.inf)
    with pytest.raises(ValidationError):
        counting(div, RadialGrid(0.1, (1.0,)), 0)


# -- proximity ----------------------------------------------------------------

def test_proximity_frozen_line():
    # m(2, x1) = avg log(||f|| / |z|) = log sqrt(5) - log 2
    got = proximity(LINE, X1, 2.0)
    assert abs(got - (0.5 * math.log(5) - math.log(2))) <= 1e-6
    got = proximity(LINE, X0, 2.0)
    assert abs(got - 0.5 * math.log(5)) <= 1e-6


def test_proximity_curve_in_hypersurface():
    diag = Curve((fn_poly(0, 1), fn_poly(0, 1)))
    with pytest.raises(DegenerateInputError):
        proximity(diag, X1_MINUS_X0, 2.0)


def test_proximity_zero_on_circle_fails_certification():
    # zero of z - 1 sits on |z| = 1; the quadrature cannot converge
    # through the log singularity
    from smtlab.analytic import zeros_in_disc
    g = X1_MINUS_X0.compose(LINE.components)
    div = zeros_in_disc(g, 1.5)
    with pytest.raises(CertificationError):
        proximity(LINE, X1_MINUS_X0, 1.0, divisor=div)


def test_proximity_zero_on_circle_fails_before_quadrature(monkeypatch):
    # the divisor point on |z| = 1 refuses the circle before any node
    # array is evaluated
    from smtlab.analytic import zeros_in_disc
    g = X1_MINUS_X0.compose(LINE.components)
    div = zeros_in_disc(g, 1.5)
    arrays = []
    plain = AnalyticFunction.eval_scaled

    def counted(self, z):
        if isinstance(z, np.ndarray):
            arrays.append(len(z))
        return plain(self, z)

    monkeypatch.setattr(AnalyticFunction, "eval_scaled", counted)
    with pytest.raises(CertificationError, match="within 1e-9"):
        proximity(LINE, X1_MINUS_X0, 1.0, divisor=div)
    assert arrays == []


# -- first main theorem residual ---------------------------------------------

def test_fmt_residual_line():
    grid = RadialGrid.geometric(2.0, 50.0, 8, r0=0.25)
    residuals, spread = fmt_residual(LINE, X1_PLUS_X0, grid)
    assert spread <= 1e-6
    # the flat value is log|Q(f)(0)| - log||Q|| for ||f(0)|| = 1
    assert abs(residuals[0] + 0.5 * math.log(2)) <= 1e-6


def test_fmt_residual_quadric():
    quadric = fixed_form(3, 2, {(2, 0, 0): 1, (0, 1, 1): 1, (0, 0, 2): 1})
    grid = RadialGrid.geometric(2.0, 50.0, 6, r0=0.25)
    residuals, spread = fmt_residual(PARABOLA, quadric, grid)
    assert spread <= 1e-5
    assert abs(residuals[0] + 0.5 * math.log(3)) <= 1e-5


def test_fmt_residual_preconditions():
    grid = RadialGrid.geometric(2.0, 50.0, 4, r0=0.25)
    with pytest.raises(ValidationError):
        fmt_residual(LINE, X1, grid)


# -- growth index --------------------------------------------------------------

def test_growth_index_model():
    est = growth_index_model(2.0, 1.0)
    assert est.value == 0.5 and est.interval == (0.5, 0.5)
    assert growth_index_model(0.5, 2.0).value == 2.0
    assert growth_index_model(3.0, math.inf).value == 0.0
    with pytest.raises(ValidationError):
        growth_index_model(0.0, 1.0)


def test_growth_index_sampled_recovers_model():
    grid = RadialGrid.finite(1.0)
    T = [2.0 * math.log(1.0 / (1.0 - r)) + 0.3 for r in grid.values]
    est = growth_index_sampled(grid, T)
    assert abs(est.value - 0.5) <= 0.05 * 0.5
    assert est.interval[0] <= 0.5 <= est.interval[1]


def test_growth_index_sampled_plane_is_zero():
    grid = RadialGrid.geometric(2.0, 100.0, 10)
    T = [math.log(r) for r in grid.values]
    assert growth_index_sampled(grid, T).value == 0.0


def test_growth_index_sampled_rejections():
    grid = RadialGrid.finite(1.0)
    bad = [1.0] * 10 + [0.5] + [1.0] * 9
    with pytest.raises(ValidationError):
        growth_index_sampled(grid, bad)
    power = [1.0 / (1.0 - r) for r in grid.values]
    with pytest.raises(CertificationError):
        growth_index_sampled(grid, power)
    with pytest.raises(ValidationError):
        growth_index_sampled(grid, [1.0, 2.0])


# -- defects --------------------------------------------------------------------

def test_defect_omitted_target_is_one():
    grid = RadialGrid.geometric(2.0, 100.0, 10, r0=0.5)
    est = defect(LINE, X0, math.inf, grid)
    assert est.value == 1.0
    assert len(est.tail) == 3


def test_defect_hit_target_tends_to_zero():
    grid = RadialGrid.geometric(2.0, 1000.0, 12, r0=0.5)
    est = defect(LINE, X1_MINUS_X0, math.inf, grid)
    assert abs(est.value) <= 2e-3
    trunc = defect(LINE, X1_MINUS_X0, 1, grid)
    assert abs(trunc.value - est.value) <= 1e-12


def test_defect_origin_conventions():
    grid = RadialGrid.geometric(2.0, 1000.0, 12, r0=1.0)
    # the origin zero of z contributes nothing in the default convention
    assert defect(LINE, X1, math.inf, grid).value == 1.0
    strict = defect(LINE, X1, math.inf, grid, strict_origin=True)
    assert abs(strict.value) <= 1e-3


def test_top_decile_defect_needs_positive_characteristic():
    # 1 - N/(d T) is undefined where T <= 0 in the top decile; T below
    # the decile is not read
    grid = RadialGrid.geometric(2.0, 100.0, 10, r0=0.5)
    N, T = [0.0] * 10, [0.0] * 9 + [2.0]
    assert nevanlinna._top_decile_defect(grid, N, T, 1) == 1.0
    with pytest.raises(ValidationError,
                       match="characteristic must be positive"):
        nevanlinna._top_decile_defect(grid, N, T[:9] + [0.0], 1)


def test_defect_requires_growth():
    flat = Curve((fn_poly(1), fn_poly(GR("1/2"))))
    grid = RadialGrid(0.5, (2.0,))
    with pytest.raises(ValidationError):
        defect(flat, X0, math.inf, grid)


def test_defect_reads_a_grid_session():
    # T and the divisor come from one session over the grid, and a curve
    # inside Q is refused as fmt_residual refuses it
    grid = RadialGrid.geometric(2.0, 1000.0, 12, r0=0.5)
    session = GridSession(LINE, HypersurfaceFamily([X1_MINUS_X0]), grid)
    N = counting(session.divisor(0), grid, 1)
    T = session.characteristic(1e-8)
    est = defect(LINE, X1_MINUS_X0, 1, grid)
    assert est.value == nevanlinna._top_decile_defect(grid, N, T, 1)
    assert est.tail == tuple((grid.values[i], N[i] / T[i])
                             for i in range(len(T))[-3:])
    diag = Curve((fn_poly(1), fn_poly(1)))
    for check in (lambda: defect(diag, X1_MINUS_X0, math.inf, grid),
                  lambda: fmt_residual(diag, X1_MINUS_X0, grid)):
        with pytest.raises(DegenerateInputError,
                           match="^curve lies in hypersurface 0$"):
            check()


# -- hyperplane margin check -----------------------------------------------------

def test_ru_sibony_three_points_on_line():
    grid = RadialGrid.geometric(100.0, 100.0, 1, r0=0.5)
    rows = check_ru_sibony(LINE, [X0, X1_MINUS_X0, X1_PLUS_X0], grid)
    (r, margin, T), = rows
    assert r == 100.0 and T > 0
    assert margin / T >= -0.05


FOUR_LINES = [
    fixed_form(3, 1, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}),
    fixed_form(3, 1, {(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): 1}),
    fixed_form(3, 1, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): -1}),
    fixed_form(3, 1, {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 3}),
]


def test_ru_sibony_four_lines_on_parabola():
    grid = RadialGrid.geometric(50.0, 50.0, 1, r0=0.5)
    rows = check_ru_sibony(PARABOLA, FOUR_LINES, grid)
    (_, margin, T), = rows
    assert margin / T >= -0.05


def test_ru_sibony_no_hyperplanes():
    grid = RadialGrid.geometric(10.0, 10.0, 1, r0=0.5)
    (_, margin, T), = check_ru_sibony(LINE, [], grid)
    assert abs(margin - 2 * T) <= 1e-12


def reference_ru_sibony(curve, hyperplanes, grid, tol=1e-8):
    """The margin rows radius by radius: characteristic and circle_average
    at each radius."""
    n = curve.ambient_dim
    composed = [h.compose(curve.components) for h in hyperplanes]
    norms = [h.norm_at(0j) for h in hyperplanes]
    tuples = (nevanlinna._independent_tuples(hyperplanes, n + 1)
              if len(hyperplanes) >= n + 1 else [])
    W = wronskian(list(curve.components))
    N_W = counting(nevanlinna._divisor_with_pad(W, grid.values[-1]), grid)

    def integrand(z):
        if not tuples:
            return np.zeros(z.shape)
        terms = [curve.log_norm(z) + math.log(nm) - g.log_abs(z)
                 for nm, g in zip(norms, composed)]
        return np.max([sum(terms[j] for j in K) for K in tuples], axis=0)

    rows = []
    for i, r in enumerate(grid.values):
        T = characteristic(curve, r, tol)
        avg, _ = circle_average(integrand, r, tol)
        rows.append((r, (n + 1) * T - (avg + N_W[i]), T))
    return rows


@pytest.mark.parametrize("grid", [
    RadialGrid.geometric(100.0, 1000.0, 4, r0=1.0),   # criterion 9's
    RadialGrid.geometric(2.0, 1000.0, 40, r0=1.0),
], ids=["criterion_9", "40_radii"])
@pytest.mark.parametrize("curve, hyperplanes", [
    (PARABOLA, FOUR_LINES),
    (LINE, [X0, X1_MINUS_X0, X1_PLUS_X0]),
    (LINE, []),
], ids=["parabola", "line", "no_lines"])
def test_ru_sibony_rows_equal_the_per_radius_loop(curve, hyperplanes, grid):
    assert (check_ru_sibony(curve, hyperplanes, grid)
            == reference_ru_sibony(curve, hyperplanes, grid))


def test_ru_sibony_rejections():
    grid = RadialGrid.geometric(10.0, 10.0, 1, r0=0.5)
    degenerate = Curve((fn_poly(1), fn_poly(0, 1), fn_poly(0, 2)))
    with pytest.raises(DegenerateInputError):
        check_ru_sibony(degenerate, [], grid)
    quadric = fixed_form(2, 2, {(2, 0): 1, (0, 2): 1})
    with pytest.raises(ValidationError):
        check_ru_sibony(LINE, [quadric], grid)
    moving = MovingHypersurface(
        2, 1, {Monomial((0, 1)): fn_poly(0, 1), Monomial((1, 0)): fn_poly(1)})
    with pytest.raises(ValidationError):
        check_ru_sibony(LINE, [moving], grid)


# -- profiles ----------------------------------------------------------------------

def test_profile_columns_and_rows():
    family = HypersurfaceFamily([X0, X1_MINUS_X0, X1_PLUS_X0])
    grid = RadialGrid.geometric(2.0, 100.0, 8, r0=0.25)
    prof = build_profile(LINE, family, grid, 1)
    assert len(prof.T) == 8
    assert all(b - a >= -1e-9 for a, b in zip(prof.T, prof.T[1:]))
    for full, trunc in zip(prof.N_full, prof.N_trunc):
        assert all(a >= b >= 0 for a, b in zip(full, trunc))
    rows = prof.rows(family.degrees)
    assert len(rows) == 8 and len(rows[0]) == 2 + 4 * 3
    # residual column is flat per member
    for j in range(3):
        col = [row[2 + 4 * j + 3] for row in rows]
        assert max(col) - min(col) <= 1e-5


def test_profile_validation():
    family = HypersurfaceFamily([X0, X1])
    grid = RadialGrid.geometric(2.0, 10.0, 3, r0=0.25)
    with pytest.raises(ValidationError):
        build_profile(LINE, family, grid, [1, 2, 3])


# -- the circle-quadrature kernel ---------------------------------------------------

def reference_average(fn, r, tol=1e-8):
    """One circle at a time, the doubling loop circle_averages replaced."""
    def level_sum(steps, count):
        z = r * np.exp(2j * math.pi * steps / count)
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(np.sum(np.asarray(fn(z), dtype=float)))
        if not math.isfinite(total):
            raise CertificationError(f"circle average on |z| = {r} is not "
                                     "finite (a float computation overflowed)")
        return total
    nodes = 64
    total = level_sum(np.arange(nodes), nodes)
    prev = total / nodes
    while nodes < nevanlinna._QUAD_NODES:
        total += level_sum(2 * np.arange(nodes) + 1, 2 * nodes)
        nodes *= 2
        if abs(total / nodes - prev) <= tol:
            return total / nodes, nodes
        prev = total / nodes
    raise CertificationError(
        f"circle average on |z| = {r} did not reach tolerance {tol} within "
        f"{nevanlinna._QUAD_NODES} nodes")


def m_integrand(curve, Q, g):
    return lambda z: (Q.degree * curve.log_norm(z) + np.log(Q.norm_at(z))
                      - g.log_abs(z))


def reference_failure(fns, r, tol):
    """(nodes, row, error) of the first failure on the circle |z| = r when
    the rows fns advance together, one circle on its own: row -1 when an
    fn raised on that level's nodes.  None when every row settles."""
    nodes, steps = 64, np.arange(64)
    totals, prev, running = [0.0] * len(fns), [None] * len(fns), set(
        range(len(fns)))
    while running:
        z = r * np.exp(2j * math.pi * steps / nodes)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                sums = [float(np.sum(np.asarray(fn(z), dtype=float)))
                        for fn in fns]
        except Exception as err:
            return nodes, -1, err
        for j in sorted(running):
            if not math.isfinite(sums[j]):
                return nodes, j, CertificationError(
                    f"circle average on |z| = {r} is not finite (a float "
                    "computation overflowed)")
            totals[j] += sums[j]
            cur = totals[j] / nodes
            if prev[j] is not None and abs(cur - prev[j]) <= tol:
                running.discard(j)
            elif nodes == nevanlinna._QUAD_NODES:
                return nodes, j, CertificationError(
                    f"circle average on |z| = {r} did not reach tolerance "
                    f"{tol} within {nevanlinna._QUAD_NODES} nodes")
            prev[j] = cur
        steps, nodes = 2 * np.arange(nodes) + 1, 2 * nodes
    return None


def reference_kernel_error(fns, radii, tol=1e-8):
    """The error circle_averages raises for the rows fns over radii, from
    one circle at a time: the earliest level, on it an fn's own error
    first, then the first failing (row, circle) pair, row by row and then
    radius by radius.  None when every pair settles."""
    found = [(f[0], f[1], i, f[2]) for i, f in
             enumerate(reference_failure(fns, r, tol) for r in radii) if f]
    return min(found, key=lambda f: f[:3])[3] if found else None


def reference_profile_error(curve, family, grid, tol=1e-8):
    """The first error of a profile: T (the domain check, then its
    kernel's error), then per target in order its divisor and near-circle
    check, then the error of the m kernel over every target."""
    def text(err):
        return f"{type(err).__name__}: {err}"
    for r in grid.values:
        if not 0 < r < curve.domain_radius:
            return (f"ValidationError: radius {r} outside the curve domain "
                    f"(R = {curve.domain_radius})")
    err = reference_kernel_error([curve.log_norm], grid.values, tol)
    if err is not None:
        return text(err)
    fns = []
    try:
        curve.log_norm(0j)
        for j, Q in enumerate(family):
            g = nevanlinna._compose(curve, Q, j)
            div = nevanlinna._divisor_with_pad(g, grid.values[-1])
            for r in grid.values:
                if any(abs(abs(z) - r) < 1e-9 for z, _ in div.points):
                    raise CertificationError(
                        f"zero of Q(f) within 1e-9 of the circle |z| = {r}")
            fns.append(m_integrand(curve, Q, g))
    except Exception as err:
        return text(err)
    err = reference_kernel_error(fns, grid.values, tol)
    return None if err is None else text(err)


def profile_error(curve, family, grid, tol=1e-8):
    try:
        build_profile(curve, family, grid, 1, tol)
    except Exception as err:
        return f"{type(err).__name__}: {err}"
    return None


def random_gr(rng, bound=3):
    return GR(rng.randint(-bound, bound), rng.randint(-bound, bound))


def random_poly(rng, degree):
    coeffs = [random_gr(rng) for _ in range(degree + 1)]
    coeffs[-1] = coeffs[-1] if coeffs[-1] != GR(0) else GR(1)
    return fn_poly(*coeffs)


def random_case(rng, shape):
    """A seeded curve of the given shape (poly, rational, exppoly) in P^2
    and three targets: two fixed forms and one moving line."""
    comps = [fn_poly(1), random_poly(rng, 1), random_poly(rng, 2)]
    if shape == "rational":
        pole = GR(rng.choice([-1, 1]) * rng.randint(7, 9), rng.randint(-2, 2))
        comps[2] = comps[2] / AF.from_poly(Poly1([-pole, GR(1)]))
    elif shape == "exppoly":
        comps[2] = AF.exppoly({GR(rng.randint(-1, 1), rng.choice([-1, 1])):
                               Poly1([random_gr(rng) or GR(1)])})
    curve = Curve(tuple(comps))
    line = fixed_form(3, 1, {(1, 0, 0): rng.randint(1, 3),
                             (0, 1, 0): rng.randint(-3, 3),
                             (0, 0, 1): rng.choice([-2, -1, 1, 2])})
    conic = fixed_form(3, 2, {(2, 0, 0): 1, (0, 1, 1): rng.randint(1, 4),
                              (0, 2, 0): rng.randint(-2, 2)})
    moving = MovingHypersurface(3, 1, {
        Monomial((1, 0, 0)): random_poly(rng, 1),
        Monomial((0, 0, 1)): AF.constant(GR(rng.randint(1, 3)))})
    return curve, [line, conic, moving]


def test_kernel_matches_reference_loop_bit_for_bit():
    rng = random.Random(2024)
    radii = (0.6, 1.3, 2.9, 4.4)
    for shape in ("poly", "rational", "exppoly") * 3:
        curve, targets = random_case(rng, shape)
        fns = [curve.log_norm] + [
            m_integrand(curve, Q, Q.compose(curve.components))
            for Q in targets]
        for tol in (1e-8, 1e-11):
            got = nevanlinna.circle_averages(
                lambda z: [fn(z) for fn in fns], radii, tol)
            # == on averages and nodes
            assert got == [[reference_average(fn, r, tol) for r in radii]
                           for fn in fns]


def test_session_rows_equal_per_radius_functionals_exactly():
    rng = random.Random(7)
    grid = RadialGrid(0.25, (0.6, 1.3, 2.9, 4.4))
    for shape in ("poly", "rational", "exppoly"):
        curve, targets = random_case(rng, shape)
        session = nevanlinna.GridSession(curve, HypersurfaceFamily(targets),
                                         grid)
        T = session.characteristic(1e-8)
        assert T == tuple(characteristic(curve, r) for r in grid.values)
        origin = curve.log_norm(0j)
        assert T == tuple(reference_average(curve.log_norm, r)[0] - origin
                          for r in grid.values)
        m_rows = session.profile(1).m
        for j, Q in enumerate(targets):
            g, div = session.composed(j), session.divisor(j)
            assert m_rows[j] == tuple(
                proximity(curve, Q, r, divisor=div, composed=g)
                for r in grid.values)
            assert m_rows[j] == tuple(
                reference_average(m_integrand(curve, Q, g), r)[0]
                for r in grid.values)


def kernel_error(fn, radii, tol=1e-8):
    try:
        nevanlinna.circle_averages(fn, radii, tol)
    except Exception as err:
        return err
    raise AssertionError("the kernel returned")


def spike(at):
    """A row that never settles on the circle through ``at``: one node
    holds 1, so the average halves on every level."""
    return lambda z: np.exp(-abs(z - at) ** 2 * 1e12)


def blow(at):
    """A row that is not finite on the level whose nodes first hold
    ``at``, and 0 elsewhere."""
    return lambda z: np.where(abs(z - at) < 1e-9, np.inf, 0.0)


@pytest.mark.parametrize("rows, message", [
    # rows 1 and 2 fail on the first level: row 1 comes first, though
    # row 2's circle has the smaller radius
    ([spike(3.0), blow(2.0), blow(1.0)], "|z| = 2.0 is not finite"),
    # one row, two failing circles on the first level: radius order
    ([lambda z: blow(3.0)(z) + blow(2.0)(z)], "|z| = 2.0 is not finite"),
    # level order first: row 1 fails on the 128-node level of circle 3,
    # long before row 0 reaches the node cap on circle 1
    ([spike(1.0), blow(3.0 * cmath.exp(2j * math.pi / 128))],
     "|z| = 3.0 is not finite"),
    ([spike(1.0), lambda z: z.real ** 2], "|z| = 1.0 did not reach"),
], ids=["row_order", "radius_order", "level_order", "node_cap"])
def test_kernel_raises_the_first_failing_pair_of_a_level(rows, message):
    radii = (1.0, 2.0, 3.0)
    err = kernel_error(lambda z: [row(z) for row in rows], radii, 1e-12)
    assert isinstance(err, CertificationError) and message in str(err)
    want = reference_kernel_error(rows, radii, 1e-12)
    assert (type(err), str(err)) == (type(want), str(want))


def test_kernel_raises_what_fn_raises_on_a_level():
    # 1/(z - 2) raises at the node 2 of |z| = 2, inside the call that holds
    # all three circles, while LINE's row is fine on every circle
    pole = AF.constant(GR(1)) / fn_poly(-2, 1)
    rows = [LINE.log_norm, pole.log_abs]
    err = kernel_error(lambda z: [fn(z) for fn in rows], (1.0, 2.0, 3.0))
    assert isinstance(err, ZeroDivisionError)
    assert str(err) == "pole at evaluation point (2+0j)"
    assert str(reference_kernel_error(rows, (1.0, 2.0, 3.0))) == str(err)

    # an fn that raises on a later level, after circle 1 has settled and
    # only circle 2 still runs: raised as it is
    sizes = []

    def late(z):
        sizes.append(len(z))
        if len(sizes) == 4:
            raise ArithmeticError("refused on the fourth level")
        return [z.real ** 2, spike(2.0)(z)]
    with pytest.raises(ArithmeticError, match="fourth level"):
        nevanlinna.circle_averages(late, (1.0, 2.0), 1e-12)
    assert sizes == [2 * 64, 2 * 64, 128, 256]


# (1, z); target 0's coefficient z^60 overflows ||Q|| on |z| = 1000 only,
# z - 2 has its zero on the grid circle |z| = 2, and 1/(z - 2) has a pole
# at the node 2 of that circle
BLOW_UP = MovingHypersurface(2, 1, {Monomial((1, 0)): fn_poly(*[0] * 60, 1),
                                    Monomial((0, 1)): fn_poly(1)})
POLE = MovingHypersurface(2, 1, {
    Monomial((1, 0)): AF.constant(GR(1)) / fn_poly(-2, 1),
    Monomial((0, 1)): fn_poly(1)})
X1_MINUS_2X0 = fixed_form(2, 1, {(0, 1): 1, (1, 0): -2})
PRECEDENCE_GRID = RadialGrid(0.25, (1.5, 2.0, 1000.0))


@pytest.mark.parametrize("targets, message", [
    # the near-circle check of target 1 runs before target 0's m row
    ([BLOW_UP, X1_MINUS_2X0], "zero of Q(f) within 1e-9 of the circle |z| = 2"),
    ([X1_MINUS_2X0, BLOW_UP], "zero of Q(f) within 1e-9 of the circle |z| = 2"),
    # the pole raises inside the shared m integrand on the first level,
    # before target 0's row is checked on that level
    ([BLOW_UP, POLE], "ZeroDivisionError: pole at evaluation point (2+0j)"),
    ([X1, POLE], "ZeroDivisionError: pole at evaluation point (2+0j)"),
    ([X1, BLOW_UP], "circle average on |z| = 1000.0 is not finite"),
], ids=["near_before_m", "near_first", "pole_before_m", "pole", "m_row"])
def test_profile_checks_every_target_before_m(targets, message):
    family = HypersurfaceFamily(targets)
    want = reference_profile_error(LINE, family, PRECEDENCE_GRID)
    assert message in want
    assert profile_error(LINE, family, PRECEDENCE_GRID) == want


def test_profile_raises_divisor_errors_in_target_order():
    # the constant curve (1, 1) lies in x1 - x0: its divisor refuses
    # before any m row, so before BLOW_UP's fails, wherever it stands
    diag = Curve((fn_poly(1), fn_poly(1)))
    diag_minus = fixed_form(2, 1, {(0, 1): 1, (1, 0): -1})
    for targets, message in (([BLOW_UP, diag_minus], "hypersurface 1"),
                             ([X1, diag_minus], "hypersurface 1"),
                             ([diag_minus, BLOW_UP], "hypersurface 0")):
        family = HypersurfaceFamily(targets)
        want = reference_profile_error(diag, family, PRECEDENCE_GRID)
        assert want == f"DegenerateInputError: curve lies in {message}"
        assert profile_error(diag, family, PRECEDENCE_GRID) == want


# (1, z^120) overflows log ||f|| on |z| = 1000; the moving line
# x1 - z^120 x0 contains it
STEEP = Curve((fn_poly(1), fn_poly(*[0] * 120, 1)))
STEEP_LINE = MovingHypersurface(2, 1, {
    Monomial((1, 0)): fn_poly(*[0] * 120, -1), Monomial((0, 1)): fn_poly(1)})


@pytest.mark.parametrize("curve, message", [
    (STEEP, "CertificationError: circle average on |z| = 1000.0 is not "
            "finite"),
    (Curve(LINE.components, 1.8),
     "ValidationError: radius 2.0 outside the curve domain (R = 1.8)"),
], ids=["kernel", "domain"])
def test_profile_raises_t_before_any_target(curve, message):
    family = HypersurfaceFamily([STEEP_LINE, BLOW_UP, X1_MINUS_2X0])
    want = reference_profile_error(curve, family, PRECEDENCE_GRID)
    assert want.startswith(message)
    assert profile_error(curve, family, PRECEDENCE_GRID) == want


def test_kernel_hands_fn_at_most_2_to_the_15_nodes():
    radii = [1.0 + k / 1000 for k in range(1000)]
    sizes = []

    def corner(z):   # |Im z| has corners: circles run to 8192-16384 nodes
        sizes.append(len(z))
        return [np.abs(z.imag)]
    ((first, *_, last),) = nevanlinna.circle_averages(corner, radii, 1e-7)
    assert max(sizes) == 2 ** 15   # whole circles, filled up to the bound
    assert first == reference_average(lambda z: np.abs(z.imag), 1.0, 1e-7)
    assert last == reference_average(lambda z: np.abs(z.imag), 1.999, 1e-7)
