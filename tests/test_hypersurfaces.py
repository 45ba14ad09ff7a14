"""Hypersurface composition, normalization, and exact snapshots."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from smtlab.analytic import AnalyticFunction, Poly1, parse_function
from smtlab.errors import DegenerateInputError, ValidationError
from smtlab.exact_algebra import Monomial, parse_homog_poly
from smtlab.hypersurfaces import (
    HypersurfaceFamily,
    MovingHypersurface,
    parse_hypersurface,
)
from smtlab.scalars import GaussianRational

GR = GaussianRational


def eval_form(P, point):
    """P at a point of Gaussian rationals, term by term."""
    total = GR(0)
    for mono, coeff in P.terms.items():
        for value, e in zip(point, mono):
            coeff = coeff * value ** e
        total = total + coeff
    return total
AF = AnalyticFunction


def fixed(text, num_vars):
    return MovingHypersurface.from_homog(parse_homog_poly(text, num_vars))


def curve_poly(*coeff_rows):
    return [AF.from_poly(Poly1([GR(c) for c in row])) for row in coeff_rows]


def test_compose_coordinate_form():
    Q = fixed("x1", 2)
    f = curve_poly([1], [0, 1])  # (1, z)
    assert Q.compose(f) == AF.from_poly(Poly1([GR(0), GR(1)]))


def test_compose_conic_annihilates_rational_normal_curve():
    Q = fixed("x0*x2 - x1^2", 3)
    f = curve_poly([1], [0, 1], [0, 0, 1])  # (1, z, z^2)
    assert Q.compose(f).is_zero()


def test_compose_exponential_curve():
    Q = fixed("x0 + x1", 2)
    f = [AF.constant(GR(1)), parse_function("exppoly: (1)*exp(z)")]
    out = Q.compose(f)
    want = parse_function("exppoly: (1)*exp(0) + (1)*exp(z)")
    assert out == want


def test_compose_linear_in_Q_pointwise():
    rng = random.Random(5)
    f = curve_poly([1], [2, 1], [0, 0, 3])
    q1 = fixed("x0^2 + x1*x2", 3)
    q2 = fixed("2*x2^2 - i*x0*x1", 3)
    both = MovingHypersurface(3, 2, {
        m: (q1.coeffs.get(m, AF.constant(GR(0)))
            + q2.coeffs.get(m, AF.constant(GR(0))))
        for m in set(q1.coeffs) | set(q2.coeffs)})
    g1, g2, g12 = q1.compose(f), q2.compose(f), both.compose(f)
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs = g12.eval_complex(z)
        rhs = g1.eval_complex(z) + g2.eval_complex(z)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_compose_agrees_with_exact_snapshot():
    # moving conic: coefficients are polynomials in z
    Q = parse_hypersurface(3, 2, {
        "x0^2": "poly: 1 + z",
        "x1^2": "-2",
        "x0*x2": "poly: z",
    })
    assert Q.is_moving
    f = curve_poly([1, 1], [0, 2], [3])
    g = Q.compose(f)
    for zr in (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)):
        z = GR(zr)
        point = [c.eval_exact(z) for c in f]
        assert g.eval_exact(z) == eval_form(Q.at(z), point)


def test_at_drops_vanishing_coefficients():
    Q = parse_hypersurface(2, 1, {"x0": "poly: z", "x1": "1"})
    snap = Q.at(GR(0))
    assert snap.terms == {Monomial((0, 1)): GR(1)}


def test_at_all_vanish_is_degenerate():
    Q = parse_hypersurface(2, 1, {"x0": "poly: z", "x1": "poly: 2*z"})
    with pytest.raises(DegenerateInputError):
        Q.at(GR(0))


def test_normalize_constant_scaling():
    Q = fixed("2*x0^2 + 4*x1^2", 2)
    R = Q.normalize()
    assert R == fixed("x0^2 + 2*x1^2", 2)


def test_normalize_moving_coefficient():
    Q = parse_hypersurface(2, 1, {"x0": "poly: z", "x1": "1"})
    R = Q.normalize()
    one = Monomial((1, 0))
    other = Monomial((0, 1))
    assert R.coeffs[one] == AF.constant(GR(1))
    assert R.coeffs[other] == AF.rational(Poly1([GR(1)]), Poly1([GR(0), GR(1)]))


def test_normalize_missing_anchor_fails():
    Q = fixed("x1^2 + x0*x1", 2)
    with pytest.raises(DegenerateInputError):
        Q.normalize()


def test_norm_at_constant_coefficients():
    Q = fixed("x0 + x1", 2)
    assert abs(Q.norm_at(3 + 4j) - math.sqrt(2)) < 1e-12


def test_norm_at_moving():
    Q = parse_hypersurface(2, 1, {"x0": "poly: z", "x1": "1"})
    assert abs(Q.norm_at(2j) - math.sqrt(5)) < 1e-12


def test_norm_at_nodes_matches_points():
    Q = parse_hypersurface(3, 1, {"x0": "poly: z", "x1": "1",
                                  "x2": "exppoly: (1)*exp(i*z)"})
    z = np.array([0.5, 2j, -3 + 1j, 10.0], dtype=complex)
    got = Q.norm_at(z)
    for k, point in enumerate(z):
        assert got[k] == pytest.approx(Q.norm_at(complex(point)), rel=1e-14)


def test_validation_degree_mismatch():
    with pytest.raises(ValidationError):
        parse_hypersurface(2, 2, {"x0": "1"})
    with pytest.raises(ValidationError):
        MovingHypersurface(2, 1, {Monomial((2, 0)): AF.constant(GR(1))})


def test_identically_zero_rejected():
    with pytest.raises(DegenerateInputError):
        MovingHypersurface(2, 1, {Monomial((1, 0)): AF.constant(GR(0))})


def test_family_accessors():
    fam = HypersurfaceFamily([fixed("x0", 2), fixed("x1^2", 2),
                              fixed("x0^3", 2)])
    assert len(fam) == 3
    assert fam.degrees == (1, 2, 3)
    assert fam.common_degree == 6
    assert not fam.is_moving
    with pytest.raises(ValidationError):
        HypersurfaceFamily([])
    with pytest.raises(ValidationError):
        HypersurfaceFamily([fixed("x0", 2), fixed("x0", 3)])


def test_parse_rejects_bad_keys():
    with pytest.raises(ValidationError):
        parse_hypersurface(2, 2, {"x0 + x1": "1"})
    with pytest.raises(ValidationError):
        parse_hypersurface(2, 2, {"2*x0^2": "1"})
