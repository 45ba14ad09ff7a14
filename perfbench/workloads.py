"""Seeded scenario generators for the three benchmark workloads.

Each workload is a fixed list of slots, each drawn once per entry of
COPIES. A slot fixes the shape of one scenario (variety kind, degrees,
family size, curve class, grid, ``--max-u``) and the seed fills in the
coefficients, so a batch costs about the same on every seed while every
Groebner basis, divisor and quadrature node changes from seed to seed.

Only inputs whose expected outcome is known are generated. Every slot
records the paper quantities its reports must reproduce (see
``oracles.py``). The preconditions those quantities need are checked here
and the draw repeated when one fails: general position, and a variety
that misses a coordinate subspace, exactly; no zero of Q(f) in
|z| <= r0 by a bound with a margin of two; zeros of Q(f) off the grid
circles by sampling.

Slots marked ``known_defect`` are the cases where the Hilbert-window
dimension scan returns as soon as a short run of values fits a
polynomial, before a generator of degree 7 or more acts. They are scored
against Bezout like every other slot and are never excluded or resized.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("weights-ladder", "subset-scan", "nevanlinna-chain")

# Each slot is drawn this many times per batch: the sum over independent
# draws varies less from seed to seed than one draw does.
COPIES = ("a", "b", "c")

Poly = Dict[Tuple[int, ...], Fraction]   # homogeneous form: exponents -> coeff


@dataclass
class Job:
    """One CLI report: the subcommand, its scenario and what it must show."""

    command: str
    scenario: str
    args: List[str]
    expect: dict
    known_defect: bool = False

    @property
    def label(self) -> str:
        return f"{self.command}:{self.scenario}"


@dataclass
class Workload:
    name: str
    seed: int
    scenarios: Dict[str, dict] = field(default_factory=dict)
    jobs: List[Job] = field(default_factory=list)

    def write(self, directory: str) -> Dict[str, str]:
        """Write every scenario as canonical JSON; return name -> path."""
        os.makedirs(directory, exist_ok=True)
        paths = {}
        for name, data in sorted(self.scenarios.items()):
            path = os.path.join(directory, name + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(data, indent=1, sort_keys=True) + "\n")
            paths[name] = path
        return paths


# -- polynomial helpers ------------------------------------------------------


def _monomials(num_vars: int, degree: int) -> List[Tuple[int, ...]]:
    out = []
    for combo in itertools.combinations_with_replacement(range(num_vars),
                                                         degree):
        e = [0] * num_vars
        for v in combo:
            e[v] += 1
        out.append(tuple(e))
    return out


def _mono_text(e: Sequence[int]) -> str:
    parts = [f"x{i}^{k}" if k > 1 else f"x{i}" for i, k in enumerate(e) if k]
    return "*".join(parts)


def _poly_text(p: Poly) -> str:
    terms = []
    for e in sorted(p, reverse=True):
        c = p[e]
        if c:
            terms.append(f"({c})*{_mono_text(e)}")
    return " + ".join(terms)


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def _poly_eval(p: Poly, point: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for e, c in p.items():
        term = c
        for x, k in zip(point, e):
            term *= x ** k
        total += term
    return total


def _nonzero(rng: random.Random, bound: int = 5) -> Fraction:
    return Fraction(rng.choice([k for k in range(-bound, bound + 1) if k]))


def _dense_form(rng: random.Random, num_vars: int, degree: int) -> Poly:
    """Every monomial present, small nonzero integer coefficients."""
    return {e: _nonzero(rng) for e in _monomials(num_vars, degree)}


def _det(rows: List[List[Fraction]]) -> Fraction:
    """Determinant of an integer matrix (Bareiss elimination)."""
    m = [[int(x) for x in r] for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1])


def _independent(rows: List[List[Fraction]]) -> bool:
    """True when the rows are linearly independent."""
    if len(rows) == len(rows[0]):
        return _det(rows) != 0
    m = [list(r) for r in rows]
    for k in range(len(m)):
        piv = next((c for c in range(len(m[k])) if m[k][c]), None)
        if piv is None:
            return False
        for r in m[k + 1:]:
            f = r[piv] / m[k][piv]
            for c in range(len(r)):
                r[c] -= f * m[k][c]
    return True


def _general_hyperplanes(rng: random.Random, num_vars: int, count: int,
                         bound: int = 4) -> List[List[Fraction]]:
    """count hyperplanes, every num_vars of them linearly independent.

    Drawn one at a time; a draw that is dependent on some
    min(kept, num_vars - 1) of the hyperplanes already kept is drawn again,
    from a wider range after every 50 misses.
    """
    hs: List[List[Fraction]] = []
    misses = 0
    bound = max(bound, count // 2)
    while len(hs) < count:
        h = [Fraction(rng.randint(-bound, bound)) for _ in range(num_vars)]
        size = min(len(hs), num_vars - 1)
        if all(_independent([hs[i] for i in sub] + [h])
               for sub in itertools.combinations(range(len(hs)), size)):
            hs.append(h)
        else:
            misses += 1
            if misses % 50 == 0:
                bound += 1
    return hs


def _linear(h: Sequence[Fraction]) -> Poly:
    n = len(h)
    return {tuple(1 if j == i else 0 for j in range(n)): c
            for i, c in enumerate(h) if c}


def _point_of(hs: List[List[Fraction]]) -> List[Fraction]:
    """The point cut out by len(hs) = num_vars - 1 independent hyperplanes."""
    n = len(hs) + 1
    return [(-1) ** i * _det([[h[j] for j in range(n) if j != i] for h in hs])
            for i in range(n)]


# -- univariate exponential polynomials (for the analytic preconditions) -------


ExpPoly = Dict[complex, List[complex]]   # lambda -> polynomial coefficients


def _ep_add(a: ExpPoly, b: ExpPoly) -> ExpPoly:
    out = {k: list(v) for k, v in a.items()}
    for lam, cs in b.items():
        cur = out.setdefault(lam, [])
        cur.extend([0j] * (len(cs) - len(cur)))
        for k, c in enumerate(cs):
            cur[k] += c
    return out


def _ep_scale_poly(a: ExpPoly, poly: List[complex]) -> ExpPoly:
    out: ExpPoly = {}
    for lam, cs in a.items():
        prod = [0j] * (len(cs) + len(poly) - 1)
        for i, c in enumerate(cs):
            for j, d in enumerate(poly):
                prod[i + j] += c * d
        out[lam] = prod
    return out


def _ep_clear_of_zeros(g: ExpPoly, r0: float) -> bool:
    """True when g(0) != 0 and g has no zero in |z| <= r0, with a margin of
    two in the bound |g(z) - g(0)| <= sum over lambda of
    e^{|lambda| r0} sum_{k>=1} |c_k| r0^k + |c_0| (e^{|lambda| r0} - 1)."""
    g0 = sum(cs[0] for cs in g.values() if cs)
    drift = 0.0
    for lam, cs in g.items():
        grow = math.exp(abs(lam) * r0)
        drift += grow * sum(abs(c) * r0 ** k for k, c in enumerate(cs) if k)
        drift += abs(cs[0]) * (grow - 1) if cs else 0.0
    return abs(g0) > 2 * drift


def _ep_eval(g: ExpPoly, z: complex) -> Tuple[complex, complex]:
    """g(z) and g'(z)."""
    val = der = 0j
    for lam, cs in g.items():
        p = dp = 0j
        for c in reversed(cs):
            dp = dp * z + p
            p = p * z + c
        e = cmath.exp(lam * z)
        val += p * e
        der += (dp + lam * p) * e
    return val, der


def _clear_of_circles(g: ExpPoly, radii: Sequence[float],
                      clearance: float = 0.02, samples: int = 256) -> bool:
    """True when no zero of g comes within about clearance * r of a grid
    circle |z| = r, judged by the Newton step |g / g'| at sample points.
    A zero closer than that makes the circle quadrature of log|g| slow."""
    for r in radii:
        for m in range(samples):
            val, der = _ep_eval(g, r * cmath.exp(2j * math.pi * m / samples))
            if der != 0 and abs(val) < clearance * r * abs(der):
                return False
    return True


def _grid_radii(grid: dict, R) -> List[float]:
    if grid["kind"] == "finite":
        return [R * (1 - 2.0 ** (-j)) for j in range(1, grid["points"] + 1)]
    ratio = (grid["r_max"] / grid["r_min"]) ** (1.0 / (grid["points"] - 1))
    return [grid["r_min"] * ratio ** j for j in range(grid["points"])]


def _poly_text1(cs: Sequence[complex]) -> str:
    terms = []
    for k, c in enumerate(cs):
        if c == 0:
            continue
        coeff = _gauss_text(c)
        terms.append(f"({coeff})" + ("" if k == 0 else
                                     ("*z" if k == 1 else f"*z^{k}")))
    return " + ".join(terms) if terms else "0"


def _gauss_text(c: complex) -> str:
    # every generated coefficient and exponent rate is a real rational
    if c.imag:
        raise ValueError(f"non-real coefficient {c}")
    return str(Fraction(c.real).limit_denominator(1000))


def _lam_text(lam: complex) -> str:
    if lam == 0:
        return "0"
    return f"({_gauss_text(lam)})*z"


def _function_text(f: ExpPoly) -> str:
    if set(f) == {0}:
        return "poly: " + _poly_text1(f[0])
    parts = [f"({_poly_text1(cs)})*exp({_lam_text(lam)})"
             for lam, cs in sorted(f.items(), key=lambda kv: (kv[0].real,
                                                              kv[0].imag))]
    return "exppoly: " + " + ".join(parts)


# -- scenario skeletons --------------------------------------------------------


def _plane_curve_components(N: int) -> List[str]:
    # the weights and subset-scan reports never evaluate the curve; any
    # nondegenerate map with N + 1 components keeps the scenario valid
    return ["poly: 1"] + [f"poly: z^{k}" for k in range(1, N + 1)]


def _algebra_scenario(N: int, generators: List[Poly],
                      family: List[Poly] = (), degree: int = 1) -> dict:
    hyps = [{"degree": degree,
             "coefficients": {_mono_text(e): str(c)
                              for e, c in sorted(Q.items()) if c}}
            for Q in family]
    if not hyps:
        hyps = [{"degree": 1, "coefficients": {"x0": "1"}}]
    return {
        "ambient_N": N,
        "variety_generators": [_poly_text(g) for g in generators],
        "curve": {"components": _plane_curve_components(N),
                  "domain_R": "inf"},
        "hypersurfaces": hyps,
        "epsilon": "1",
        "r0": 0.25,
        "grid": {"kind": "geometric", "r_min": 2.0, "r_max": 1000.0,
                 "points": 4},
        "seed": 0,
    }


# -- weights-ladder ------------------------------------------------------------


def _top_weights(num_vars: int, k: int) -> int:
    # the CLI's ladder c = (1, ..., N+1): the k+1 largest entries
    return sum(range(num_vars - k, num_vars + 1))


def _rnc(rng: random.Random, n: int) -> List[Poly]:
    """2x2 minors of the degree-n rational normal curve after a seeded
    diagonal scaling. Diagonal changes commute with the weight ladder, so
    the Chow weight stays the toric value n(c_0 + c_n) = n(n+2)."""
    s = [Fraction(rng.choice([1, 2, 3]) * rng.choice([1, -1]))
         for _ in range(n + 1)]
    gens = []
    for i in range(n):
        for j in range(i + 1, n):
            a = [0] * (n + 1)
            b = [0] * (n + 1)
            a[i] += 1
            a[j + 1] += 1
            b[i + 1] += 1
            b[j] += 1
            gens.append({tuple(a): s[i] * s[j + 1],
                         tuple(b): -s[i + 1] * s[j]})
    return gens


def _weights_ladder(w: Workload, rng: random.Random) -> None:
    """Chosen to load groebner.normal_form and weights.hilbert_weight on
    one basis per report, the path ROADMAP measured at ~90% _reduce_full.
    The analytic layers stay idle: the prediction for them is no change.

    Expected values: dim and degree by Bezout (the RNC has degree n); the
    Chow weight for the ladder c = (1..N+1) is n(n+2) on the rational
    normal curve (toric) and, for a variety X of dimension k and degree
    delta missing the coordinate subspace {x_{N-k} = ... = x_N = 0}, the
    generic value delta * (sum of the k+1 largest weights). Each generator
    below guarantees that miss exactly.
    """
    def add(name: str, N: int, gens: List[Poly], max_u: int, dim: int,
            degree: int, chow: Fraction, known_defect: bool = False) -> None:
        w.scenarios[name] = _algebra_scenario(N, gens)
        w.jobs.append(Job("weights", name, ["--max-u", str(max_u)],
                          {"dim": dim, "degree": degree, "chow": str(chow)},
                          known_defect))

    for copy in COPIES:
        for n, max_u in ((2, 18), (3, 11), (4, 8)):
            add(f"rnc{n}{copy}", n, _rnc(rng, n), max_u, 1, n,
                Fraction(n * (n + 2)))
        for d, max_u in ((2, 13), (3, 13), (4, 12), (5, 12), (6, 12)):
            # x0^d present: the curve misses the point {x1 = x2 = 0}
            add(f"plane{d}{copy}", 2, [_dense_form(rng, 3, d)], max_u, 1, d,
                Fraction(d * _top_weights(3, 1)))
        add(f"quadric{copy}", 3, [_dense_form(rng, 4, 2)], 7, 2, 2,
            Fraction(2 * _top_weights(4, 2)))
        # sparse (2,3) complete intersection: on the line {x2 = x3 = 0}
        # the generators restrict to a x0^2 + b x1^2 and d x1^3, with no
        # common zero
        a, b, c = (_nonzero(rng) for _ in range(3))
        d, e, g, h = (_nonzero(rng) for _ in range(4))
        ci = [{(2, 0, 0, 0): a, (0, 2, 0, 0): b, (0, 0, 1, 1): c},
              {(0, 3, 0, 0): d, (1, 0, 2, 0): e, (0, 0, 0, 3): g,
               (1, 1, 0, 1): h}]
        add(f"ci23{copy}", 3, ci, 9, 1, 6, Fraction(6 * _top_weights(4, 1)))

    # known-defect slice: plane curves of degree 7-9, and seven collinear
    # points (a (1,7) complete intersection)
    for d in (7, 8, 9):
        add(f"plane{d}", 2, [_dense_form(rng, 3, d)], 12, 1, d,
            Fraction(d * _top_weights(3, 1)), known_defect=True)
    while True:
        u, v = _nonzero(rng), _nonzero(rng)
        line = {(1, 0, 0): Fraction(1), (0, 1, 0): -u, (0, 0, 1): -v}
        septic = _dense_form(rng, 3, 7)
        # the one point of the line with x2 = 0 must not be a root
        if _poly_eval(septic, [u, Fraction(1), Fraction(0)]) != 0:
            break
    add("points7", 2, [line, septic], 12, 0, 7,
        Fraction(7 * _top_weights(3, 0)), known_defect=True)


# -- subset-scan -----------------------------------------------------------------


def _product_family(rng: random.Random, num_vars: int, count: int,
                    degree: int) -> List[Poly]:
    """count forms, each a product of `degree` hyperplanes, all count*degree
    hyperplanes in general position. Then any s members meet in codimension
    s (empty past the ambient dimension), so Delta = 1 exactly."""
    hs = _general_hyperplanes(rng, num_vars, count * degree)
    family = []
    for k in range(count):
        form: Poly = {(0,) * num_vars: Fraction(1)}
        for h in hs[k * degree:(k + 1) * degree]:
            form = _poly_mul(form, _linear(h))
        family.append(form)
    return family


def _line_span(h1: List[Fraction], h2: List[Fraction]) -> List[List[Fraction]]:
    """Two distinct points spanning the line h1 = h2 = 0 in P^3."""
    points: List[List[Fraction]] = []
    for i in range(4):
        p = _point_of([h1, h2, [Fraction(int(j == i)) for j in range(4)]])
        if any(p) and not any(
                all(a * d == b * c for (a, b), (c, d)
                    in itertools.combinations(zip(p, q), 2))
                for q in points):
            points.append(p)
    return points[:2]


def _quadric_lines(rng: random.Random, count: int) -> Tuple[Poly, List[Poly]]:
    """A dense quadric surface and `count` planes in general position to it:
    no two planes meet in a line of the quadric, no three in a point of it."""
    while True:
        quadric = _dense_form(rng, 4, 2)
        hs = _general_hyperplanes(rng, 4, count)
        if any(_poly_eval(quadric, _point_of(list(trio))) == 0
               for trio in itertools.combinations(hs, 3)):
            continue
        # the quadric restricted to a line is a binary quadratic: it
        # vanishes identically iff it vanishes at three points of the line
        if any(all(_poly_eval(quadric, [a * x + b * y for x, y in zip(P, Q)])
                   == 0 for a, b in ((1, 0), (0, 1), (1, 1)))
               for P, Q in (_line_span(h1, h2)
                            for h1, h2 in itertools.combinations(hs, 2))):
            continue
        return quadric, [_linear(h) for h in hs]


def _subset_scan(w: Workload, rng: random.Random) -> None:
    """Chosen to load groebner the other way from weights-ladder: thousands
    of small bases, one per subset (intersection_dim), plus dim_degree and
    the interval constants. A Buchberger or Hilbert change tuned for one
    big basis has to hold up here too.

    Expected values: Delta = 1 for every family in general position, and
    every scanned subset of size s cuts dimension n - s (empty past n).
    The constants follow from (n, deg V, d, q, Delta, epsilon) by the
    paper's closed forms.
    """
    def add(name: str, N: int, gens: List[Poly], family: List[Poly],
            degree: int, dim: int, deg_v: int, known_defect: bool = False,
            commands=("distributive", "constants")):
        w.scenarios[name] = _algebra_scenario(N, gens, family, degree)
        expect = {"dim": dim, "degree": deg_v, "d": degree,
                  "q": len(family), "delta": "1"}
        for command in commands:
            w.jobs.append(Job(command, name, [], expect, known_defect))

    for copy in COPIES:
        for N, q in ((2, 10), (3, 8), (4, 6)):
            add(f"lines_p{N}{copy}", N, [],
                _product_family(rng, N + 1, q, 1), 1, N, 1)
        add(f"conics_p2{copy}", 2, [], _product_family(rng, 3, 6, 2), 2,
            2, 1)
        quadric, planes = _quadric_lines(rng, 6)
        add(f"quadric_planes{copy}", 3, [quadric], planes, 1, 2, 2)

    # known-defect slice: three plane curves of degree 7 and 8
    for d in (7, 8):
        add(f"septics_p2_{d}", 2, [], _product_family(rng, 3, 3, d), d,
            2, 1, known_defect=True)


# -- nevanlinna-chain --------------------------------------------------------------


def _random_poly1(rng: random.Random, degree: int) -> List[complex]:
    cs = [complex(rng.randint(-3, 3)) for _ in range(degree)]
    cs.append(complex(_nonzero(rng, 3)))
    return cs


def _component(cs: List[complex], lam: complex = 0) -> ExpPoly:
    return {lam: list(cs)}


def _compose(target: List[List[complex]], comps: List[ExpPoly]) -> ExpPoly:
    """Q(f) for a linear target with polynomial coefficient functions."""
    out: ExpPoly = {}
    for coeff, comp in zip(target, comps):
        if any(coeff):
            out = _ep_add(out, _ep_scale_poly(comp, coeff))
    return out


def _poly_degree(g: ExpPoly) -> int:
    cs = g.get(0, [])
    nz = [k for k, c in enumerate(cs) if abs(c) > 0]
    return max(nz) if nz else 0


def _cauchy_radius(g: ExpPoly) -> float:
    cs = g[0]
    D = _poly_degree(g)
    return 1 + max((abs(c / cs[D]) for c in cs[:D]), default=0.0)


def _targets(rng: random.Random, comps: List[ExpPoly], count: int,
             moving: bool, r0: float,
             admissible: Callable[[ExpPoly], bool]
             ) -> List[List[List[complex]]]:
    """Linear targets in general position as constant forms, each with
    Q(f) nonzero at 0 and free of zeros on |z| <= r0 (the fmt-check
    precondition) and admissible."""
    n = len(comps)
    while True:
        out = []
        for _ in range(count):
            for _attempt in range(200):
                # every coefficient nonzero: each Q(f) has the same shape
                # on every seed, so a report costs about the same
                t = [[complex(_nonzero(rng, 3))] for _ in range(n)]
                t[0] = [complex(rng.choice([5, 6, 7, -5, -6, -7]))]
                if moving:
                    k = rng.randrange(n)
                    t[k] = [t[k][0], complex(_nonzero(rng, 2)) / 4]
                g = _compose(t, comps)
                if _ep_clear_of_zeros(g, r0) and admissible(g):
                    out.append(t)
                    break
            else:
                raise RuntimeError("no admissible target found")
        const = [[Fraction(int(c[0].real)) for c in t] for t in out]
        if all(_det([const[i] for i in sub]) != 0
               for sub in itertools.combinations(range(count), n)):
            return out


def _target_json(t: List[List[complex]]) -> dict:
    coeffs = {}
    for i, cs in enumerate(t):
        if not any(cs):
            continue
        key = f"x{i}"
        coeffs[key] = (_gauss_text(cs[0]) if len(cs) == 1
                       else "poly: " + _poly_text1(cs))
    return {"degree": 1, "coefficients": coeffs,
            "moving": any(len(cs) > 1 for cs in t)}


def _nevanlinna_chain(w: Workload, rng: random.Random) -> None:
    """Chosen to load nevanlinna.circle_average and analytic.zeros_in_disc,
    about half and half on an exp-poly report, with trivial algebra. Each
    curve goes through nevanlinna, fmt-check, verify and (fixed targets)
    defects in turn, so T, Q(f) and the divisors are recomputed four times
    for the same scenario: the redundancy ROADMAP item 5 removes. The
    algebra workloads stay idle here: the prediction for them is no change.

    Polynomial curves take the exact-factoring zero path, exp-poly curves
    the winding-subdivision path; targets are fixed and moving linear forms
    on both the plane and disc domains.

    Expected values: first-main-theorem flatness (d T - m - N plus the
    circle average of log ||Q|| is constant in r, by Jensen), the zero
    count deg Q(f) of a polynomial Q(f) on circles past its Cauchy radius,
    (n, deg V) of the variety, verify not falsified, defects holding.
    """
    r0 = 0.25

    def add(name: str, N: int, gens: List[Poly], comps: List[ExpPoly],
            count: int, moving: bool, domain_R, grid: Optional[dict],
            dim: int, deg_v: int, known_defect: bool = False,
            growth: Optional[str] = None) -> None:
        if grid is None:
            # polynomial Q(f) on the plane: a Cauchy radius below half the
            # first radius puts every zero well inside the first circle, so
            # the circles stay clear and the truncated inequality is past
            # its small-r transient
            grid = {"kind": "geometric", "r_min": 40.0, "r_max": 950.0,
                    "points": 3}

            def admissible(g: ExpPoly) -> bool:
                return _cauchy_radius(g) <= grid["r_min"] / 2
        else:
            radii = _grid_radii(grid, domain_R)

            def admissible(g: ExpPoly) -> bool:
                # a + b e^{lambda z} with a/b > 0 has its zeros at
                # Im(lambda z) = odd multiples of pi, the same count on
                # every seed
                return (all((g[lam][0] * g[0][0].conjugate()).real > 0
                            for lam in g if lam != 0)
                        and _clear_of_circles(g, radii))
        targets = _targets(rng, comps, count, moving, r0, admissible)
        composed = [_compose(t, comps) for t in targets]
        data = {
            "ambient_N": N,
            "variety_generators": [_poly_text(g) for g in gens],
            "curve": {"components": [_function_text(c) for c in comps],
                      "domain_R": domain_R},
            "hypersurfaces": [_target_json(t) for t in targets],
            "epsilon": "1/2",
            "r0": r0,
            "grid": grid,
            "seed": rng.randrange(1000),
        }
        if growth is not None:
            data["growth_model"] = {"lambda": growth}
        w.scenarios[name] = data
        polynomial = all(set(c) == {0} for c in comps)
        expect = {"dim": dim, "degree": deg_v,
                  "targets": [[[[c.real, c.imag] for c in cs] for cs in t]
                              for t in targets]}
        if polynomial and domain_R == "inf":
            expect["zero_counts"] = [_poly_degree(g) for g in composed]
            expect["cauchy_radius"] = max(_cauchy_radius(g)
                                          for g in composed)
        commands = ["nevanlinna", "fmt-check", "verify"]
        if not moving:
            commands.append("defects")
        for command in commands:
            w.jobs.append(Job(command, name, [], expect, known_defect))

    plane = None
    # disc radii avoid the short rationals that zeros of these
    # small-coefficient Q(f) could hit exactly
    disc = {"kind": "finite", "points": 3}
    # with a/b > 0 (see admissible) the zeros of a + b e^{z} sit at
    # |Im z| = pi, 3 pi, ..., so the circles from 5 to 8 hold exactly two
    # per target, clear of all of them, and past the small-r transient
    exp_plane = {"kind": "geometric", "r_min": 5.0, "r_max": 8.0,
                 "points": 3}
    for copy in COPIES:
        p1 = [_component([1]), _component(_random_poly1(rng, 3))]
        add(f"poly_p1_fixed{copy}", 1, [], p1, 3, False, "inf", plane, 1, 1)
        p1m = [_component([1]), _component(_random_poly1(rng, 2))]
        add(f"poly_p1_moving{copy}", 1, [], p1m, 3, True, "inf", plane, 1, 1)
        p1d = [_component([1]), _component(_random_poly1(rng, 2))]
        add(f"poly_p1_disc{copy}", 1, [], p1d, 3, False, 1.9, disc, 1, 1,
            growth="2")
        # (1, p, q) with deg p = 1, deg q = 3 has no quadratic relation
        p2 = [_component([1]), _component(_random_poly1(rng, 1)),
              _component(_random_poly1(rng, 3))]
        add(f"poly_p2_fixed{copy}", 2, [], p2, 4, False, "inf", plane, 2, 1)
        p = _random_poly1(rng, 1)
        conic = [_component([1]), _component(p),
                 _component([p[0] * p[0], 2 * p[0] * p[1], p[1] * p[1]])]
        conic_gen = {(1, 0, 1): Fraction(1), (0, 2, 0): Fraction(-1)}
        add(f"poly_conic_fixed{copy}", 2, [conic_gen], conic, 4, False,
            "inf", plane, 1, 2)

        lam = complex(rng.choice([1, -1]), 0)
        e1 = [_component([1]), _component([complex(_nonzero(rng, 2))], lam)]
        add(f"exp_p1_fixed{copy}", 1, [], e1, 3, False, "inf", exp_plane,
            1, 1)
        e1d = [_component([1]),
               _component([complex(_nonzero(rng, 2))], lam)]
        add(f"exp_p1_disc_moving{copy}", 1, [], e1d, 3, True, 2.9, disc,
            1, 1, growth="2")

    # known-defect slice: the curve (1, z, z^7) on the plane septic
    # x0^6 x2 = x1^7, degree 7 by Bezout
    sep = [_component([1]), _component([0, 1]),
           _component([0] * 7 + [1])]
    sep_gen = {(6, 0, 1): Fraction(1), (0, 7, 0): Fraction(-1)}
    add("poly_septic_fixed", 2, [sep_gen], sep, 3, False, "inf", plane,
        1, 7, known_defect=True)


_BUILDERS = {
    "weights-ladder": _weights_ladder,
    "subset-scan": _subset_scan,
    "nevanlinna-chain": _nevanlinna_chain,
}


def build(name: str, seed: int) -> Workload:
    """The workload's scenarios and report list, a pure function of seed."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    w = Workload(name, seed)
    _BUILDERS[name](w, random.Random(f"{name}:{seed}"))
    return w
