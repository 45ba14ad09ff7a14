"""Nevanlinna functionals on discs: T, m, N, residuals, defects, margins.

The characteristic uses the circle-average (Cartan) form; it differs from
the area-integral definition by a bounded term that cancels in every ratio,
defect, and margin computed here.  Counting functions follow the stated
integral N(r) = int_{r0}^r (n(t) - n(0)) dt/t exactly: zeros at the origin
contribute nothing.  A strict-Jensen switch restores the classical
n(0) log(r/r0) term for users who want it; shipped scenarios avoid origin
zeros so the two agree there.

Every circle average comes from one kernel, circle_averages: each
(integrand, circle) pair doubles its nodes until stable, capped at
_QUAD_NODES = 2^16, and all circles advance level by level together, so a
grid's T is one integrand call per level and its m rows for every target
one more.  The kernel returns every (row, circle) average or raises the
first failure it meets, level by level: what the integrand raised, else
the level's first failing pair, row by row and then radius by radius.
Divisors are taken on a radius padded past the grid's last circle (three
pads are tried), and m_f(r, Q) refuses a circle within 1e-9 of a zero of
Q(f) before any node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ._lazy import np
from .analytic import Divisor, wronskian, zeros_in_disc
from .errors import (
    CertificationError,
    DegenerateInputError,
    ValidationError,
)
from .functions import AnalyticFunction, Curve, RadialGrid
from .hypersurfaces import HypersurfaceFamily, MovingHypersurface
from .exact_algebra import monomials_of_degree, rank_of_vectors
from .scalars import GaussianRational

_ORIGIN_TOL = 1e-12
_QUAD_NODES = 2 ** 16   # node cap of every circle average
_CHUNK_NODES = 2 ** 15  # most nodes handed to an integrand in one call


def circle_averages(fn: Callable[[np.ndarray], np.ndarray],
                    radii: Sequence[float], tol: float = 1e-8
                    ) -> List[List[Tuple[float, int]]]:
    """Trapezoid averages of each row of fn over each circle |z| = r.

    fn is an array integrand: it maps a 1-D complex array of nodes to a
    (rows, nodes) array, one row per integrand.  Each (row, circle) pair
    doubles its nodes from 64 until two successive levels agree within
    tol: a numerical convergence check, not a certificate, since the
    trapezoid error itself is not bounded.  Periodic analytic integrands
    converge spectrally; integrands with corners (maxima of smooth
    families) still converge, just slower.  The circles advance level by
    level together: a level is one call of fn on the nodes it adds on
    every circle where a pair still runs, whole circles at a time and at
    most _CHUNK_NODES nodes per call.

    Returns per row a list, in radius order, of (average, nodes used), or
    raises the first failure met, level by level: whatever fn raises on a
    level, else the level's first failing (row, circle) pair, row by row
    and then radius by radius, as a CertificationError: a level sum that
    is not finite (a float overflow in fn), or no agreement within
    _QUAD_NODES nodes.
    """
    radii = tuple(radii)
    done: dict = {}      # (row, circle) -> (average, nodes)
    running: dict = {}   # (row, circle) -> (total, last average), row-major
    rows, nodes, steps, live = 0, 64, np.arange(64), list(range(len(radii)))
    while live:
        unit = np.exp(2j * math.pi * steps / nodes)
        sums = dict(zip(live, _level_sums(fn, [radii[i] for i in live],
                                          unit)))
        if nodes == 64:
            rows = len(sums[0])
            running = dict.fromkeys(
                (j, i) for j in range(rows) for i in live)
        for (j, i), acc in list(running.items()):
            s = sums[i][j]
            if not math.isfinite(s):
                raise CertificationError(
                    f"circle average on |z| = {radii[i]} is not finite (a "
                    "float computation overflowed)")
            total = s if acc is None else acc[0] + s
            cur = total / nodes
            if acc is not None and abs(cur - acc[1]) <= tol:
                done[j, i] = (cur, nodes)
                del running[j, i]
            elif nodes < _QUAD_NODES:
                running[j, i] = (total, cur)
            else:
                raise CertificationError(
                    f"circle average on |z| = {radii[i]} did not reach "
                    f"tolerance {tol} within {_QUAD_NODES} nodes")
        live = sorted({i for _, i in running})
        steps, nodes = 2 * np.arange(nodes) + 1, 2 * nodes
    return [[done[j, i] for i in range(len(radii))] for j in range(rows)]


def _level_sums(fn: Callable[[np.ndarray], np.ndarray],
                radii: List[float], unit: np.ndarray) -> List[List[float]]:
    """Per circle r in radii, the row sums of fn on the nodes r * unit."""
    per = max(1, _CHUNK_NODES // len(unit))
    out: List[List[float]] = []
    for start in range(0, len(radii), per):
        part = radii[start:start + per]
        z = np.concatenate([r * unit for r in part])
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.asarray(fn(z), dtype=float)
            if values.ndim != 2 or values.shape[1] != len(z):
                raise ValueError("circle_averages integrands return one "
                                 "row of values per node")
            # one pairwise sum per (row, circle), as np.sum of each
            out.extend(values.reshape(len(values), len(part), len(unit))
                       .sum(axis=2).T.tolist())
    return out


def circle_average(fn: Callable[[np.ndarray], np.ndarray], r: float,
                   tol: float = 1e-8) -> Tuple[float, int]:
    """Trapezoid average of fn over |z| = r: the one-circle, one-row case
    of :func:`circle_averages`, for an fn that returns one real value per
    node.  Returns (average, nodes used)."""
    ((cell,),) = circle_averages(lambda z: [fn(z)], [r], tol)
    return cell


def _characteristic_row(curve: Curve, radii: Sequence[float],
                        tol: float) -> List[float]:
    """T_f(r) for each r in radii from one kernel call, once every radius
    is checked to lie inside the curve's domain."""
    for r in radii:
        if not 0 < r < curve.domain_radius:
            raise ValidationError(
                f"radius {r} outside the curve domain "
                f"(R = {curve.domain_radius})")
    (row,) = circle_averages(lambda z: [curve.log_norm(z)], radii, tol)
    origin = curve.log_norm(0j)
    return [avg - origin for avg, _ in row]


def characteristic(curve: Curve, r: float, tol: float = 1e-8) -> float:
    """T_f(r): circle average of log ||f|| minus its value at the origin."""
    return _characteristic_row(curve, (r,), tol)[0]


def counting(divisor: Divisor, grid: RadialGrid,
             k: Union[int, float] = math.inf,
             strict_origin: bool = False) -> List[float]:
    """N^[k](r) over the grid, exactly from the divisor's step structure."""
    if divisor.radius < grid.values[-1] - 1e-12:
        raise ValidationError(
            f"divisor valid to {divisor.radius}, grid reaches "
            f"{grid.values[-1]}")
    cap = None if k in (math.inf, None) else int(k)
    if cap is not None and cap < 1:
        raise ValidationError("truncation level must be >= 1")

    def trunc(m: int) -> int:
        return m if cap is None else min(cap, m)

    moduli = [(abs(z), trunc(m)) for z, m in divisor.points]
    n_origin = sum(t for a, t in moduli if a <= _ORIGIN_TOL)
    n_r0 = sum(t for a, t in moduli if a <= grid.r0)
    out: List[float] = []
    for r in grid.values:
        val = sum(t * math.log(r / a) for a, t in moduli
                  if grid.r0 < a <= r)
        base = n_r0 if strict_origin else n_r0 - n_origin
        out.append(val + base * math.log(r / grid.r0))
    return out


def proximity(curve: Curve, Q: MovingHypersurface, r: float,
              tol: float = 1e-8,
              divisor: Optional[Divisor] = None,
              composed: Optional[AnalyticFunction] = None) -> float:
    """m_f(r, Q): average of log(||f||^d ||Q(z)|| / |Q(f)(z)|).

    The exponent is d = deg Q, forced by degree homogeneity.  When the
    divisor of Q(f) is supplied, a zero within 1e-9 of the circle raises
    CertificationError before any quadrature: the log singularity there
    keeps the average from converging.
    """
    g = _compose(curve, Q) if composed is None else composed
    if divisor is not None:
        _refuse_zero_near(divisor, (r,))
    ((cell,),) = circle_averages(_proximity_integrand(curve, [(Q, g)]),
                                 [r], tol)
    return cell[0]


def _proximity_integrand(curve: Curve,
                         targets: Sequence[Tuple[MovingHypersurface,
                                                 AnalyticFunction]]
                         ) -> Callable[[np.ndarray], list]:
    """Kernel integrand of m_f(r, Q) for each (Q, Q(f)) in targets:
    log ||f|| is evaluated once per call for all of them."""
    def integrand(z: np.ndarray) -> list:
        log_f = curve.log_norm(z)
        return [Q.degree * log_f + np.log(Q.norm_at(z)) - g.log_abs(z)
                for Q, g in targets]
    return integrand


def _refuse_zero_near(divisor: Divisor, radii: Sequence[float]) -> None:
    """Refuse the first circle |z| = r, r in radii, that a zero of the
    divisor lies within 1e-9 of."""
    for r in radii:
        if any(abs(abs(z) - r) < 1e-9 for z, _ in divisor.points):
            raise CertificationError(
                f"zero of Q(f) within 1e-9 of the circle |z| = {r}")


def _compose(curve: Curve, Q: MovingHypersurface,
             j: Optional[int] = None) -> AnalyticFunction:
    """Q(f), rejected when it vanishes identically; j names the target."""
    g = Q.compose(curve.components)
    if g.is_zero():
        where = "the hypersurface" if j is None else f"hypersurface {j}"
        raise DegenerateInputError(f"curve lies in {where}")
    return g


def _top_decile_defect(grid: RadialGrid, N: Sequence[float],
                       T: Sequence[float], degree: int) -> float:
    """1 - max of N/(degree T) over the grid's top decile."""
    if any(T[i] <= 0 for i in grid.top_decile()):
        raise ValidationError("characteristic must be positive on the "
                              "grid's top decile (a constant curve?)")
    return 1.0 - max(N[i] / (degree * T[i]) for i in grid.top_decile())


def _divisor_with_pad(g: AnalyticFunction, r_max: float) -> Divisor:
    """Zeros of g in a disc slightly larger than the grid's reach."""
    last: Optional[Exception] = None
    for pad in (1.001, 1.0037, 1.0102):
        try:
            return zeros_in_disc(g, r_max * pad)
        except CertificationError as err:
            last = err
    raise CertificationError(
        f"could not certify a divisor beyond radius {r_max}: {last}")


def fmt_residual(curve: Curve, Q: MovingHypersurface, grid: RadialGrid,
                 tol: float = 1e-8) -> Tuple[List[float], float]:
    """Residuals d T - m - N over the grid and their spread.

    Requires no zeros of Q(f) inside |z| <= r0 (so none at the origin),
    so the origin-dropping convention misses nothing and the residual must
    be flat up to quadrature error for fixed Q.
    """
    profile = build_profile(curve, HypersurfaceFamily([Q]), grid, math.inf,
                            tol)
    return _fmt_residuals(profile, [Q.degree])[0]


def _fmt_residuals(profile: "NevanlinnaProfile", degrees: Sequence[int]
                   ) -> List[Tuple[List[float], float]]:
    """(residuals, spread) per target of a profile, once the divisors it
    found pass the r0 precondition of ``fmt_residual``."""
    if any(abs(z) <= profile.grid.r0
           for div in profile.divisors for z, _ in div.points):
        raise ValidationError(
            "zeros of Q(f) inside |z| <= r0; residual check inapplicable")
    columns = [profile._residuals(j, d) for j, d in enumerate(degrees)]
    return [(c, max(c) - min(c)) for c in columns]


@dataclass(frozen=True)
class GrowthIndexEstimate:
    value: float
    interval: Tuple[float, float]
    mode: str


def growth_index_model(lam: float, R: float) -> GrowthIndexEstimate:
    """Exact index for the model profile T(r) = lam log(1/(R - r))."""
    if lam <= 0:
        raise ValidationError("model slope must be positive")
    if math.isinf(R):
        return GrowthIndexEstimate(0.0, (0.0, 0.0), "model")
    c = 1.0 / lam
    return GrowthIndexEstimate(c, (c, c), "model")


def growth_index_sampled(grid: RadialGrid,
                         T: Sequence[float]) -> GrowthIndexEstimate:
    """Index from sampled T: fit against log(1/(R-r)) on the top decile.

    Maps from the whole plane have index 0 for any nonconstant profile.
    """
    if len(T) != len(grid.values):
        raise ValidationError("one T value per grid radius required")
    if any(b - a < -1e-9 for a, b in zip(T, T[1:])):
        raise ValidationError("characteristic samples must be non-decreasing")
    if math.isinf(grid.R):
        return GrowthIndexEstimate(0.0, (0.0, 0.0), "sampled")
    idx = grid.top_decile()
    if len(idx) < 3:
        idx = tuple(range(max(0, len(T) - 3), len(T)))
    xs = [math.log(1.0 / (grid.R - grid.values[i])) for i in idx]
    ys = [T[i] for i in idx]
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx <= 0:
        raise ValidationError("degenerate radii for the growth fit")
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    if slope <= 0:
        raise CertificationError("profile does not blow up; no estimate")
    resid = [y - (my + slope * (x - mx)) for x, y in zip(xs, ys)]
    rss = sum(e * e for e in resid)
    scale = sum((y - my) ** 2 for y in ys)
    if scale > 0 and rss > 0.01 * scale:
        raise CertificationError(
            "profile is not of logarithmic-blowup type; no estimate")
    se = math.sqrt(rss / max(1, n - 2) / sxx)
    lo = 1.0 / (slope + 2 * se)
    hi = 1.0 / max(slope - 2 * se, 1e-300)
    return GrowthIndexEstimate(1.0 / slope, (lo, hi), "sampled")


@dataclass(frozen=True)
class DefectEstimate:
    value: float
    tail: Tuple[Tuple[float, float], ...]
    k: Union[int, float]


def defect(curve: Curve, Q: MovingHypersurface, k: Union[int, float],
           grid: RadialGrid, tol: float = 1e-8,
           strict_origin: bool = False) -> DefectEstimate:
    """Truncated defect 1 - max of N^[k]/(d T) over the grid's top decile,
    with T and the divisor of Q(f) read from a :class:`GridSession`.

    A grid cannot realize a limsup; the last three raw ratios ride along
    so non-convergence stays visible.
    """
    session = GridSession(curve, HypersurfaceFamily([Q]), grid)
    N = counting(session.divisor(0), grid, k, strict_origin)
    T = session.characteristic(tol)
    if min(T) <= 0:
        raise ValidationError("characteristic must be positive on the grid")
    tail = tuple((grid.values[i], N[i] / (Q.degree * T[i]))
                 for i in range(len(T))[-3:])
    return DefectEstimate(_top_decile_defect(grid, N, T, Q.degree), tail, k)


def _independent_tuples(hyperplanes: Sequence[MovingHypersurface],
                        size: int) -> List[Tuple[int, ...]]:
    degree_one = monomials_of_degree(hyperplanes[0].num_vars, 1)
    vectors = []
    for h in hyperplanes:
        snap = h.at(GaussianRational(0))
        vectors.append({m: snap.terms[m] for m in degree_one
                        if m in snap.terms})
    out = []
    for combo in combinations(range(len(hyperplanes)), size):
        if rank_of_vectors([vectors[j] for j in combo]) == size:
            out.append(combo)
    return out


def check_ru_sibony(curve: Curve, hyperplanes: Sequence[MovingHypersurface],
                    grid: RadialGrid, tol: float = 1e-8
                    ) -> List[Tuple[float, float, float]]:
    """Margin rows (r, margin, T) for the hyperplane second main theorem.

    margin = (n+1) T - [avg over the circle of max_K sum_{j in K}
    log(||f|| ||H_j|| / |H_j(f)|) + N_W], K ranging over linearly
    independent (n+1)-subsets.  For maps from the plane the growth-index
    term vanishes and margin/T should sit above a small negative slack.
    """
    n = curve.ambient_dim
    for h in hyperplanes:
        if h.degree != 1:
            raise ValidationError("the hyperplane check needs degree-1 forms")
        if h.is_moving:
            raise ValidationError("moving hyperplanes are not supported here")
    W = wronskian(list(curve.components))
    if W.is_zero():
        raise DegenerateInputError(
            "curve is linearly degenerate (Wronskian vanishes identically)")
    composed = [_compose(curve, h, j) for j, h in enumerate(hyperplanes)]
    norms = [h.norm_at(0j) for h in hyperplanes]
    tuples = (_independent_tuples(hyperplanes, n + 1)
              if len(hyperplanes) >= n + 1 else [])

    div_w = _divisor_with_pad(W, grid.values[-1])
    N_W = counting(div_w, grid, math.inf)

    def integrand(z: np.ndarray) -> List[np.ndarray]:
        if not tuples:
            return [np.zeros(z.shape)]
        lf = curve.log_norm(z)
        terms = [lf + math.log(nm) - g.log_abs(z)
                 for nm, g in zip(norms, composed)]
        return [np.max([sum(terms[j] for j in K) for K in tuples], axis=0)]

    T = _characteristic_row(curve, grid.values, tol)
    (averages,) = circle_averages(integrand, grid.values, tol)
    return [(r, (n + 1) * t - (avg + N), t)
            for r, t, (avg, _), N in zip(grid.values, T, averages, N_W)]


@dataclass(frozen=True)
class NevanlinnaProfile:
    """Grid-sampled T; per hypersurface m, N, truncated N and the divisor."""

    grid: RadialGrid
    T: Tuple[float, ...]
    m: Tuple[Tuple[float, ...], ...]
    N_full: Tuple[Tuple[float, ...], ...]
    N_trunc: Tuple[Tuple[float, ...], ...]
    truncations: Tuple[Union[int, float], ...]
    divisors: Tuple[Divisor, ...]

    def __post_init__(self):
        if any(b - a < -1e-9 for a, b in zip(self.T, self.T[1:])):
            raise ValidationError("characteristic must be non-decreasing")
        for full, trunc in zip(self.N_full, self.N_trunc):
            for a, b in zip(full, trunc):
                if b < -1e-12 or a - b < -1e-9:
                    raise ValidationError(
                        "need N_full >= N_trunc >= 0 pointwise")

    def rows(self, degrees: Sequence[int]) -> List[List[float]]:
        """Plot-ready rows: r, T, then m, N_full, N_trunc, residual per Q."""
        residuals = [self._residuals(j, d) for j, d in enumerate(degrees)]
        out = []
        for i, r in enumerate(self.grid.values):
            row = [r, self.T[i]]
            for j, res in enumerate(residuals):
                row.extend([self.m[j][i], self.N_full[j][i],
                            self.N_trunc[j][i], res[i]])
            out.append(row)
        return out

    def _residuals(self, j: int, d: int) -> List[float]:
        """First-main-theorem residual d T - m - N of target j per radius."""
        return [d * T - m - N
                for T, m, N in zip(self.T, self.m[j], self.N_full[j])]


class GridSession:
    """One curve against one family on one grid: T, the composed Q_j(f),
    their divisors and the proximity rows, each computed on first use.

    T is one kernel call over every grid radius, and the m rows of all
    targets one more, which evaluates log ||f|| once per level for all of
    them.  A profile fails in this order: T (a radius outside the domain,
    then the kernel's first failure), then per target in order its
    divisor and its near-circle check, then the m kernel call.

    Values are stored as immutable tuples or frozen objects; a computation
    that raises stores nothing, so the next request raises again.  T and
    the proximity rows are kept per quadrature tolerance.
    """

    def __init__(self, curve: Curve, family: HypersurfaceFamily,
                 grid: RadialGrid):
        self.curve, self.family, self.grid = curve, family, grid
        self._memo: dict = {}

    def once(self, key, compute):
        """compute(), run on the first request for key and then kept."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def characteristic(self, tol: float) -> Tuple[float, ...]:
        """T on the grid, from one kernel call over every radius."""
        return self.once(("T", tol), lambda: tuple(_characteristic_row(
            self.curve, self.grid.values, tol)))

    def composed(self, j: int) -> AnalyticFunction:
        """Q_j(f), rejected when it vanishes identically."""
        return self.once(("Q(f)", j), lambda: _compose(
            self.curve, self.family[j], j))

    def divisor(self, j: int) -> Divisor:
        """Zeros of Q_j(f) a little beyond the grid's last radius."""
        return self.once(("divisor", j), lambda: _divisor_with_pad(
            self.composed(j), self.grid.values[-1]))

    def _proximity_rows(self, tol: float) -> Tuple[Tuple[float, ...], ...]:
        """m_f(r, Q_j) on the grid per target j, from one kernel call made
        once every target, in order, has its divisor and no zero near a
        grid circle."""
        def compute():
            targets = range(len(self.family))
            for j in targets:
                _refuse_zero_near(self.divisor(j), self.grid.values)
            fn = _proximity_integrand(self.curve, [
                (self.family[j], self.composed(j)) for j in targets])
            return tuple(tuple(avg for avg, _ in row) for row in
                         circle_averages(fn, self.grid.values, tol))
        return self.once(("m", tol), compute)

    def profile(self, truncations: Union[int, float,
                                         Sequence[Union[int, float]]],
                tol: float = 1e-8,
                strict_origin: bool = False) -> NevanlinnaProfile:
        """The profile of :func:`build_profile`, from the stored pieces."""
        family, grid = self.family, self.grid
        if isinstance(truncations, (int, float)):
            truncations = [truncations] * len(family)
        truncations = list(truncations)
        if len(truncations) != len(family):
            raise ValidationError("one truncation level per hypersurface")
        T = self.characteristic(tol)
        m_rows = self._proximity_rows(tol)
        full_rows, trunc_rows, divisors = [], [], []
        for j, k in enumerate(truncations):
            div = self.divisor(j)
            divisors.append(div)
            full_rows.append(tuple(counting(div, grid, math.inf,
                                            strict_origin)))
            trunc_rows.append(tuple(counting(div, grid, k, strict_origin)))
        return NevanlinnaProfile(grid, T, m_rows, tuple(full_rows),
                                 tuple(trunc_rows), tuple(truncations),
                                 tuple(divisors))


def build_profile(curve: Curve, family: HypersurfaceFamily, grid: RadialGrid,
                  truncations: Union[int, float, Sequence[Union[int, float]]],
                  tol: float = 1e-8,
                  strict_origin: bool = False) -> NevanlinnaProfile:
    return GridSession(curve, family, grid).profile(truncations, tol,
                                                    strict_origin)
