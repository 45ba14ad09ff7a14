"""Nevanlinna functionals on discs: T, m, N, residuals, defects, margins.

The characteristic uses the circle-average (Cartan) form; it differs from
the area-integral definition by a bounded term that cancels in every ratio,
defect, and margin computed here.  Counting functions follow the stated
integral N(r) = int_{r0}^r (n(t) - n(0)) dt/t exactly: zeros at the origin
contribute nothing.  A strict-Jensen switch restores the classical
n(0) log(r/r0) term for users who want it; shipped scenarios avoid origin
zeros so the two agree there.

Circle averages stop at _QUAD_NODES = 2^16 nodes.  Divisors are taken on
a radius padded past the grid's last circle (three pads are tried), and
m_f(r, Q) refuses a circle within 1e-9 of a zero of Q(f) before any node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ._lazy import np
from .analytic import AnalyticFunction, Curve, Divisor, wronskian, zeros_in_disc
from .errors import (
    CertificationError,
    DegenerateInputError,
    ValidationError,
)
from .hypersurfaces import HypersurfaceFamily, MovingHypersurface
from .exact_algebra import monomials_of_degree, rank_of_vectors
from .scalars import GaussianRational

_ORIGIN_TOL = 1e-12
_QUAD_NODES = 2 ** 16   # node cap of every circle average


@dataclass(frozen=True)
class RadialGrid:
    """Radii r0 < r_1 < ... < r_max < R used by every grid-valued report."""

    r0: float
    values: Tuple[float, ...]
    R: float = math.inf

    def __post_init__(self):
        if self.r0 <= 0:
            raise ValidationError("r0 must be positive")
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValidationError("grid needs at least one radius")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValidationError("grid radii must be strictly increasing")
        if vals[0] <= self.r0:
            raise ValidationError("grid must start above r0")
        if vals[-1] >= self.R:
            raise ValidationError("grid must stay inside the domain radius")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def geometric(r_min: float = 2.0, r_max: float = 1e3, points: int = 40,
                  r0: float = 1.0) -> "RadialGrid":
        ratio = (r_max / r_min) ** (1.0 / (points - 1)) if points > 1 else 1.0
        vals = [r_min * ratio ** j for j in range(points)]
        vals[-1] = r_max
        return RadialGrid(r0, tuple(vals), math.inf)

    @staticmethod
    def finite(R: float, points: int = 20,
               r0: Optional[float] = None) -> "RadialGrid":
        """Circles at R(1 - 2^-j), j = 1..points.  These round to R from
        j = 54 at R = 2 on, so a longer grid is refused."""
        vals = tuple(R * (1 - 2.0 ** (-j)) for j in range(1, points + 1))
        fits = next((j for j, v in enumerate(vals)
                     if v >= R or (j and v <= vals[j - 1])), points)
        if fits < points:
            raise ValidationError(
                f"a finite grid of {points} points does not fit below R = "
                f"{R}: at most {fits} circles R(1 - 2^-j) stay distinct")
        return RadialGrid(R / 4 if r0 is None else r0, vals, R)

    def top_decile(self) -> Tuple[int, ...]:
        """Indices of the last tenth of the grid (at least one point)."""
        count = max(1, len(self.values) // 10)
        return tuple(range(len(self.values) - count, len(self.values)))


def circle_average(fn: Callable[[np.ndarray], np.ndarray], r: float,
                   tol: float = 1e-8) -> Tuple[float, int]:
    """Trapezoid average of fn over |z| = r, doubling nodes until stable.

    fn is an array integrand: it takes a 1-D complex array of nodes on the
    circle and returns one real value per node.  Each doubling level is one
    call, on the nodes that level adds.  The stop, two successive levels
    within tol, is a numerical convergence check, not a certificate: the
    trapezoid error itself is not bounded.  Periodic analytic integrands
    converge spectrally; integrands with corners (maxima of smooth
    families) still converge, just slower.  Returns (average, nodes used);
    raises CertificationError at the node cap _QUAD_NODES, or at once on a
    level whose sum is not finite (a float overflow in fn).
    """
    def level_sum(steps: np.ndarray, count: int) -> float:
        z = r * np.exp(2j * math.pi * steps / count)
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.asarray(fn(z), dtype=float)
            if values.shape != z.shape:
                raise ValueError("circle_average integrands return one "
                                 "value per node")
            total = float(np.sum(values))
        if not math.isfinite(total):
            raise CertificationError(
                f"circle average on |z| = {r} is not finite (a float "
                "computation overflowed)")
        return total

    nodes = 64
    total = level_sum(np.arange(nodes), nodes)
    prev = total / nodes
    while nodes < _QUAD_NODES:
        total += level_sum(2 * np.arange(nodes) + 1, 2 * nodes)
        nodes *= 2
        cur = total / nodes
        if abs(cur - prev) <= tol:
            return cur, nodes
        prev = cur
    raise CertificationError(
        f"circle average on |z| = {r} did not reach tolerance {tol} "
        f"within {_QUAD_NODES} nodes")


def characteristic(curve: Curve, r: float, tol: float = 1e-8) -> float:
    """T_f(r): circle average of log ||f|| minus its value at the origin."""
    if not 0 < r < curve.domain_radius:
        raise ValidationError(
            f"radius {r} outside the curve domain (R = {curve.domain_radius})")
    avg, _ = circle_average(curve.log_norm, r, tol)
    return avg - curve.log_norm(0j)


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
    if divisor is not None and any(
            abs(abs(z) - r) < 1e-9 for z, _ in divisor.points):
        raise CertificationError(
            f"zero of Q(f) within 1e-9 of the circle |z| = {r}")
    d = Q.degree

    def integrand(z: np.ndarray) -> np.ndarray:
        return d * curve.log_norm(z) + np.log(Q.norm_at(z)) - g.log_abs(z)

    avg, _ = circle_average(integrand, r, tol)
    return avg


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
           divisor: Optional[Divisor] = None,
           strict_origin: bool = False) -> DefectEstimate:
    """Truncated defect 1 - max of N^[k]/(d T) over the grid's top decile.

    A grid cannot realize a limsup; the last three raw ratios ride along
    so non-convergence stays visible.
    """
    if divisor is None:
        divisor = _divisor_with_pad(_compose(curve, Q), grid.values[-1])
    N = counting(divisor, grid, k, strict_origin)
    T = [characteristic(curve, r, tol) for r in grid.values]
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

    def integrand(z: np.ndarray) -> np.ndarray:
        if not tuples:
            return np.zeros(z.shape)
        lf = curve.log_norm(z)
        terms = [lf + math.log(nm) - g.log_abs(z)
                 for nm, g in zip(norms, composed)]
        return np.max([sum(terms[j] for j in K) for K in tuples], axis=0)

    rows = []
    for i, r in enumerate(grid.values):
        T = characteristic(curve, r, tol)
        avg, _ = circle_average(integrand, r, tol)
        margin = (n + 1) * T - (avg + N_W[i])
        rows.append((r, margin, T))
    return rows


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
    their divisors and the proximity rows, each computed on first use;
    through ``once``, whatever else a scenario computes once.

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
        """T on the grid."""
        return self.once(("T", tol), lambda: tuple(
            characteristic(self.curve, r, tol) for r in self.grid.values))

    def composed(self, j: int) -> AnalyticFunction:
        """Q_j(f), rejected when it vanishes identically."""
        return self.once(("Q(f)", j), lambda: _compose(
            self.curve, self.family[j], j))

    def divisor(self, j: int) -> Divisor:
        """Zeros of Q_j(f) a little beyond the grid's last radius."""
        return self.once(("divisor", j), lambda: _divisor_with_pad(
            self.composed(j), self.grid.values[-1]))

    def proximity(self, j: int, tol: float) -> Tuple[float, ...]:
        """m_f(r, Q_j) on the grid."""
        def row():
            div, g = self.divisor(j), self.composed(j)
            return tuple(proximity(self.curve, self.family[j], r, tol,
                                   divisor=div, composed=g)
                         for r in self.grid.values)
        return self.once(("m", j, tol), row)

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
        m_rows, full_rows, trunc_rows, divisors = [], [], [], []
        for j, k in enumerate(truncations):
            div = self.divisor(j)
            divisors.append(div)
            m_rows.append(self.proximity(j, tol))
            full_rows.append(tuple(counting(div, grid, math.inf,
                                            strict_origin)))
            trunc_rows.append(tuple(counting(div, grid, k, strict_origin)))
        return NevanlinnaProfile(grid, T, tuple(m_rows), tuple(full_rows),
                                 tuple(trunc_rows), tuple(truncations),
                                 tuple(divisors))


def build_profile(curve: Curve, family: HypersurfaceFamily, grid: RadialGrid,
                  truncations: Union[int, float, Sequence[Union[int, float]]],
                  tol: float = 1e-8,
                  strict_origin: bool = False) -> NevanlinnaProfile:
    return GridSession(curve, family, grid).profile(truncations, tol,
                                                    strict_origin)
