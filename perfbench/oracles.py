"""Output oracles: each report is checked against paper quantities.

The checks read the JSON report, never its bytes, so a report that
changes shape but keeps its quantities still passes. Every expected value
comes from a closed form or an invariant. Quantities with neither are
not checked: the rows and margins of ``verify``, the defect total beyond
``total <= bound``, the m_j values, and the constants that ``verify``
and ``defects`` give for moving targets or on the disc. There are no
recorded reference outputs for them: the inputs are generated from the
seed, so no fixed table covers them.

Closed forms (the generator in ``workloads.py`` guarantees their
hypotheses exactly):

* dim and degree by Bezout: a plane curve of degree d is (1, d), a
  (2,3) complete intersection in P^3 is (1, 6), the degree-n rational
  normal curve is (1, n), seven collinear points are (0, 7).
* Chow weight for the CLI's ladder c = (1, ..., N+1): n(n+2) on the
  rational normal curve (the seed commit reproduces 8, 15 and 24
  exactly), and delta * (sum of the k+1 largest weights) on a variety of
  dimension k and degree delta that misses {x_{N-k} = ... = x_N = 0}.
  The report's own ``error_bound`` is the tolerance: the program claims
  the estimate lies within it.
* Evertse-Ferretti: the margin never falls below
  -error_bound / ((k+1) delta), the report's own falsification line.
* Distributive constant: Delta = 1 for a family in general position, and
  every scanned subset of size s has dimension n - s, or -1 past n.
* Truncation constants: u, log10 L and the factorial-growth log10 L by the
  paper's formulas, to 1e-6 in log10 (the program certifies 1e-6).
* First main theorem: d T - m - N plus the circle average of log ||Q|| is
  constant in r (Jensen), to FLAT_TOL.
* A polynomial Q(f) has deg Q(f) zeros: past its Cauchy radius the
  counting function grows by exactly deg Q(f) log(r'/r).

Invariants: ``verify`` is not falsified and ``defects`` holds.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from typing import List, Optional, Sequence

# Quadrature tolerance the reports run with (the CLI default) and the
# flatness tolerance of first-main-theorem residuals: 100 times it.
QUAD_TOL = 1e-8
FLAT_TOL = 100 * QUAD_TOL
LOG10_TOL = 1e-6


class OracleError(Exception):
    """A report disagrees with the quantity it must reproduce."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise OracleError(what)


def _payload(code, stdout: str) -> dict:
    _require(code == 0, f"exit code {code}, expected 0")
    try:
        return json.loads(stdout)
    except ValueError:
        raise OracleError("report is not JSON")


# -- algebra ----------------------------------------------------------------


def _check_weights(expect: dict, rep: dict) -> None:
    _require((rep.get("dim"), rep.get("degree"))
             == (expect["dim"], expect["degree"]),
             f"(dim, degree) = ({rep.get('dim')}, {rep.get('degree')}), "
             f"Bezout gives ({expect['dim']}, {expect['degree']})")
    chow = float(Fraction(expect["chow"]))
    estimate = float(rep["estimate"])
    bound = float(rep.get("error_bound", 0.0))
    _require(abs(estimate - chow) <= bound + 1e-9 * abs(chow),
             f"Chow weight {estimate} is {abs(estimate - chow):.3g} from "
             f"{chow}, beyond the reported error bound {bound:.3g}")
    k, delta = expect["dim"], expect["degree"]
    floor = -bound / ((k + 1) * delta) - 1e-9
    _require(float(rep["ef_margin"]) >= floor,
             f"Evertse-Ferretti margin {rep['ef_margin']} below {floor}")


def _check_table(expect: dict, rep: dict) -> None:
    _require(Fraction(rep["value"]) == 1,
             f"Delta = {rep['value']}, general position gives 1")
    n = expect["dim"]
    table = rep["table"]
    _require(bool(table), "distributive report has an empty subset table")
    for entry in table:
        s = len(entry["subset"])
        want = n - s if s <= n else -1
        _require(entry["dim"] == want,
                 f"subset {entry['subset']} has dim {entry['dim']}, "
                 f"general position gives {want}")


def _log10_frac(x: Fraction) -> float:
    return math.log10(x.numerator) - math.log10(x.denominator)


def expected_constants(n: int, deg_v: int, d: int, q: int, delta: Fraction,
                       eps: Fraction) -> dict:
    """The paper's plane-domain constants for fixed targets."""
    u = math.ceil(2 * delta * (2 * n + 1) * (n + 1) * d ** n * deg_v
                  * (delta * (n + 1) + eps) / eps)
    fixed = (Fraction(d) ** (n * n + n) * Fraction(deg_v) ** (n + 1)
             * Fraction(2 * n + 5) ** n
             * (delta ** 2 * (n + 1) / eps + delta) ** n)
    older = (Fraction(d) ** (n * n + n) * Fraction(deg_v) ** (n + 1)
             * delta ** n * Fraction(2 * n + 4) ** n * Fraction(n + 1) ** n
             * Fraction(math.factorial(q)) ** n / eps ** n)
    out = {"u": u}
    for key, rational in (("log10_L", fixed), ("log10_L_b", older)):
        lg = _log10_frac(rational) + n * math.log10(math.e)
        if lg <= 15:        # L = floor(rational * e^n); the floor matters
            lg = math.log10(math.floor(float(rational) * math.exp(n)))
        out[key] = lg
    return out


def _check_constants(expect: dict, rep: dict) -> None:
    c = rep["constants"]
    got = (c["n"], c["deg_V"], c["d"], c["q"], Fraction(c["delta_V"]))
    want = (expect["dim"], expect["degree"], expect["d"], expect["q"],
            Fraction(expect["delta"]))
    _require(got == want, f"(n, deg V, d, q, Delta) = {got}, expected {want}")
    ref = expected_constants(*want, Fraction(c["epsilon"]))
    _require(c["u"] == ref["u"], f"u = {c['u']}, closed form {ref['u']}")
    _require(abs(c["log10_L"] - ref["log10_L"]) <= LOG10_TOL,
             f"log10 L = {c['log10_L']}, closed form {ref['log10_L']}")
    b = rep["theorem_b"]["log10_L"]
    _require(abs(b - ref["log10_L_b"]) <= LOG10_TOL,
             f"factorial-growth log10 L = {b}, closed form "
             f"{ref['log10_L_b']}")


# -- analytic ----------------------------------------------------------------


def _target_norm_average(target: Sequence[Sequence[Sequence[float]]],
                         r: float) -> float:
    """Circle average of log ||Q(z)|| for polynomial coefficient functions,
    by trapezoid sums doubled until two agree to 1e-13."""
    coeffs = [[complex(re, im) for re, im in cs] for cs in target]

    def f(z: complex) -> float:
        s = 0.0
        for cs in coeffs:
            v = 0j
            for c in reversed(cs):
                v = v * z + c
            s += abs(v) ** 2
        return 0.5 * math.log(s)

    nodes = 64
    total = sum(f(r * cmath.exp(2j * math.pi * m / nodes))
                for m in range(nodes))
    prev = total / nodes
    while nodes < 2 ** 16:
        total += sum(f(r * cmath.exp(2j * math.pi * (2 * m + 1)
                                     / (2 * nodes)))
                     for m in range(nodes))
        nodes *= 2
        cur = total / nodes
        if abs(cur - prev) <= 1e-13:
            return cur
        prev = cur
    return cur


def _flat(values: List[float], what: str) -> None:
    spread = max(values) - min(values)
    _require(spread <= FLAT_TOL,
             f"{what} varies by {spread:.3g} over the grid "
             f"(first main theorem allows {FLAT_TOL:g})")


def _corrections(expect: dict, radii: Sequence[float]) -> List[List[float]]:
    out = []
    for target in expect["targets"]:
        if all(len(cs) == 1 for cs in target):
            out.append([0.0] * len(radii))
        else:
            out.append([_target_norm_average(target, r) for r in radii])
    return out


def _check_nevanlinna(expect: dict, rep: dict) -> None:
    cols = rep["columns"]
    rows = rep["rows"]
    radii = [row[0] for row in rows]
    T = [row[cols.index("T")] for row in rows]
    _require(all(b - a >= -1e-9 for a, b in zip(T, T[1:])) and T[0] > 0,
             "T is not positive and non-decreasing")
    corr = _corrections(expect, radii)
    for j, shift in enumerate(corr):
        N = [row[cols.index(f"N_{j}")] for row in rows]
        Nt = [row[cols.index(f"N_trunc_{j}")] for row in rows]
        _require(all(0 <= b <= a + 1e-9 for a, b in zip(N, Nt)),
                 f"need 0 <= N_trunc <= N for target {j}")
        res = [row[cols.index(f"residual_{j}")] for row in rows]
        _flat([a + b for a, b in zip(res, shift)],
              f"first-main-theorem residual of target {j}")
        if "zero_counts" in expect:
            past = [i for i, r in enumerate(radii)
                    if r > expect["cauchy_radius"]]
            D = expect["zero_counts"][j]
            for a, b in zip(past, past[1:]):
                want = D * math.log(radii[b] / radii[a])
                _require(abs(N[b] - N[a] - want) <= 1e-9 * max(1.0, want),
                         f"target {j}: counting function grew by "
                         f"{N[b] - N[a]}, deg Q(f) = {D} gives {want}")


def _check_fmt(expect: dict, rep: dict) -> None:
    rows = rep["rows"]
    radii = [row[0] for row in rows]
    corr = _corrections(expect, radii)
    for j, shift in enumerate(corr):
        _flat([row[1 + j] + s for row, s in zip(rows, shift)],
              f"fmt-check residual of target {j}")


def _check_dims(expect: dict, rep: dict) -> None:
    c = rep["constants"]
    _require((c["n"], c["deg_V"]) == (expect["dim"], expect["degree"]),
             f"(n, deg V) = ({c['n']}, {c['deg_V']}), Bezout gives "
             f"({expect['dim']}, {expect['degree']})")


def _check_verify(expect: dict, rep: dict) -> None:
    _require(rep["falsified"] is False, "verify reports a falsification")
    _check_dims(expect, rep)


def _check_defects(expect: dict, rep: dict) -> None:
    _require(rep["holds"] is True, "defect relation reported broken")
    _require(rep["total"] <= rep["bound"] + 1e-6,
             f"defect total {rep['total']} above bound {rep['bound']}")
    _check_dims(expect, rep)


_CHECKS = {
    "weights": _check_weights,
    "distributive": _check_table,
    "constants": _check_constants,
    "nevanlinna": _check_nevanlinna,
    "fmt-check": _check_fmt,
    "verify": _check_verify,
    "defects": _check_defects,
}


def check(command: str, expect: dict, code, stdout: str) -> Optional[str]:
    """None when the report reproduces its expected quantities, else why
    not. ``code`` is the exit code, or the exception that escaped."""
    if isinstance(code, BaseException):
        return f"{type(code).__name__} escaped cli.main: {code}"
    try:
        _CHECKS[command](expect, _payload(code, stdout))
    except OracleError as err:
        return str(err)
    except (KeyError, IndexError, TypeError, ValueError) as err:
        return f"report lacks an expected quantity: {err!r}"
    return None
