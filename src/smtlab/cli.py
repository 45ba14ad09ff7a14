"""Command line front end: scenario files in, CSV or JSON reports out.

Each subcommand loads one scenario, reads the quantities its report needs
from it, and writes a single report to --output (stdout when omitted).
The quantities are computed once per loaded scenario, so back-to-back
reports on one file in one process share them (see ``scenario``).  Exit code
0 means the run completed with nothing falsified, 2 flags a falsified
inequality or a broken defect relation, and 1 covers every error,
including bad usage.  Reports are deterministic: the same scenario and
seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import replace
from typing import Any, Dict, List, Tuple

from .errors import NAN_REPORT, CertificationError, SmtlabError
from .exact_algebra import WeightVector
from .nevanlinna import _fmt_residuals
from .scenario import Scenario, load_scenario
from .smt_verifier import (
    SMTConstants,
    _scenario_constants,
    defect_relation_report,
    verify_main_inequality,
)
from .weights import check_evertse_ferretti, chow_weight_estimate

# L is echoed verbatim only when any JSON consumer can hold it exactly;
# the magnitude always travels as log10_L
_JSON_L_BITS = 63

Report = Tuple[Dict[str, Any], List[List[Any]], int]


def _constants_to_dict(c: SMTConstants) -> Dict[str, Any]:
    out: Dict[str, Any] = {"variant": c.variant, "u": c.u}
    if c.L is not None and c.L.bit_length() <= _JSON_L_BITS:
        out["L"] = c.L
    out.update(log10_L=c.log10_L, n=c.n, deg_V=c.deg_V, d=c.d, q=c.q,
               delta_V=str(c.delta_V), epsilon=str(c.epsilon))
    if c.note:
        out["note"] = c.note
    return out


def _cmd_constants(scenario: Scenario, args: argparse.Namespace) -> Report:
    """Truncation constants for the scenario's variant, with the slower
    bound alongside for comparison."""
    primary, other = _scenario_constants(scenario)
    improvement = other.log10_L - primary.log10_L
    payload = {
        "constants": _constants_to_dict(primary),
        "theorem_b": _constants_to_dict(other),
        "log10_improvement": improvement,
    }
    rows: List[List[Any]] = [["field", "value"]]
    for prefix, c in (("", primary), ("theorem_b.", other)):
        for key, value in _constants_to_dict(c).items():
            rows.append([prefix + key, value])
    rows.append(["log10_improvement", improvement])
    return payload, rows, 0


def _cmd_distributive(scenario: Scenario, args: argparse.Namespace) -> Report:
    report = scenario.distributive()
    payload = {
        "value": str(report.value),
        "witness": list(report.witness),
        "value_kind": "exact" if report.exact else "upper bound",
        "table": [{"subset": list(subset), "dim": dim, "ratio": str(ratio)}
                  for subset, dim, ratio in report.table],
    }
    rows: List[List[Any]] = [["subset", "dim", "ratio"]]
    for subset, dim, ratio in report.table:
        rows.append([" ".join(str(i) for i in subset), dim, str(ratio)])
    return payload, rows, 0


def _cmd_weights(scenario: Scenario, args: argparse.Namespace) -> Report:
    """Weight ladder s_u and the exact Chow weight of the scenario's variety.

    The weight vector is the deterministic ladder (1, 2, ..., N+1); the
    randomized sweeps live in the test suite, not here.
    """
    X = scenario.variety
    c = WeightVector(range(1, X.num_vars + 1))
    estimate = chow_weight_estimate(X, c, u_max=args.max_u)
    u_last = estimate.sequence[-1][0]
    margin = check_evertse_ferretti(X, u_last, c, estimate)
    k, delta = X.dim_degree()
    payload = {
        "dim": k,
        "degree": delta,
        "weights": [str(w) for w in c],
        "estimate": float(estimate.value),
        "chow_weight": str(estimate.value),
        "ef_margin": margin,
        "sequence": [[u, s] for u, s in estimate.sequence],
    }
    rows: List[List[Any]] = [["u", "s_u"]]
    rows.extend([u, s] for u, s in estimate.sequence)
    return payload, rows, 0


def _cmd_nevanlinna(scenario: Scenario, args: argparse.Namespace) -> Report:
    """Grid profile of T with per-hypersurface m, N, truncated N, and the
    residual d T - m - N; truncation level comes from the scenario and
    defaults to 1."""
    trunc = scenario.truncation if scenario.truncation is not None else 1
    profile = scenario.session.profile(trunc, tol=args.quad_tol,
                                       strict_origin=args.strict_jensen)
    data = profile.rows(scenario.family.degrees)
    header = ["r", "T"]
    for j in range(len(scenario.family)):
        header.extend([f"m_{j}", f"N_{j}", f"N_trunc_{j}", f"residual_{j}"])
    payload = {
        "truncations": list(profile.truncations),
        "columns": header,
        "rows": data,
    }
    return payload, [header] + data, 0


def _cmd_fmt_check(scenario: Scenario, args: argparse.Namespace) -> Report:
    """Residuals d T - m - N per hypersurface, read off the grid profile
    (T once per radius, each divisor once)."""
    profile = scenario.session.profile(math.inf, tol=args.quad_tol)
    columns, spreads = zip(*_fmt_residuals(profile, scenario.family.degrees))
    residual_rows: List[List[Any]] = [
        [r, *row] for r, row in zip(scenario.grid.values, zip(*columns))]
    header = ["r"] + [f"residual_{j}" for j in range(len(scenario.family))]
    payload = {"spreads": spreads, "columns": header, "rows": residual_rows}
    return payload, [header] + residual_rows, 0


def _cmd_verify(scenario: Scenario, args: argparse.Namespace) -> Report:
    report = verify_main_inequality(scenario, quad_tol=args.quad_tol,
                                    strict_origin=args.strict_jensen)
    payload = {
        "constants": _constants_to_dict(report.constants),
        "columns": ["r", "lhs", "rhs", "margin"],
        "rows": [list(row) for row in report.rows],
        "rhs_terms": [list(t) for t in report.rhs_terms],
        "defects": [{"index": j, "value": v} for j, v in report.defects],
        "comparison": report.comparison,
        "flags": list(report.flags),
        "falsified": report.falsified,
    }
    rows: List[List[Any]] = [["r", "lhs", "rhs", "margin"]]
    rows.extend(list(row) for row in report.rows)
    return payload, rows, 2 if report.falsified else 0


def _cmd_defects(scenario: Scenario, args: argparse.Namespace) -> Report:
    report = defect_relation_report(scenario, quad_tol=args.quad_tol)
    payload = {
        "constants": _constants_to_dict(report.constants),
        "u_bound": report.u_bound,
        "defects": [{"index": j, "value": v} for j, v in report.defects],
        "total": report.total,
        "bound": report.bound,
        "holds": report.holds,
        "flags": list(report.flags),
    }
    rows: List[List[Any]] = [["index", "defect"]]
    rows.extend([j, v] for j, v in report.defects)
    rows.append(["total", report.total])
    rows.append(["bound", report.bound])
    return payload, rows, 0 if report.holds else 2


def _tolerance(text: str) -> float:
    """A --quad-tol value: a positive finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:   # also refuses nan
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {text!r}")
    return value


# the flags beyond --scenario, --output, --format and --seed
_OPTIONS = {
    "--quad-tol": dict(type=_tolerance, default=1e-8,
                       help="circle quadrature tolerance"),
    "--max-u": dict(type=int, default=40, help="top of the weight ladder"),
    "--strict-jensen": dict(action="store_true",
                            help="count origin zeros instead of dropping them"),
}

# subcommand: (handler, the options it reads, help)
_COMMANDS = {
    "constants": (_cmd_constants, [],
                  "truncation constants for the scenario's theorem variant"),
    "distributive": (_cmd_distributive, [],
                     "distributive constant with its witness subset"),
    "weights": (_cmd_weights, ["--max-u"],
                "Hilbert weight ladder and exact Chow weight"),
    "nevanlinna": (_cmd_nevanlinna, ["--quad-tol", "--strict-jensen"],
                   "characteristic, proximity, and counting profile"),
    "fmt-check": (_cmd_fmt_check, ["--quad-tol"],
                  "first-main-theorem residuals per hypersurface"),
    "verify": (_cmd_verify, ["--quad-tol", "--strict-jensen"],
               "evaluate the main inequality over the radial grid"),
    "defects": (_cmd_defects, ["--quad-tol"],
                "truncated defect totals against the explicit bound"),
}


def _scrub(x: Any) -> Any:
    """Strict-JSON form: infinities become the string "inf", matching the
    scenario grammar; a NaN fails the report in either format."""
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    if isinstance(x, float) and math.isnan(x):
        raise CertificationError(NAN_REPORT)
    if isinstance(x, (list, tuple)):
        return [_scrub(v) for v in x]
    if isinstance(x, dict):
        return {k: _scrub(v) for k, v in x.items()}
    return x


def _emit(payload: Dict[str, Any], rows: List[List[Any]],
          args: argparse.Namespace) -> None:
    payload = _scrub(payload)
    if args.format == "json":
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        text = buf.getvalue()
    if args.output is None:
        sys.stdout.write(text)
        return
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by later calls
    (parse_args keeps no state between calls)."""
    parser = argparse.ArgumentParser(
        prog="smtlab",
        description="scenario-driven reports for holomorphic-curve "
                    "value distribution on discs")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    for name, (_, options, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True,
                       help="path to a scenario JSON file")
        p.add_argument("--output", default=None,
                       help="write the report here instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario's seed")
        for flag in options:
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


def main(argv: List[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; 2 is reserved for falsification
        return 0 if exc.code in (0, None) else 1
    try:
        scenario = load_scenario(args.scenario)
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)
        payload, rows, code = _COMMANDS[args.command][0](scenario, args)
        _emit(payload, rows, args)
    except (SmtlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
