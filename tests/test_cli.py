"""Dispatch, emission, and exit-code behavior of the command line tool."""

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from smtlab import cli, nevanlinna, position_geometry, smt_verifier
from smtlab import scenario as scenario_mod
from smtlab.functions import Curve
from smtlab.errors import NAN_REPORT, CertificationError
from smtlab.position_geometry import DistributiveReport
from smtlab.scenario import load_scenario
from smtlab.smt_verifier import SMTConstants, SMTReport

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
THREE_POINTS = str(SCENARIOS / "line_three_points.json")
CONIC = str(SCENARIOS / "conic_four_lines.json")
DISC = str(SCENARIOS / "disc_model_growth.json")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constants_json_fields(capsys):
    code, out, _ = run(capsys, "constants", "--scenario", THREE_POINTS)
    assert code == 0
    data = json.loads(out)
    c = data["constants"]
    assert c["variant"] == "Plane"
    assert c["u"] == 60 and c["L"] == 95
    assert abs(c["log10_L"] - math.log10(95)) < 1e-6
    assert c["epsilon"] == "1/2" and c["delta_V"] == "1"
    assert data["theorem_b"]["L"] == 391
    assert data["log10_improvement"] > 0


def test_constants_csv_rows(capsys):
    code, out, _ = run(capsys, "constants", "--scenario", THREE_POINTS,
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["field", "value"]
    table = {r[0]: r[1] for r in rows[1:]}
    assert table["u"] == "60" and table["L"] == "95"
    assert table["theorem_b.L"] == "391"


def test_verify_csv_columns(capsys):
    code, out, _ = run(capsys, "verify", "--scenario", THREE_POINTS,
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["r", "lhs", "rhs", "margin"]
    assert len(rows) == 41  # header + one row per grid radius
    for r in rows[1:]:
        lhs, rhs, margin = float(r[1]), float(r[2]), float(r[3])
        assert margin == pytest.approx(rhs - lhs, abs=1e-12)
        assert margin > 0


def test_verify_json_roundtrip(capsys):
    code, out, _ = run(capsys, "verify", "--scenario", CONIC)
    assert code == 0
    data = json.loads(out)
    assert data["falsified"] is False
    assert data["constants"]["L"] == 228
    assert len(data["rows"]) == len(data["rhs_terms"]) == 40
    assert {d["index"] for d in data["defects"]} == {0, 1, 2, 3}
    assert any("saturated" in f for f in data["flags"])


def test_defects_exit_and_payload(capsys):
    code, out, _ = run(capsys, "defects", "--scenario", THREE_POINTS)
    assert code == 0
    data = json.loads(out)
    assert data["holds"] is True
    assert data["bound"] == pytest.approx(2.5)
    assert data["total"] == pytest.approx(1.0, abs=0.05)
    assert data["u_bound"] == 60


def test_defects_and_constants_agree_on_variant(capsys):
    # Both reports pick the theorem variant the scenario falls under: a
    # plane map gets the Plane constants, not the disc's FixedB ones.
    _, out, _ = run(capsys, "defects", "--scenario", THREE_POINTS)
    defects = json.loads(out)["constants"]
    _, out, _ = run(capsys, "constants", "--scenario", THREE_POINTS)
    constants = json.loads(out)["constants"]
    for key in ("variant", "u", "L"):
        assert defects[key] == constants[key]
    assert defects["variant"] == "Plane"


def test_nevanlinna_csv_shape(capsys):
    code, out, _ = run(capsys, "nevanlinna", "--scenario", DISC,
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    # r, T, then four columns per hypersurface
    assert rows[0][:2] == ["r", "T"]
    assert len(rows[0]) == 2 + 4 * 3
    assert len(rows) == 13


def test_fmt_check_spreads_small(capsys):
    code, out, _ = run(capsys, "fmt-check", "--scenario", THREE_POINTS)
    assert code == 0
    data = json.loads(out)
    assert len(data["spreads"]) == 3
    assert all(s <= 1e-6 for s in data["spreads"])


def test_weights_sequence(capsys):
    code, out, _ = run(capsys, "weights", "--scenario", CONIC,
                       "--max-u", "12")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 1 and data["degree"] == 2
    assert data["weights"] == ["1", "2", "3"]
    assert data["sequence"][-1][0] == 12
    assert data["chow_weight"] == "8"
    assert data["ef_margin"] >= 0


def test_weights_report_on_x0_power(tmp_path, capsys):
    # x0^10 in P^2 is a line of degree 10: its Chow weight for the ladder
    # (1, 2, 3) is 10 (2 + 3), the degree times the two largest weights
    data = json.loads(Path(CONIC).read_text())
    data["variety_generators"] = ["x0^10"]
    path = tmp_path / "x0_power.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "weights", "--scenario", str(path))
    assert code == 0 and err == ""
    data = json.loads(out)
    assert (data["dim"], data["degree"]) == (1, 10)
    assert data["chow_weight"] == "50"


def test_degree_1000_variety_exits_one_without_a_traceback(tmp_path,
                                                           capsys):
    # the Hilbert numerator splits a degree-1000 generator 1000 times,
    # on a stack of its own rather than Python's
    data = json.loads(Path(CONIC).read_text())
    data["variety_generators"] = ["x0^1000 - x1^1000"]
    path = tmp_path / "degree_1000.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = run(capsys, "weights", "--scenario", str(path),
                         "--max-u", "8")
    assert (code, out, err) == (1, "", "error: need u > degree = 1000\n")
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("field, fields", [
    ("epsilon", {"epsilon": "1/0"}),
    ("growth_model.lambda", {"growth_model": {"lambda": "1/0"}}),
    ("hypersurfaces[1]",
     {"hypersurfaces": [{"degree": 1, "coefficients": {"x0": "1"}},
                        {"degree": 1, "coefficients": {"x1": "1",
                                                       "x0": "1/0"}}]}),
    ("curve.components[1]",
     {"curve": {"components": ["poly: 1", "poly: 1/0*z"],
                "domain_R": "inf"}}),
    ("variety_generators[0]", {"variety_generators": ["1/0*x0 - x1"]}),
])
def test_zero_denominator_names_the_literal(tmp_path, capsys, field, fields):
    path = _scenario_file(tmp_path, **fields)
    code, out, err = run(capsys, "weights", "--scenario", path)
    assert (code, out) == (1, "")
    assert err == (f"error: scenario field {field!r}: zero denominator in "
                   "'1/0'\n")


def test_weights_large_max_u(capsys):
    # the ladder and the weight check read the closed form, never a basis
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "weights", "--scenario", CONIC,
                       "--max-u", "100000")
    elapsed = time.perf_counter() - t0
    assert code == 0 and elapsed < 5
    data = json.loads(out)
    assert data["sequence"][-1][0] == 100000
    code, out, _ = run(capsys, "weights", "--scenario", CONIC,
                       "--max-u", "12")
    assert data["chow_weight"] == json.loads(out)["chow_weight"]


def test_distributive_table(capsys):
    code, out, _ = run(capsys, "distributive", "--scenario", CONIC)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "1"
    assert data["members"] == 4
    # the conic meets each line, and no two lines on it: only the four
    # single lines are listed
    assert [t["subset"] for t in data["table"]] == [[0], [1], [2], [3]]


def test_distributive_json_pinned(capsys):
    # the conic meets each line in two points and no two lines on it;
    # the empty pairs and their supersets are not listed
    table = [([j], 0, "1") for j in range(4)]
    payload = {"value": "1", "witness": [0], "value_kind": "exact",
               "members": 4,
               "table": [{"subset": s, "dim": d, "ratio": r}
                         for s, d, r in table]}
    code, out, _ = run(capsys, "distributive", "--scenario", CONIC)
    assert code == 0
    assert out == json.dumps(payload, indent=2) + "\n"


def _line(moving=False, **coefficients):
    return {"degree": 1, "moving": moving, "coefficients": coefficients}


@pytest.mark.parametrize("fields, value, kind", [
    # three points of P^1, one moving: no two meet at any z
    ({"hypersurfaces": [_line(x0="1"), _line(True, x1="1", x0="poly: -1 - z"),
                        _line(x1="1", x0="1")]}, "1", "exact"),
    # three lines of P^2 through (1 : z : z^2), and a fixed line: the
    # three meet in a point, above their lower bound -1, so the scan
    # bounds the generic constant without proving it
    ({"ambient_N": 2,
      "curve": {"components": ["poly: 1", "poly: z", "poly: z^2"],
                "domain_R": "inf"},
      "hypersurfaces": [_line(True, x0="poly: z", x1="-1"),
                        _line(True, x0="poly: z^2", x2="-1"),
                        _line(True, x1="poly: z", x2="-1"),
                        _line(x0="1", x1="1", x2="1")]}, "3/2", "upper bound"),
])
def test_moving_family_value_kind(tmp_path, capsys, fields, value, kind):
    path = _scenario_file(tmp_path, **fields)
    code, out, _ = run(capsys, "distributive", "--scenario", path)
    assert code == 0
    data = json.loads(out)
    assert (data["value"], data["value_kind"]) == (value, kind)
    code, out, _ = run(capsys, "constants", "--scenario", path)
    assert code == 0 and json.loads(out)["constants"]["delta_V"] == value


def test_exponential_moving_coefficient_named_where_specialized(
        tmp_path, capsys):
    # reports that specialize the family at an exact point refuse the
    # member by name; the analytic reports still run on a short grid
    path = _scenario_file(
        tmp_path, grid={"kind": "geometric", "r_min": 2.0, "r_max": 5.0,
                        "points": 40},
        hypersurfaces=[_line(x0="1"), _line(x1="1", x0="-1"),
                       _line(True, x1="1", x0="exppoly: (1)*exp(z)")])
    for command in ("distributive", "constants", "verify"):
        code, out, err = run(capsys, command, "--scenario", path)
        assert_one_error_line(code, out, err)
        assert "family member 2 has an exponential coefficient" in err
        assert "must be polynomial or rational" in err
    for command in ("nevanlinna", "fmt-check"):
        code, _, err = run(capsys, command, "--scenario", path)
        assert code == 0 and err == ""


def test_output_file_and_determinism(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli.main(["verify", "--scenario", THREE_POINTS,
                     "--output", str(a)]) == 0
    assert cli.main(["verify", "--scenario", THREE_POINTS,
                     "--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    json.loads(a.read_text())


def test_seed_override_changes_nothing_fixed(capsys):
    # fixed families ignore the seed, so the report is seed-independent
    code1, out1, _ = run(capsys, "distributive", "--scenario", CONIC,
                         "--seed", "7")
    code2, out2, _ = run(capsys, "distributive", "--scenario", CONIC,
                         "--seed", "8")
    assert code1 == code2 == 0
    assert out1 == out2


def test_seed_override_reports_as_the_seed_field(tmp_path, capsys):
    # --seed gives the bytes of the same file with that seed written in:
    # the moving family's specialization point is drawn from it, and the
    # replaced scenario builds its own variety from the shared ideal
    fields = {"ambient_N": 2,
              "curve": {"components": ["poly: 1", "poly: z", "poly: z^2"],
                        "domain_R": "inf"},
              "variety_generators": ["x0*x2 - x1^2"],
              "hypersurfaces": [_line(True, x0="poly: z", x2="-1"),
                                _line(True, x0="1", x1="poly: z"),
                                _line(x0="1", x1="1", x2="1"),
                                _line(x0="1", x1="2", x2="3")]}
    path = _scenario_file(tmp_path, **fields)
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps(dict(json.loads(Path(path).read_text()),
                                      seed=5)))
    codes = []
    for command in sorted(cli._COMMANDS):
        for fmt in ("json", "csv"):
            want = run(capsys, command, "--scenario", str(seeded),
                       "--format", fmt)
            got = run(capsys, command, "--scenario", path, "--format", fmt,
                      "--seed", "5")
            assert got == want, (command, fmt)
            codes.append(got[0])
    assert codes.count(0) >= 10   # all but defects and fmt-check report


def test_parser_reuse_leaks_no_options(capsys):
    # one parser serves every call; options given to one call must not
    # show up in the next, so each report equals a fresh process's
    calls = [
        ["distributive", "--scenario", DISC, "--seed", "3", "--format",
         "csv"],
        ["constants", "--scenario", THREE_POINTS],
        ["weights", "--scenario", CONIC, "--max-u", "6", "--format", "csv"],
        ["distributive", "--scenario", DISC],
    ]
    in_process = [run(capsys, *argv)[:2] for argv in calls]
    assert cli._build_parser() is cli._build_parser()
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    for argv, (code, out) in zip(calls, in_process):
        fresh = subprocess.run([sys.executable, "-m", "smtlab.cli", *argv],
                               capture_output=True, text=True, env=env,
                               check=False)
        assert (fresh.returncode, fresh.stdout) == (code, out)


def test_fmt_check_composes_and_characterizes_once(monkeypatch, capsys):
    from smtlab import hypersurfaces, nevanlinna
    composed, kernel = Counter(), []
    compose = hypersurfaces.MovingHypersurface.compose
    circle_averages = nevanlinna.circle_averages

    def counted_compose(self, components):
        composed[id(self)] += 1
        return compose(self, components)

    def counted_kernel(fn, radii, *args, **kwargs):
        kernel.append(tuple(radii))
        return circle_averages(fn, radii, *args, **kwargs)

    monkeypatch.setattr(hypersurfaces.MovingHypersurface, "compose",
                        counted_compose)
    # the session looks the kernel up in nevanlinna
    monkeypatch.setattr(nevanlinna, "circle_averages", counted_kernel)
    code, out, _ = run(capsys, "fmt-check", "--scenario", CONIC)
    assert code == 0
    grid = tuple(row[0] for row in json.loads(out)["rows"])
    assert sorted(composed.values()) == [1, 1, 1, 1]   # four targets
    # one kernel call for T and one for the m rows of all four targets,
    # each over every grid radius once
    assert kernel == [grid, grid]
    # a second report on the same scenario adds no call
    before = (Counter(composed), list(kernel))
    assert run(capsys, "fmt-check", "--scenario", CONIC)[1] == out
    assert (composed, kernel) == before


def test_huge_grid_rejected_at_load(tmp_path, capsys):
    data = json.loads(Path(THREE_POINTS).read_text())
    data["grid"]["points"] = 10 ** 6
    path = tmp_path / "huge_grid.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = run(capsys, "nevanlinna", "--scenario", str(path))
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (1, "")
    assert err.startswith("error: scenario field 'grid': between 1 and")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("points", [54, 1000])
def test_finite_grid_past_rounding_exits_one(tmp_path, capsys, points):
    data = json.loads(Path(DISC).read_text())
    data["grid"]["points"] = points
    path = tmp_path / "long_finite_grid.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "nevanlinna", "--scenario", str(path))
    assert_one_error_line(code, out, err)
    assert f"{points} points" in err and "at most 53 circles" in err


@pytest.mark.parametrize("command", ["nevanlinna", "fmt-check", "defects",
                                     "verify"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_nan_in_a_report_exits_one(tmp_path, capsys, command, fmt):
    # circles out near R = 1e308 overflow T and N to NaN; verify refuses
    # the NaN before it compares counting functions (NaN != NaN)
    data = json.loads(Path(DISC).read_text())
    data["curve"]["domain_R"] = 1e308
    path = tmp_path / "huge_disc.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, "--scenario", str(path),
                         "--format", fmt)
    assert_one_error_line(code, out, err)
    assert "NaN" in err


def test_constant_curve_defects_exit_one(tmp_path, capsys):
    # (1, -1) is linearly degenerate, refused before T = 0 is computed
    data = json.loads(Path(DISC).read_text())
    data["curve"]["components"][1] = "-1"
    path = tmp_path / "constant_curve.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "defects", "--scenario", str(path))
    assert_one_error_line(code, out, err)
    assert "unexpected degree-1 relation (monomial rank 1 < 2)" in err


def test_curve_with_zero_component(tmp_path, capsys):
    # (1, 0, z) in the plane x1 = 0: the zero component adds nothing to T
    scenario = json.loads(Path(THREE_POINTS).read_text())
    scenario.update(
        ambient_N=2, variety_generators=["x1"],
        curve={"components": ["poly: 1", "0", "poly: z"], "domain_R": "inf"},
        hypersurfaces=[
            {"degree": 1, "coefficients": {"x0": "1"}},
            {"degree": 1, "coefficients": {"x2": "1", "x0": "-1"}},
            {"degree": 1, "coefficients": {"x2": "1", "x0": "1"}}],
        grid={"kind": "geometric", "r_min": 2.0, "r_max": 100.0,
              "points": 4})
    path = tmp_path / "zero_component.json"
    path.write_text(json.dumps(scenario))
    code, out, err = run(capsys, "nevanlinna", "--scenario", str(path))
    assert code == 0, err
    rows = json.loads(out)["rows"]
    for row in rows:
        assert abs(row[1] - 0.5 * math.log(1 + row[0] ** 2)) <= 1e-9
    for command in ("fmt-check", "verify"):
        code, _, err = run(capsys, command, "--scenario", str(path))
        assert code == 0, err


def test_missing_scenario_exits_one(capsys):
    code, out, err = run(capsys, "verify", "--scenario", "/no/such/file.json")
    assert code == 1
    assert out == ""
    assert "cannot read scenario" in err


def test_invalid_scenario_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"ambient_N": 1}')
    code, _, err = run(capsys, "constants", "--scenario", str(bad))
    assert code == 1
    assert "error:" in err


def test_unknown_command_exits_one(capsys):
    assert cli.main(["bogus", "--scenario", THREE_POINTS]) == 1
    capsys.readouterr()


def test_missing_required_flag_exits_one(capsys):
    assert cli.main(["verify"]) == 1
    capsys.readouterr()


def _scenario_file(tmp_path, **fields):
    data = json.loads(Path(THREE_POINTS).read_text())
    data.update(fields)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(data))
    return str(path)


def assert_one_error_line(code, out, err):
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_pole_at_spot_check_point_exits_one(tmp_path, capsys):
    # on the plane a pole anywhere rejects the curve at load
    path = _scenario_file(tmp_path, curve={
        "components": ["poly: 1", "rational: (1)/(z - 4/5)"],
        "domain_R": "inf"})
    code, out, err = run(capsys, "verify", "--scenario", path)
    assert_one_error_line(code, out, err)
    assert "pole at |z| = 0.8 in the plane" in err


@pytest.mark.parametrize("command",
                         ["nevanlinna", "fmt-check", "verify", "defects"])
def test_pole_in_domain_exits_one(tmp_path, capsys, command):
    plane = _scenario_file(tmp_path, curve={
        "components": ["poly: 1", "rational: (1)/(z^2 + 4)"],
        "domain_R": "inf"})
    code, out, err = run(capsys, command, "--scenario", plane)
    assert_one_error_line(code, out, err)
    assert "pole at |z| = 2 in the plane" in err
    data = json.loads(Path(DISC).read_text())
    data["curve"] = {"components": ["poly: 1", "rational: (1)/(z - 4/5)"],
                     "domain_R": 0.9}
    disc = tmp_path / "disc_pole.json"
    disc.write_text(json.dumps(data))
    code, out, err = run(capsys, command, "--scenario", str(disc))
    assert_one_error_line(code, out, err)
    assert "in the disc |z| < 0.9 (numerical root check)" in err


def test_pole_outside_disc_skips_sample_point(tmp_path, capsys):
    # the pole 4/5 lies outside |z| < 0.7, so the curve is holomorphic on
    # its disc; the nondegeneracy check clears the denominator and never
    # evaluates the curve at a point
    data = json.loads(Path(DISC).read_text())
    data.update(curve={"components": ["poly: 1", "rational: (1)/(z - 4/5)"],
                       "domain_R": 0.7}, r0=0.05)
    path = tmp_path / "disc_pole.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--scenario", str(path))
    assert code == 0 and err == ""
    assert json.loads(out)["rows"]


def test_interpolant_of_sample_parities_verifies(tmp_path, capsys):
    # p interpolates t mod 2 at z_t = (3t+1)/(2t+3), t = 1..8, so p and
    # p^2 agree at those points; the curve (1, p) still satisfies no
    # quadratic relation, and verify must not report one
    xs = [Fraction(3 * t + 1, 2 * t + 3) for t in range(1, 9)]
    coeffs = [Fraction(0)] * len(xs)
    for i, x in enumerate(xs):
        if i % 2 == 1:       # t = i + 1 even
            continue
        basis, scale = [Fraction(1)], Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                basis = [a - xj * b for a, b in zip([0] + basis, basis + [0])]
                scale /= x - xj
        coeffs = [c + scale * b for c, b in zip(coeffs, basis)]
    literal = " + ".join(f"({c})*z^{k}" for k, c in enumerate(coeffs))
    path = _scenario_file(tmp_path, curve={
        "components": ["poly: 1", "poly: " + literal], "domain_R": "inf"})
    code, out, err = run(capsys, "verify", "--scenario", path)
    assert code == 0 and err == ""
    assert json.loads(out)["rows"]


@pytest.mark.parametrize("command", ["verify", "defects"])
def test_curve_off_the_variety_exits_one(tmp_path, capsys, command):
    data = json.loads(Path(CONIC).read_text())
    data["curve"]["components"] = ["poly: 1", "poly: z", "poly: z^3"]
    path = tmp_path / "off_conic.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, "--scenario", str(path))
    assert_one_error_line(code, out, err)
    assert "curve does not lie on the variety" in err


@pytest.mark.parametrize("command", ["verify", "defects"])
@pytest.mark.parametrize("components, message", [
    (["poly: 1", "exppoly: exp(z)", "exppoly: exp(2*z)"],
     "unexpected degree-2 relation (monomial rank 5 < 6)"),
    (["poly: 1", "exppoly: exp(z)", "exppoly: (2)*exp(z) + (1)"],
     "unexpected degree-1 relation (monomial rank 2 < 3)"),
    (["poly: 1", "poly: z", "poly: 2*z + 1"],
     "unexpected degree-1 relation (monomial rank 2 < 3)"),
])
def test_degenerate_curve_in_the_plane_exits_one_before_any_divisor(
        tmp_path, capsys, monkeypatch, command, components, message):
    # both reports refuse a degenerate curve in P^2, of either kind, by
    # exact ranks before any zero is isolated
    def no_zeros(*args, **kwargs):
        raise AssertionError("zero isolation reached")
    monkeypatch.setattr(nevanlinna, "zeros_in_disc", no_zeros)
    data = json.loads(Path(CONIC).read_text())
    data["variety_generators"] = []
    data["curve"]["components"] = components
    path = tmp_path / "degenerate_curve.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, "--scenario", str(path))
    assert_one_error_line(code, out, err)
    assert message in err


@pytest.mark.parametrize("command", ["nevanlinna", "verify"])
def test_float_overflow_on_a_circle_exits_one_at_once(tmp_path, capsys,
                                                      monkeypatch, command):
    # |f| overflows a double on these circles; numpy may not warn (the
    # warning would be a second stderr line) and the walk stops at once
    data = json.loads(Path(CONIC).read_text())
    data["grid"] = {"kind": "geometric", "r_min": 1e300, "r_max": 1e307,
                    "points": 40}
    path = tmp_path / "huge_grid.json"
    path.write_text(json.dumps(data))
    levels = []
    integrand = Curve.log_norm

    def counted(self, z):
        levels.append(len(z))
        return integrand(self, z)
    monkeypatch.setattr(Curve, "log_norm", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, command, "--scenario", str(path))
    assert_one_error_line(code, out, err)
    assert "circle average on |z| = 1e+300 is not finite" in err
    assert levels == [64 * 40]   # the first level, on all 40 circles


@pytest.mark.parametrize("command", ["nevanlinna", "fmt-check", "verify",
                                     "defects"])
def test_overflowed_winding_exits_one(tmp_path, capsys, command):
    # T stays finite, but Q_3(f) has degree 4 and overflows a double on
    # the padded divisor circles past 1e77
    data = json.loads(Path(CONIC).read_text())
    data["hypersurfaces"][3] = {"degree": 2, "coefficients": {
        "x0^2": "1", "x1^2": "2", "x2^2": "3"}}
    data["grid"] = {"kind": "geometric", "r_min": 2, "r_max": 1e100,
                    "points": 5}
    path = tmp_path / "overflowed_winding.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, command, "--scenario", str(path))
    assert_one_error_line(code, out, err)
    assert "could not certify a divisor beyond radius 1e+100" in err
    assert "is not finite (a float computation overflowed)" in err


def test_too_long_polynomial_literal_exits_one_at_load(tmp_path, capsys):
    path = _scenario_file(tmp_path, curve={
        "components": ["poly: 1", "poly: z^100000"], "domain_R": "inf"})
    start = time.perf_counter()
    code, out, err = run(capsys, "nevanlinna", "--scenario", path)
    assert time.perf_counter() - start < 1.0
    assert_one_error_line(code, out, err)
    assert "'curve.components[1]': polynomial literal would need 100001" in err


def test_structural_type_error_exits_one(tmp_path, capsys):
    path = _scenario_file(tmp_path, curve=None)
    code, out, err = run(capsys, "constants", "--scenario", path)
    assert_one_error_line(code, out, err)
    assert "'curve' must be an object" in err


# the options beyond --scenario, --output, --format and --seed: argv,
# parsed value, and the subcommands whose handler reads them
OPTIONS = {
    "quad_tol": (["--quad-tol", "1e-6"], 1e-6,
                 {"nevanlinna", "fmt-check", "verify", "defects"}),
    "max_u": (["--max-u", "6"], 6, {"weights"}),
    "strict_jensen": (["--strict-jensen"], True, {"nevanlinna", "verify"}),
}
COMMON = ["--output", "report.out", "--format", "csv", "--seed", "4"]


@pytest.mark.parametrize("argv", [
    ["weights", "--quad-tol", "1e-6"],
    ["verify", "--samples", "2"],
    ["constants", "--samples", "1"],
    ["defects", "--strict-jensen"],
])
def test_unread_flag_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, argv[0], "--scenario", THREE_POINTS,
                         *argv[1:])
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["nevanlinna", "fmt-check", "verify",
                                     "defects"])
@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf", "abc"])
def test_quad_tol_must_be_positive_and_finite(monkeypatch, capsys, command,
                                              value):
    def refuse(*args, **kwargs):
        raise AssertionError("ran past argument parsing")
    monkeypatch.setattr(nevanlinna, "circle_average", refuse)
    monkeypatch.setattr(nevanlinna, "circle_averages", refuse)
    monkeypatch.setattr(cli, "load_scenario", refuse)
    code, out, err = run(capsys, command, "--scenario", THREE_POINTS,
                         "--quad-tol", value)
    assert code == 1 and out == ""
    assert "argument --quad-tol: must be positive and finite" in err
    assert "Traceback" not in err


def test_each_flag_accepted_exactly_where_read():
    parser = cli._build_parser()
    settable = 0
    for command in cli._COMMANDS:
        base = [command, "--scenario", THREE_POINTS]
        args = parser.parse_args(base + COMMON)
        assert (args.output, args.format, args.seed) == ("report.out",
                                                         "csv", 4)
        settable += 4
        for dest, (argv, value, commands) in OPTIONS.items():
            if command in commands:
                assert getattr(parser.parse_args(base + argv), dest) == value
                settable += 1
            else:
                with pytest.raises(SystemExit):
                    parser.parse_args(base + argv)
    assert settable == 35


def _fake_report(flags):
    constants = SMTConstants(variant="FixedB", u=18, L=57,
                             log10_L=math.log10(57), n=1, deg_V=1, d=1,
                             q=1, delta_V=1, epsilon=1)
    return SMTReport(constants=constants,
                     rows=((2.0, 1.0, 0.5, -0.5),),
                     rhs_terms=((0.5, 0.0),),
                     defects=((0, 0.1),),
                     comparison={"log10_L": math.log10(57)},
                     flags=flags)


def test_falsification_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(
        smt_verifier, "verify_main_inequality",
        lambda scenario, **kw: _fake_report(
            ("falsification event at r = 2.0: margin = -5.000e-01",)))
    code, out, _ = run(capsys, "verify", "--scenario", THREE_POINTS)
    assert code == 2
    assert json.loads(out)["falsified"] is True


def test_report_still_written_on_falsification(monkeypatch, tmp_path,
                                               capsys):
    monkeypatch.setattr(
        smt_verifier, "verify_main_inequality",
        lambda scenario, **kw: _fake_report(
            ("falsification event at r = 2.0: margin = -5.000e-01",)))
    target = tmp_path / "report.csv"
    code = cli.main(["verify", "--scenario", THREE_POINTS,
                     "--format", "csv", "--output", str(target)])
    capsys.readouterr()
    assert code == 2
    rows = list(csv.reader(target.read_text().splitlines()))
    assert rows[1] == ["2.0", "1.0", "0.5", "-0.5"]


def test_writer_maps_infinities():
    text = cli._to_json({"a": [1.0, math.inf], "b": {"c": math.inf}})
    assert json.loads(text) == {"a": [1.0, "inf"], "b": {"c": "inf"}}
    assert text == json.dumps(json.loads(text), indent=2, allow_nan=False)
    assert json.loads(cli._to_json([-math.inf, math.inf])) == ["-inf", "inf"]


def _reference_scrub(x):
    """The strict-JSON walk the writer replaced, with -inf keeping its
    sign: infinities become strings and a NaN fails the report."""
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if isinstance(x, float) and math.isnan(x):
        raise CertificationError(NAN_REPORT)
    if isinstance(x, (list, tuple)):
        return [_reference_scrub(v) for v in x]
    if isinstance(x, dict):
        return {k: _reference_scrub(v) for k, v in x.items()}
    return x


_CHARS = 'ab "\\/\x00\x08\t\n\x1f\x7fé\u0394\u2028\U0001F600'
_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1 / 3, 2.5e-10,
           math.inf, -math.inf)


def _random_string(rng):
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))


def _random_value(rng, depth=0):
    kind = rng.randrange(9 if depth < 4 else 6)
    if kind == 0:
        return rng.randint(-2 ** 80, 2 ** 80)
    if kind == 1:
        return rng.choice((True, False, None, 0, 1, -1))
    if kind == 2:
        return rng.choice(_FLOATS)
    if kind == 3:
        return rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-300, 300)
    if kind in (4, 5):
        return _random_string(rng)
    items = [_random_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 6:
        return items
    if kind == 7:
        return tuple(items)
    return {_random_string(rng) + str(i): v for i, v in enumerate(items)}


def test_writer_matches_json_dumps():
    rng = random.Random(2024)
    for _ in range(400):
        payload = {"top": _random_value(rng), "rows": [
            [_random_value(rng, 3) for _ in range(rng.randrange(4))]
            for _ in range(rng.randrange(4))]}
        if rng.random() < 0.1:
            payload["rows"].append([1.0, math.nan])
            with pytest.raises(CertificationError, match="NaN"):
                _reference_scrub(payload)
            with pytest.raises(CertificationError, match="NaN"):
                cli._to_json(payload)
            continue
        expected = json.dumps(_reference_scrub(payload), indent=2,
                              allow_nan=False)
        assert cli._to_json(payload) == expected
        items = [_random_value(rng)]
        assert cli._to_json(items) == json.dumps(
            _reference_scrub(items), indent=2, allow_nan=False)


def _lines(tmp_path, count):
    """A scenario of the lines x0 + k x1 + k^2 x2 of P^2, k = 1..count, no
    three through one point: the lines and pairs are listed, and the
    triples and everything above are empty."""
    data = json.loads(Path(CONIC).read_text())
    data["variety_generators"] = []
    data["hypersurfaces"] = [
        {"degree": 1, "coefficients": {"x0": "1", "x1": str(k),
                                       "x2": str(k * k)}}
        for k in range(1, count + 1)]
    path = tmp_path / f"{count}_lines.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_distributive_table_on_ten_lines(tmp_path, capsys):
    path = _lines(tmp_path, 10)
    code, out, _ = run(capsys, "distributive", "--scenario", path)
    assert code == 0
    data = json.loads(out)
    assert out == json.dumps(data, indent=2) + "\n"
    assert len(data["table"]) == 55
    assert data["table"][-1] == {"subset": [8, 9], "dim": 0, "ratio": "1"}
    code, out, _ = run(capsys, "distributive", "--scenario", path,
                       "--format", "csv")
    assert code == 0
    rows = [["subset", "dim", "ratio"]] + [
        [" ".join(map(str, row["subset"])), row["dim"], row["ratio"]]
        for row in data["table"]]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert out == buf.getvalue()


def test_distributive_table_on_24_lines(tmp_path, capsys):
    # past the 16 members the scan once refused: 24 lines and 276 pairs
    # are listed, and the 2024 empty triples only certified
    code, out, _ = run(capsys, "distributive", "--scenario",
                       _lines(tmp_path, 24))
    assert code == 0
    data = json.loads(out)
    assert (data["value"], data["members"]) == ("1", 24)
    assert len(data["table"]) == 300


def test_subset_cap_refuses_400_lines_at_once(tmp_path, capsys):
    # 400 lines and 79,800 nonempty pairs: the cap on subsets examined is
    # met while the pairs are built, before any of them is certified
    path = _lines(tmp_path, 400)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "distributive", "--scenario", path)
    elapsed = time.perf_counter() - t0
    assert_one_error_line(code, out, err)
    assert "65535" in err
    assert elapsed < 1


def test_distributive_report_of_a_family_missing_v(monkeypatch, capsys):
    # a form of positive degree meets every V of dimension >= 1, so no
    # scenario family misses V: the scan's answer for one is stubbed in
    monkeypatch.setattr(position_geometry, "distributive_constant",
                        lambda V, family, seed: DistributiveReport(
                            Fraction(0), (), (), True))
    code, out, _ = run(capsys, "distributive", "--scenario", CONIC)
    assert code == 0
    assert json.loads(out) == {"value": "0", "witness": [],
                               "value_kind": "exact", "members": 4,
                               "table": []}
    assert '"table": []' in out
    code, out, _ = run(capsys, "distributive", "--scenario", CONIC,
                       "--format", "csv")
    assert (code, out) == (0, "subset,dim,ratio\n")


def test_csv_report_builds_no_json_text(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("JSON text built for a CSV report")
    monkeypatch.setattr(cli, "_to_json", refuse)
    for command in ("distributive", "constants"):
        code, out, _ = run(capsys, command, "--scenario", CONIC,
                           "--format", "csv")
        assert code == 0 and out.count("\n") > 2


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_nan_payload_writes_nothing(tmp_path, monkeypatch, capsys, fmt):
    # the NaN sits in the payload only: the CSV rows are finite, and both
    # formats still refuse the report before any byte is written
    def handler(scenario, args):
        return {"a": "x", "values": [0.5, math.nan]}, lambda: [["v"], [0.5]], 0
    monkeypatch.setitem(cli._COMMANDS, "constants", (handler, [], ""))
    argv = ["constants", "--scenario", THREE_POINTS, "--format", fmt]
    code, out, err = run(capsys, *argv)
    assert_one_error_line(code, out, err)
    assert "NaN" in err
    fresh = tmp_path / "fresh.txt"
    code, out, err = run(capsys, *argv, "--output", str(fresh))
    assert_one_error_line(code, out, err)
    assert not fresh.exists()
    kept = tmp_path / "kept.txt"
    kept.write_text("earlier report\n")
    code, out, err = run(capsys, *argv, "--output", str(kept))
    assert_one_error_line(code, out, err)
    assert kept.read_text() == "earlier report\n"


def test_negative_infinity_keeps_its_sign(monkeypatch, capsys):
    # no scenario reaches -inf (a truncation level below 1 is refused),
    # so a handler hands it to both writers
    def handler(scenario, args):
        return ({"log10_L": -math.inf, "v": [math.inf, -math.inf]},
                lambda: [["log10_L", -math.inf]], 0)
    monkeypatch.setitem(cli._COMMANDS, "constants", (handler, [], ""))
    code, out, _ = run(capsys, "constants", "--scenario", THREE_POINTS)
    assert code == 0
    assert json.loads(out) == {"log10_L": "-inf", "v": ["inf", "-inf"]}
    code, out, _ = run(capsys, "constants", "--scenario", THREE_POINTS,
                       "--format", "csv")
    assert (code, out) == (0, "log10_L,-inf\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["constants", "verify"])
@pytest.mark.parametrize("base", [THREE_POINTS, DISC])
def test_truncation_level_below_one_is_refused(tmp_path, capsys, base, fmt,
                                               command):
    # epsilon 10^6 floors Theorem B's L to 0, which no report may carry
    data = json.loads(Path(base).read_text())
    data["epsilon"] = "1000000"
    path = tmp_path / "huge_epsilon.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, "--scenario", str(path),
                         "--format", fmt)
    assert_one_error_line(code, out, err)
    assert err == ("error: TheoremB: epsilon = 1000000 leaves the truncation "
                   "level L = 0 below 1\n")


def test_strict_jensen_flag_threads(capsys):
    # origin-zero-free scenario: both conventions agree exactly
    code1, out1, _ = run(capsys, "nevanlinna", "--scenario", THREE_POINTS,
                         "--format", "csv")
    code2, out2, _ = run(capsys, "nevanlinna", "--scenario", THREE_POINTS,
                         "--format", "csv", "--strict-jensen")
    assert code1 == code2 == 0
    assert out1 == out2


def test_budget_exhaustion_exits_one(tmp_path, monkeypatch, capsys):
    from functools import partial
    from types import SimpleNamespace

    from smtlab.groebner import Variety
    data = json.loads(Path(CONIC).read_text())
    data.update(
        ambient_N=3,
        variety_generators=["x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2"],
        curve={"components": ["poly: 1", "poly: z", "poly: z^2", "poly: z^3"],
               "domain_R": "inf"},
        hypersurfaces=[{"degree": 1, "coefficients": {"x0": "1", "x3": "1"}}])
    path = tmp_path / "twisted_cubic.json"
    path.write_text(json.dumps(data))
    monkeypatch.setattr(scenario_mod, "groebner",
                        SimpleNamespace(Variety=partial(Variety, budget=1)))
    code, out, err = run(capsys, "weights", "--scenario", str(path),
                         "--max-u", "6")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "budget" in err
    assert len(err.splitlines()) == 1
