"""Scenario ingestion: JSON parsing, validation, field naming in errors."""

import json
import math
import re
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from smtlab.errors import ValidationError
from smtlab.hypersurfaces import parse_hypersurface
from smtlab.scenario import MAX_GRID_POINTS, load_scenario, scenario_from_dict

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def minimal():
    return {
        "ambient_N": 1,
        "curve": {"components": ["poly: 1", "poly: z"], "domain_R": "inf"},
        "hypersurfaces": [
            {"degree": 1, "coefficients": {"x0": "1"}},
        ],
        "epsilon": "1/2",
        "r0": 0.25,
        "grid": {"kind": "geometric", "r_min": 2.0, "r_max": 10.0,
                 "points": 3},
    }


def test_load_shipped_three_points():
    s = load_scenario(str(SCENARIOS / "line_three_points.json"))
    assert s.ambient_N == 1
    assert len(s.family) == 3
    assert s.epsilon == Fraction(1, 2)
    assert s.epsilon_prime == Fraction(1, 20)
    assert math.isinf(s.domain_radius)
    assert len(s.grid.values) == 40
    assert s.variety.dim_degree() == (1, 1)


def test_load_shipped_conic():
    s = load_scenario(str(SCENARIOS / "conic_four_lines.json"))
    assert s.ambient_N == 2
    assert s.variety.dim_degree() == (1, 2)
    assert len(s.family) == 4
    assert not s.family.is_moving


def test_load_shipped_disc():
    s = load_scenario(str(SCENARIOS / "disc_model_growth.json"))
    assert s.domain_radius == 2.0
    assert s.growth_model == Fraction(2)
    assert s.grid.R == 2.0
    assert len(s.grid.values) == 12


def test_minimal_dict_roundtrip():
    s = scenario_from_dict(minimal())
    assert s.epsilon_prime == Fraction(1, 20)  # epsilon / 10 default
    assert s.truncation is None and s.seed == 0


def test_missing_epsilon_names_field():
    data = minimal()
    del data["epsilon"]
    with pytest.raises(ValidationError, match="epsilon"):
        scenario_from_dict(data)


def test_float_epsilon_rejected():
    data = minimal()
    data["epsilon"] = 0.5
    with pytest.raises(ValidationError, match="epsilon"):
        scenario_from_dict(data)


def test_degree_mismatch_names_hypersurface():
    data = minimal()
    data["hypersurfaces"] = [{"degree": 2, "coefficients": {"x0": "1"}}]
    with pytest.raises(ValidationError, match=r"hypersurfaces\[0\]"):
        scenario_from_dict(data)


def test_component_count_checked():
    data = minimal()
    data["curve"]["components"] = ["poly: 1"]
    with pytest.raises(ValidationError, match="curve.components"):
        scenario_from_dict(data)


def test_bad_component_names_index():
    data = minimal()
    data["curve"]["components"] = ["poly: 1", "poly: z^"]
    with pytest.raises(ValidationError, match=r"curve.components\[1\]"):
        scenario_from_dict(data)


def test_moving_declaration_mismatch():
    data = minimal()
    data["hypersurfaces"] = [
        {"degree": 1, "coefficients": {"x0": "poly: z"}, "moving": False}]
    with pytest.raises(ValidationError, match="moving"):
        scenario_from_dict(data)


def test_bad_variety_generator_names_index():
    data = minimal()
    data["variety_generators"] = ["x0 - x1^2"]
    with pytest.raises(ValidationError, match=r"variety_generators\[0\]"):
        scenario_from_dict(data)


def test_growth_model_validation():
    data = minimal()
    data["growth_model"] = {"lambda": "-2"}
    with pytest.raises(ValidationError, match="growth_model"):
        scenario_from_dict(data)


def test_truncation_validation():
    data = minimal()
    data["truncation"] = 0
    with pytest.raises(ValidationError, match="truncation"):
        scenario_from_dict(data)


def test_grid_kinds():
    data = minimal()
    data["grid"] = {"kind": "explicit", "values": [1.0, 2.0, 3.0]}
    s = scenario_from_dict(data)
    assert s.grid.values == (1.0, 2.0, 3.0)
    data["grid"] = {"kind": "explicit", "values": [2.0, 10 ** 400]}
    with pytest.raises(ValidationError, match="grid"):
        scenario_from_dict(data)
    data["grid"] = {"kind": "spiral"}
    with pytest.raises(ValidationError, match="grid"):
        scenario_from_dict(data)
    data["grid"] = {"kind": "finite", "points": 5}
    with pytest.raises(ValidationError, match="grid"):
        scenario_from_dict(data)  # infinite domain cannot take a finite grid


@pytest.mark.parametrize("grid", [
    {"kind": "geometric", "points": 1000000},
    {"kind": "geometric", "points": 0},
    {"kind": "explicit", "values": [2.0 + k for k in range(1001)]},
])
def test_grid_points_capped(grid):
    data = _three_points()
    data["grid"] = grid
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="'grid': between 1 and 1000"):
        scenario_from_dict(data)
    assert time.perf_counter() - start < 1.0
    data["grid"] = {"kind": "geometric", "points": MAX_GRID_POINTS}
    assert len(scenario_from_dict(data).grid.values) == MAX_GRID_POINTS


def test_load_keeps_one_scenario_by_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_three_points()))
    b.write_text(json.dumps(_three_points()) + " ")
    first = load_scenario(str(a))
    assert load_scenario(str(a)) is first
    # another file with the same bytes is the same scenario
    twin = tmp_path / "twin.json"
    twin.write_bytes(a.read_bytes())
    assert load_scenario(str(twin)) is first
    other = load_scenario(str(b))
    assert other is not first
    again = load_scenario(str(a))
    assert again is not first and again.grid == first.grid
    # a rewritten file is read afresh
    a.write_text(json.dumps(dict(_three_points(), epsilon="1/3")))
    assert load_scenario(str(a)).epsilon == Fraction(1, 3)
    # a replaced seed starts its own session
    seeded = replace(again, seed=5)
    assert seeded.session is not again.session
    # and shares the variety and its basis once they are built
    assert again.with_seed(5).variety is not again.variety
    assert again.with_seed(6).variety is again.variety
    assert again.with_seed(6).session is not again.session


def test_non_utf8_file_rejected(tmp_path):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"ambient_N": 1, "epsilon": "\xe9"}')   # latin-1 e-acute
    with pytest.raises(ValidationError, match="not UTF-8"):
        load_scenario(str(p))


def test_malformed_json_reports_location(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{\"ambient_N\": 1,,}")
    with pytest.raises(ValidationError, match="line"):
        load_scenario(str(p))
    with pytest.raises(ValidationError, match="cannot read"):
        load_scenario(str(tmp_path / "absent.json"))


def _three_points():
    return json.loads((SCENARIOS / "line_three_points.json").read_text())


def _set_coefficients_null(data):
    data["hypersurfaces"][0]["coefficients"] = None


@pytest.mark.parametrize("mutate, path", [
    (lambda d: d.update(curve=None), "'curve'"),
    (lambda d: d.update(grid=5), "'grid'"),
    (lambda d: d.update(growth_model=3), "'growth_model'"),
    (lambda d: d.update(hypersurfaces=[5]), "'hypersurfaces[0]'"),
    (lambda d: d.update(variety_generators=[5]), "'variety_generators[0]'"),
    (_set_coefficients_null, "'hypersurfaces[0].coefficients'"),
])
def test_structural_types_name_field(mutate, path):
    data = _three_points()
    mutate(data)
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(data)
    assert f"scenario field {path} must be" in str(err.value)


@pytest.mark.parametrize("mutate, path", [
    (lambda d: d["curve"]["components"].__setitem__(0, "1/0"),
     "'curve.components[0]'"),
    (lambda d: d.update(variety_generators=["1/0*x0"]),
     "'variety_generators[0]'"),
    (lambda d: d["hypersurfaces"][0]["coefficients"].update(x0="1/0"),
     "'hypersurfaces[0]'"),
    (lambda d: d["hypersurfaces"][0]["coefficients"].update(x0=5),
     "'hypersurfaces[0].coefficients.x0'"),
    (lambda d: d["grid"].update(r_min=0), "'grid'"),
    (lambda d: d["grid"].update(r_min=-5.0),
     "'grid': r_min must be positive and finite"),
    (lambda d: d["grid"].update(r_max=math.nan),
     "'grid': r_max must be positive and finite"),
    (lambda d: d["grid"].update(r_max="inf"),
     "'grid': r_max must be positive and finite"),
    (lambda d: d["grid"].update(r_max=10 ** 400),
     "'grid': r_max must be positive and finite"),
    pytest.param(lambda d: d["grid"].update(r_max="10"),
                 "'grid': r_max must be positive and finite",
                 id="r_max-string"),
    pytest.param(lambda d: d["grid"].update(r_min=True),
                 "'grid': r_min must be positive and finite",
                 id="r_min-true"),
    pytest.param(lambda d: d.update(grid={"kind": "explicit",
                                          "values": [True, "2.5", 3]}),
                 "'grid': values[0] must be positive and finite",
                 id="values-true"),
    pytest.param(lambda d: d.update(grid={"kind": "explicit",
                                          "values": [2.0, "2.5"]}),
                 "'grid': values[1] must be positive and finite",
                 id="values-string"),
    pytest.param(lambda d: d.update(grid={"kind": "explicit",
                                          "values": [2.0, math.nan]}),
                 "'grid': values[1] must be positive and finite",
                 id="values-nan"),
    pytest.param(lambda d: d.update(grid={"kind": "explicit",
                                          "values": "abc"}),
                 "'grid.values' must be a list", id="values-not-a-list"),
    pytest.param(lambda d: d.update(r0="inf"),
                 "'r0' must be positive and finite", id="r0-inf"),
    pytest.param(lambda d: d.update(epsilon=True),
                 "'epsilon': write exact rationals as strings",
                 id="epsilon-true"),
    pytest.param(lambda d: d.update(epsilon_prime=True),
                 "'epsilon_prime': write exact rationals as strings",
                 id="epsilon_prime-true"),
    pytest.param(lambda d: d.update(growth_model={"lambda": True}),
                 "'growth_model.lambda': write exact rationals as strings",
                 id="lambda-true"),
])
def test_bad_literals_name_field(mutate, path):
    data = _three_points()
    mutate(data)
    with pytest.raises(ValidationError, match=re.escape(f"field {path}")):
        scenario_from_dict(data)


def _set_member(key, value):
    return lambda d: d["hypersurfaces"][0].update({key: value})


@pytest.mark.parametrize("mutate, path", [
    (lambda d: d.update(ambient_N=True), "ambient_N"),
    (_set_member("degree", 1.5), "hypersurfaces[0].degree"),
    (_set_member("degree", True), "hypersurfaces[0].degree"),
    (_set_member("degree", "1"), "hypersurfaces[0].degree"),
    (_set_member("moving", "false"), "hypersurfaces[0].moving"),
    (lambda d: d.update(truncation=True), "truncation"),
    (lambda d: d.update(seed=True), "seed"),
    (lambda d: d["grid"].update(points=3.9), "grid.points"),
    (lambda d: d["grid"].update(points="3"), "grid.points"),
])
def test_integer_and_boolean_fields_are_typed(mutate, path):
    data = minimal()
    mutate(data)
    with pytest.raises(ValidationError,
                       match=re.escape(f"scenario field '{path}' must be")):
        scenario_from_dict(data)


def _family(*coefficient_maps):
    data = minimal()
    data["hypersurfaces"] = [
        {"degree": 1, "coefficients": c,
         "moving": any(v.startswith("poly:") for v in c.values())}
        for c in coefficient_maps]
    return data


def test_repeated_literals_load_as_each_parsed_alone():
    data = _family({"x0": "poly: 1 - z", "x1": "3/2"},
                   {"x0": "3/2", "x1": "poly: 1 - z"},
                   {"x1": "3/2", "x0": "-i"},
                   {"x0": "poly: 1 - z"})
    family = scenario_from_dict(data).family
    for member, spec in zip(family, data["hypersurfaces"]):
        want = parse_hypersurface(2, 1, spec["coefficients"])
        assert member == want
        assert [str(fn) for fn in member.coeffs.values()] == \
            [str(fn) for fn in want.coeffs.values()]
    # one object per distinct key and per distinct value, shared
    assert len({id(m) for member in family for m in member.coeffs}) == 2
    assert len({id(fn) for member in family
                for fn in member.coeffs.values()}) == 3


@pytest.mark.parametrize("bad, repeat, message", [
    ({"x0": "2", "x1": "2/"}, {"x1": "2/"},
     "malformed Gaussian rational literal: '2/'"),
    ({"x1": "2", "x9": "2"}, {"x9": "2"},
     "variable x9 out of range for 2 variables"),
])
def test_bad_literal_after_valid_duplicates_fails_where_it_stands(
        bad, repeat, message):
    # a literal that fails is not kept: its first member is named, and a
    # later member repeating it fails the same way
    data = _family({"x0": "2", "x1": "2"}, {"x1": "2", "x0": "2"}, bad,
                   repeat)
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(data)
    assert str(err.value) == f"scenario field 'hypersurfaces[2]': {message}"
    data["hypersurfaces"][2] = data["hypersurfaces"][0]
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(data)
    assert str(err.value) == f"scenario field 'hypersurfaces[3]': {message}"


def test_non_object_rejected():
    with pytest.raises(ValidationError):
        scenario_from_dict([1, 2, 3])


@pytest.mark.parametrize("value", [
    "nan", math.nan, math.inf, "1e999", -1.0,
    pytest.param(10 ** 400, id="10**400"),
    pytest.param(-10 ** 400, id="-10**400"),
    True, None, "0.5", "5"])
@pytest.mark.parametrize("field", ["r0", "domain_R"])
def test_radius_must_be_finite(field, value):
    data = minimal()
    (data["curve"] if field == "domain_R" else data)[field] = value
    with pytest.raises(ValidationError, match="must be positive and finite"
                       + (", or 'inf'" if field == "domain_R" else "$")):
        scenario_from_dict(data)
    data["curve"]["domain_R"] = "inf"   # the spelling of the plane
    data["r0"] = 0.25
    assert math.isinf(scenario_from_dict(data).domain_radius)


def test_huge_ambient_dimension_fails_on_the_component_count():
    data = minimal()
    data["ambient_N"] = 2 ** 70
    data["variety_generators"] = ["x0"]
    with pytest.raises(ValidationError, match="expected .* entries, got 2"):
        scenario_from_dict(data)
