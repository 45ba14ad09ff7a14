"""Scenario files: one JSON document describing a full verification run.

Exact data (rationals, polynomial coefficients) travels as strings so no
float ever contaminates the algebraic side.  Radii and tolerances are
plain numbers.

A loaded Scenario is also the session its reports share: the variety
and its Groebner basis, the distributive-constant scan, the check of the
curve's hypotheses, the truncation constants and, through ``session``, T,
Q_j(f), the divisors and the proximity rows are computed once each, on
first use.  Loading parses the file into exact data, each distinct
literal of the family once, and runs none of ``groebner``, ``analytic``,
``nevanlinna`` or ``position_geometry``.  ``load_scenario`` keeps the
last scenario it loaded and hands it out while the file's bytes stay the same.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Optional, Tuple

from ._lazy import lazy_import
from .errors import BudgetExceededError, ValidationError
from .exact_algebra import Ideal, parse_homog_poly
from .functions import Curve, RadialGrid, parse_function, poles
from .hypersurfaces import HypersurfaceFamily, parse_hypersurface
from .scalars import parse_fraction

groebner = lazy_import("smtlab.groebner")
nevanlinna = lazy_import("smtlab.nevanlinna")
position_geometry = lazy_import("smtlab.position_geometry")

# grid points a scenario may ask for; shipped scenarios use at most 40
MAX_GRID_POINTS = 1000


@dataclass(frozen=True)
class Scenario:
    ambient_N: int
    ideal: Ideal
    curve: Curve
    family: HypersurfaceFamily
    epsilon: Fraction
    epsilon_prime: Fraction
    grid: RadialGrid
    truncation: Optional[int]
    seed: int
    growth_model: Optional[Fraction]
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @cached_property
    def variety(self) -> groebner.Variety:
        """V, cut out by the scenario's ideal, built on first use."""
        return groebner.Variety(self.ideal)

    @cached_property
    def session(self) -> nevanlinna.GridSession:
        """The grid quantities of the curve and family, built on first use."""
        return nevanlinna.GridSession(self.curve, self.family, self.grid)

    def with_seed(self, seed: int) -> "Scenario":
        """This scenario with another seed and the variety built so far."""
        seeded = replace(self, seed=seed)
        if "variety" in self.__dict__:
            seeded.__dict__["variety"] = self.variety
        return seeded

    def once(self, key, compute):
        """compute(), run on the first request for key and then kept."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def domain_radius(self) -> float:
        return self.curve.domain_radius

    def distributive(self) -> position_geometry.DistributiveReport:
        """The distributive-constant scan, run once."""
        scan = position_geometry.distributive_constant
        return self.once("scan", lambda: scan(self.variety, self.family,
                                              seed=self.seed))

    def check_curve(self) -> None:
        """Refuse a curve outside the hypotheses of the second main
        theorem, checked once and in this order: every Q_j(f) is nonzero,
        f lies on V, and f is nondegenerate over V up to degree 2."""
        def check():
            for j in range(len(self.family)):
                self.session.composed(j)
            position_geometry.check_curve_on_variety(self.variety, self.curve)
            position_geometry.check_nondegenerate(self.variety, self.curve)
        self.once("curve", check)


def _field(data: dict, name: str, required: bool = True, default=None):
    if name not in data:
        if required:
            raise ValidationError(f"scenario field {name!r} is missing")
        return default
    return data[name]


def _typed(value, kind: type, name: str):
    """value itself, once it is a JSON object (dict), list or string."""
    if not isinstance(value, kind):
        what = {dict: "an object", list: "a list", str: "a string"}[kind]
        raise ValidationError(f"scenario field {name!r} must be {what}")
    return value


def _integer(value, name: str, minimum: Optional[int] = None) -> int:
    """value itself, once it is a JSON integer (not a boolean) of at least
    minimum."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"scenario field {name!r} must be an integer")
    if minimum is not None and value < minimum:
        raise ValidationError(
            f"scenario field {name!r} must be an integer >= {minimum}")
    return value


def _rational(value, name: str) -> Fraction:
    try:
        if isinstance(value, (bool, float)):
            raise TypeError("write exact rationals as strings")
        return parse_fraction(value)
    except (ValueError, TypeError) as err:
        raise ValidationError(f"scenario field {name!r}: {err}")


def _number(value, fault: str) -> float:
    """value as a float, once it is a JSON number (not a boolean) that is
    positive and finite; anything else raises ValidationError(fault).  An
    integer past the float range reads as +-inf, so it is refused too."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if 0 < number < math.inf:   # also refuses nan
            return number
    raise ValidationError(fault)


def _points(count) -> int:
    count = _integer(count, "grid.points")
    if not 1 <= count <= MAX_GRID_POINTS:
        raise ValidationError(
            f"scenario field 'grid': between 1 and {MAX_GRID_POINTS} "
            f"points allowed, got {count}")
    return count


def _grid_number(value, key: str) -> float:
    return _number(
        value, f"scenario field 'grid': {key} must be positive and finite")


def _build_grid(spec, r0: float, R: float) -> RadialGrid:
    if spec is None:
        if math.isinf(R):
            return RadialGrid.geometric(r0=r0)
        return RadialGrid.finite(R, r0=r0)
    kind = _typed(spec, dict, "grid").get("kind", "geometric")
    try:
        if kind == "geometric":
            return RadialGrid(
                r0,
                RadialGrid.geometric(
                    _grid_number(spec.get("r_min", 2.0), "r_min"),
                    _grid_number(spec.get("r_max", 1e3), "r_max"),
                    _points(spec.get("points", 40)), r0).values,
                R)
        if kind == "finite":
            if math.isinf(R):
                raise ValidationError(
                    "scenario field 'grid': finite grid needs a finite "
                    "domain radius")
            return RadialGrid.finite(R, _points(spec.get("points", 20)), r0)
        if kind == "explicit":
            values = _typed(spec["values"], list, "grid.values")
            _points(len(values))
            return RadialGrid(r0, tuple(_grid_number(v, f"values[{i}]")
                                        for i, v in enumerate(values)), R)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise ValidationError(f"scenario field 'grid': {err}")
    raise ValidationError(f"scenario field 'grid': unknown kind {kind!r}")


def _check_no_pole(f, R: float, name: str) -> None:
    """The curve must be holomorphic on its domain: a rational component
    may have no pole in the plane, or in the open disc |z| < R."""
    inside = [z for z in poles(f) if abs(z) < R]
    if inside:
        where = ("the plane" if math.isinf(R) else
                 f"the disc |z| < {R:g} (numerical root check)")
        raise ValidationError(
            f"scenario field {name!r}: pole at |z| = {abs(inside[0]):.6g} "
            f"in {where}")


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ValidationError("scenario must be a JSON object")
    N = _integer(_field(data, "ambient_N"), "ambient_N", 1)

    curve_spec = _typed(_field(data, "curve"), dict, "curve")
    R = curve_spec.get("domain_R", "inf")
    R = math.inf if R == "inf" else _number(
        R, "scenario field 'curve.domain_R' must be positive and finite, "
        "or 'inf'")
    comps = []
    for i, text in enumerate(_typed(curve_spec.get("components", []), list,
                                    "curve.components")):
        name = f"curve.components[{i}]"
        text = _typed(text, str, name)
        try:
            comps.append(parse_function(text))
        except (BudgetExceededError, ValueError, ValidationError,
                ZeroDivisionError) as err:
            raise ValidationError(f"scenario field {name!r}: {err}")
        _check_no_pole(comps[-1], R, name)
    if len(comps) != N + 1:
        raise ValidationError(
            f"scenario field 'curve.components': expected {N + 1} entries, "
            f"got {len(comps)}")
    curve = Curve(tuple(comps), R)

    # N + 1 now matches a list in the file, so N is bounded by its size
    gens = []
    for i, text in enumerate(_typed(_field(data, "variety_generators",
                                           required=False, default=[]),
                                    list, "variety_generators")):
        name = f"variety_generators[{i}]"
        text = _typed(text, str, name)
        try:
            gens.append(parse_homog_poly(text, N + 1))
        except (ValueError, ValidationError, ZeroDivisionError) as err:
            raise ValidationError(f"scenario field {name!r}: {err}")
    ideal = Ideal(N + 1, gens)

    members, literals = [], {}
    for i, spec in enumerate(_typed(_field(data, "hypersurfaces"), list,
                                    "hypersurfaces")):
        name = f"hypersurfaces[{i}]"
        spec = _typed(spec, dict, name)
        coefficients = _typed(spec.get("coefficients"), dict,
                              name + ".coefficients")
        for key, value in coefficients.items():
            _typed(value, str, f"{name}.coefficients.{key}")
        degree = _integer(spec.get("degree"), name + ".degree")
        declared_moving = spec.get("moving", False)
        if not isinstance(declared_moving, bool):
            raise ValidationError(
                f"scenario field {name + '.moving'!r} must be true or false")
        try:
            member = parse_hypersurface(N + 1, degree, coefficients, literals)
        except (BudgetExceededError, KeyError, TypeError, ValueError,
                ValidationError, ZeroDivisionError) as err:
            raise ValidationError(f"scenario field {name!r}: {err}")
        if member.is_moving != declared_moving:
            raise ValidationError(
                f"scenario field {name!r}: declared "
                f"moving={declared_moving} but coefficients say otherwise")
        members.append(member)
    family = HypersurfaceFamily(members)

    epsilon = _rational(_field(data, "epsilon"), "epsilon")
    if epsilon <= 0:
        raise ValidationError("scenario field 'epsilon' must be positive")
    eps_prime_raw = _field(data, "epsilon_prime", required=False)
    epsilon_prime = (epsilon / 10 if eps_prime_raw is None
                     else _rational(eps_prime_raw, "epsilon_prime"))
    if epsilon_prime <= 0:
        raise ValidationError("scenario field 'epsilon_prime' must be positive")

    r0 = _number(_field(data, "r0"),
                 "scenario field 'r0' must be positive and finite")
    grid = _build_grid(_field(data, "grid", required=False), r0, R)

    truncation = _field(data, "truncation", required=False)
    if truncation is not None:
        truncation = _integer(truncation, "truncation", 1)
    seed = _integer(_field(data, "seed", required=False, default=0), "seed")

    model = _field(data, "growth_model", required=False)
    growth_model = None
    if model is not None:
        growth_model = _rational(_typed(model, dict, "growth_model")
                                 .get("lambda"), "growth_model.lambda")
        if growth_model <= 0:
            raise ValidationError(
                "scenario field 'growth_model.lambda' must be positive")

    return Scenario(N, ideal, curve, family, epsilon, epsilon_prime,
                    grid, truncation, seed, growth_model)


# the last scenario loaded, with the bytes it was loaded from
_last: Optional[Tuple[bytes, Scenario]] = None


def load_scenario(path: str) -> Scenario:
    """The scenario in the file at path.

    When the file holds the same bytes as at the previous call, the
    Scenario that call returned comes back, with everything its reports
    have computed so far; any other file replaces it.
    """
    global _last
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise ValidationError(f"cannot read scenario {path}: {err}")
    last = _last
    if last is not None and last[0] == raw:
        return last[1]
    _last = None
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as err:
        raise ValidationError(f"scenario {path} is not UTF-8 text: {err}")
    except json.JSONDecodeError as err:
        raise ValidationError(
            f"scenario {path} is not well-formed JSON "
            f"(line {err.lineno}, column {err.colno}): {err.msg}")
    scenario = scenario_from_dict(data)
    _last = (raw, scenario)
    return scenario


def _forget() -> None:
    """Drop the kept scenario, so the next load starts a cold session."""
    global _last
    _last = None
