"""Cold start: a fresh process loads numpy and mpmath only once a report
evaluates with them; the subset scan of ``distributive`` loads numpy but
not mpmath.  smtlab's own analytic and verification modules run their
body only once a report calls them.

``numpy.linalg`` and ``mpmath.libmp`` enter ``sys.modules`` only when the
library's body runs (on numpy 1.x and 2.x alike), so they tell a loaded
library from one merely bound for later.  An smtlab module bound for later
is an ``importlib.util._LazyModule`` until first used, and ``type()`` does
not load it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

# argv: a malformed scenario, then the shipped scenarios; prints
# {step: [numpy loaded, mpmath loaded]} and {step: [smtlab modules that
# have not run]} after each step
PROBE = r"""
import contextlib, io, json, sys, types

import smtlab
from smtlab import cli
from smtlab.scenario import load_scenario

# a module bound for later is an attribute of the package at once
assert all(getattr(smtlab, name) is sys.modules["smtlab." + name] for name
           in ("nevanlinna", "position_geometry", "smt_verifier", "weights"))

def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, err.getvalue()

def loaded():
    return ["numpy.linalg" in sys.modules, "mpmath.libmp" in sys.modules]

def idle():
    return sorted(name[len("smtlab."):] for name, module in
                  list(sys.modules.items()) if name.startswith("smtlab.")
                  and type(module) is not types.ModuleType)

bad, shipped = sys.argv[1], sys.argv[2:]
steps, modules = {"import": loaded()}, {}

def step(name):
    steps[name], modules[name] = loaded(), idle()

for path in shipped:
    load_scenario(path)
modules["load"] = idle()
for path in shipped:
    assert run("weights", "--scenario", path, "--max-u", "8") == (0, "")
step("weights")
code, err = run("weights", "--scenario", bad, "--max-u", "8")
assert code == 1 and err.startswith("error: scenario field"), err
step("error")
for path in shipped:
    assert run("distributive", "--scenario", path)[0] == 0
step("distributive")
assert run("nevanlinna", "--scenario", shipped[0])[0] == 0
step("nevanlinna")
assert run("constants", "--scenario", shipped[0])[0] == 0
step("constants")
print(json.dumps(modules))
print(json.dumps(steps))
"""

# the smtlab modules that loading a scenario does not run
LAZY = ["nevanlinna", "position_geometry", "smt_verifier", "weights"]

# every public name resolves to its defining module's object, through
# getattr, dir and a star import; importing the package runs no submodule
EXPORTS_PROBE = r"""
import importlib, sys

import smtlab

assert not [name for name in sys.modules if name.startswith("smtlab.")]
for name in smtlab.__all__:
    value = getattr(smtlab, name)
    home = importlib.import_module("smtlab." + smtlab._EXPORTS[name])
    assert value is getattr(home, name) and value.__module__ == home.__name__
assert set(smtlab.__all__) <= set(dir(smtlab))
try:
    smtlab.no_such_name
except AttributeError as err:
    assert "no_such_name" in str(err)
else:
    raise AssertionError("an unknown name resolved")
star = {}
exec("from smtlab import *", star)
assert {name for name in star if name != "__builtins__"} == set(smtlab.__all__)
assert all(star[name] is getattr(smtlab, name) for name in smtlab.__all__)
print("ok")
"""


def _src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    return env


def test_libraries_load_on_first_numeric_use(tmp_path):
    shipped = [str(SCENARIOS / "line_three_points.json")] + sorted(
        str(p) for p in SCENARIOS.glob("*.json")
        if p.name != "line_three_points.json")
    data = json.loads((SCENARIOS / "conic_four_lines.json").read_text())
    data["grid"]["r_max"] = "10"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    done = subprocess.run([sys.executable, "-c", PROBE, str(bad), *shipped],
                          capture_output=True, text=True, env=_src_env(),
                          timeout=120)
    assert done.returncode == 0, done.stderr
    modules, steps = map(json.loads, done.stdout.splitlines()[-2:])
    assert steps == {
        "import": [False, False],
        "weights": [False, False],
        "error": [False, False],
        "distributive": [True, False],
        "nevanlinna": [True, False],
        "constants": [True, True],
    }
    # a report runs only the smtlab modules its command calls
    assert modules["load"] == LAZY
    assert modules["weights"] == LAZY[:3]
    assert modules["error"] == LAZY[:3]
    assert modules["distributive"] == ["nevanlinna", "smt_verifier"]
    assert modules["nevanlinna"] == ["smt_verifier"]
    assert modules["constants"] == []


def test_exports_resolve_to_their_defining_modules():
    done = subprocess.run([sys.executable, "-c", EXPORTS_PROBE],
                          capture_output=True, text=True, env=_src_env(),
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ok"]
