"""Cold start: a fresh process loads numpy and mpmath only once a report
evaluates with them; the subset scan of ``distributive`` loads numpy but
not mpmath.

``numpy.linalg`` and ``mpmath.libmp`` enter ``sys.modules`` only when the
library's body runs (on numpy 1.x and 2.x alike), so they tell a loaded
library from one merely bound for later.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

# argv: a malformed scenario, then the shipped scenarios; prints
# {step: [numpy loaded, mpmath loaded]} after each step
PROBE = r"""
import contextlib, io, json, sys

from smtlab import cli
from smtlab.scenario import load_scenario

def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, err.getvalue()

def loaded():
    return ["numpy.linalg" in sys.modules, "mpmath.libmp" in sys.modules]

bad, shipped = sys.argv[1], sys.argv[2:]
steps = {"import": loaded()}
for path in shipped:
    load_scenario(path)
    assert run("weights", "--scenario", path, "--max-u", "8") == (0, "")
steps["weights"] = loaded()
code, err = run("weights", "--scenario", bad, "--max-u", "8")
assert code == 1 and err.startswith("error: scenario field"), err
steps["error"] = loaded()
for path in shipped:
    assert run("distributive", "--scenario", path)[0] == 0
steps["distributive"] = loaded()
assert run("nevanlinna", "--scenario", shipped[0])[0] == 0
steps["nevanlinna"] = loaded()
assert run("constants", "--scenario", shipped[0])[0] == 0
steps["constants"] = loaded()
print(json.dumps(steps))
"""


def test_libraries_load_on_first_numeric_use(tmp_path):
    shipped = [str(SCENARIOS / "line_three_points.json")] + sorted(
        str(p) for p in SCENARIOS.glob("*.json")
        if p.name != "line_three_points.json")
    data = json.loads((SCENARIOS / "conic_four_lines.json").read_text())
    data["grid"]["r_max"] = "10"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", PROBE, str(bad), *shipped],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    steps = json.loads(done.stdout.splitlines()[-1])
    assert steps == {
        "import": [False, False],
        "weights": [False, False],
        "error": [False, False],
        "distributive": [True, False],
        "nevanlinna": [True, False],
        "constants": [True, True],
    }
