"""Sessions: a loaded scenario computes each quantity once, and reports
read in one process, in any order, equal those of fresh processes."""

import contextlib
import io
import os
import random
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from smtlab import (cli, hypersurfaces, nevanlinna, position_geometry,
                    smt_verifier)
from smtlab import scenario as scenario_mod

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))
CONIC = str(ROOT / "scenarios" / "conic_four_lines.json")
THREE_POINTS = str(ROOT / "scenarios" / "line_three_points.json")
ANALYTIC = ("nevanlinna", "fmt-check", "verify", "defects")


def in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def fresh_process(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-m", "smtlab.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    return done.returncode, done.stdout, done.stderr


@pytest.fixture
def counted(monkeypatch):
    """Calls of the session's expensive steps, by kind."""
    calls = Counter()
    radii = Counter()

    def wrap(owner, name, kind):
        inner = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[kind] += 1
            if kind == "kernel":
                radii.update(args[1])
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    wrap(nevanlinna, "circle_averages", "kernel")
    wrap(hypersurfaces.MovingHypersurface, "compose", "compose")
    wrap(nevanlinna, "_divisor_with_pad", "divisor")
    wrap(position_geometry, "distributive_constant", "distributive")
    return calls, radii


def test_analytic_reports_compute_once_per_session(counted):
    calls, radii = counted
    first = [in_process([c, "--scenario", CONIC]) for c in ANALYTIC]
    assert [code for code, _, _ in first] == [0, 0, 0, 0]
    grid = scenario_mod.load_scenario(CONIC).grid.values
    q = len(scenario_mod.load_scenario(CONIC).family)
    # Q_j(f) per target, and the conic's generator once (curve on V)
    composed = q + 1
    # one kernel call for T and one for the m rows of every target, each
    # over every grid radius once
    assert sorted(radii) == sorted(grid) and set(radii.values()) == {2}
    assert calls == Counter(kernel=2, compose=composed,
                            divisor=q, distributive=1)
    # the same reports again add nothing
    assert [in_process([c, "--scenario", CONIC]) for c in ANALYTIC] == first
    assert calls == Counter(kernel=2, compose=composed,
                            divisor=q, distributive=1)
    # another scenario drops the session; the first is then recomputed
    in_process(["verify", "--scenario", THREE_POINTS])
    calls.clear()
    radii.clear()
    assert [in_process([c, "--scenario", CONIC]) for c in ANALYTIC] == first
    assert calls == Counter(kernel=2, compose=composed,
                            divisor=q, distributive=1)
    # a --seed override starts a fresh session on every report
    for _ in range(2):
        calls.clear()
        in_process(["verify", "--scenario", CONIC, "--seed", "0"])
        # verify reads T, not the m rows
        assert calls == Counter(kernel=1, compose=composed,
                                divisor=q, distributive=1)


def test_curve_checked_once_for_both_reports(monkeypatch):
    calls = Counter()

    def wrap(name):
        inner = getattr(position_geometry, name)

        def counting(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(position_geometry, name, counting)

    wrap("check_curve_on_variety")
    wrap("check_nondegenerate")
    scenario_mod._forget()
    for command in ("verify", "defects", "verify"):
        assert in_process([command, "--scenario", CONIC])[0] == 0
    assert calls == Counter(check_curve_on_variety=1, check_nondegenerate=1)


def test_truncation_constants_once_per_scenario(monkeypatch):
    calls = Counter()

    def wrap(module, name):
        inner = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for name in ("constants_plane", "constants_moving", "constants_fixed",
                 "constants_theoremB"):
        wrap(smt_verifier, name)
    wrap(position_geometry, "distributive_constant")
    disc = str(ROOT / "scenarios" / "disc_model_growth.json")
    for path, variant in ((CONIC, "constants_plane"),
                          (disc, "constants_fixed")):
        scenario_mod._forget()
        calls.clear()
        for command in ("constants", "distributive", "verify", "defects",
                        "constants"):
            assert in_process([command, "--scenario", path])[0] == 0
        # one Delta_V scan serves every report
        assert calls == Counter({variant: 1, "constants_theoremB": 1,
                                 "distributive_constant": 1})


def test_reports_in_one_process_match_fresh_processes():
    jobs = [[command, "--scenario", str(path)]
            for path in SCENARIOS for command in cli._COMMANDS]
    with ThreadPoolExecutor(max_workers=2) as pool:
        fresh = dict(zip(map(tuple, jobs), pool.map(fresh_process, jobs)))
    rng = random.Random(10)
    # each scenario's reports back to back in a shuffled order, then all
    # reports shuffled together
    grouped = []
    for k in range(0, len(jobs), len(cli._COMMANDS)):
        group = jobs[k:k + len(cli._COMMANDS)]
        rng.shuffle(group)
        grouped.extend(group)
    shuffled = rng.sample(jobs, len(jobs))
    for order in (jobs, grouped, shuffled):
        scenario_mod._forget()
        for argv in order:
            assert in_process(argv) == fresh[tuple(argv)], argv
