"""The exact reports of the shipped scenarios, byte for byte.

``tests/golden`` holds the ``constants``, ``distributive`` and ``weights``
reports (JSON and CSV) of every file in ``scenarios/``.  None of them
involves float quadrature: their numbers come from exact Q(i) algebra,
interval-certified constants and floats rounded once from exact values,
so any change in their bytes is a change in what the program computes.
CI runs this file under two PYTHONHASHSEED values, so the bytes cannot
depend on set or dict order either.
"""

from pathlib import Path

import pytest

from smtlab import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASES = [(scenario, command, fmt)
         for scenario in sorted((ROOT / "scenarios").glob("*.json"))
         for command in ("constants", "distributive", "weights")
         for fmt in ("json", "csv")]


@pytest.mark.parametrize("scenario, command, fmt", CASES,
                         ids=[f"{s.stem}-{c}-{f}" for s, c, f in CASES])
def test_report_matches_golden(tmp_path, scenario, command, fmt):
    out = tmp_path / f"report.{fmt}"
    code = cli.main([command, "--scenario", str(scenario), "--format", fmt,
                     "--output", str(out)])
    assert code == 0
    golden = GOLDEN / f"{scenario.stem}.{command}.{fmt}"
    assert out.read_bytes() == golden.read_bytes()


def test_every_golden_file_is_checked():
    expected = {f"{s.stem}.{c}.{f}" for s, c, f in CASES}
    assert {p.name for p in GOLDEN.iterdir()} == expected
