"""
Running a full scenario
=======================

A scenario file pins down the variety, the curve, the target family,
epsilon, and the radial grid.  One call evaluates both sides of the
applicable inequality on every circle; a second one, on the same loaded
scenario, sums truncated defects against their explicit bound.  The
loaded scenario is a session: the second call reuses the distributive
constant, T on the grid and the divisors of Q_j(f) the first one
computed.  The same reports are available from the command line as
`smtlab verify` and `smtlab defects`.
"""

from pathlib import Path

from smtlab import defect_relation_report, load_scenario, verify_main_inequality

here = Path(__file__).resolve().parent.parent / "scenarios"

scenario = load_scenario(str(here / "conic_four_lines.json"))
report = verify_main_inequality(scenario)

c = report.constants
print(f"variant {c.variant}: u = {c.u}, L = {c.L}, "
      f"Delta = {c.delta_V}, epsilon = {c.epsilon}")
for flag in report.flags:
    print("note:", flag)

print(f"{'r':>10} {'lhs':>10} {'rhs':>10} {'margin':>10}")
for r, lhs, rhs, margin in report.rows[::8]:
    print(f"{r:10.2f} {lhs:10.4f} {rhs:10.4f} {margin:10.4f}")
print("falsified:", report.falsified)

# the defect side of the same story, from the same session; a grid only
# samples the limit, and at finite r the first main theorem's bounded term
# can lift N above d T, so a truncated defect may read slightly negative
defects = defect_relation_report(scenario)
print(f"\ndefect sum {defects.total:.4f} <= bound {defects.bound}"
      f"  holds: {defects.holds}")
for j, value in defects.defects:
    print(f"  target {j}: truncated defect {value:.4f}")
