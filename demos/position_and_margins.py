"""Distributive constants and a large-radius margin check.

The distributive constant measures how hard a family leans on the
variety; three concurrent lines are genuinely worse than three generic
ones, and the number on the left side of the main inequality knows it.
Only the subsets that meet the variety are listed, so 24 general lines
list 300 subsets, not 2^24 - 1.
The second half drives a classical margin to radius 1000.
"""

from smtlab import Curve, RadialGrid, check_ru_sibony, distributive_constant
from smtlab.functions import AnalyticFunction, Poly1
from smtlab.groebner import Ideal, Variety
from smtlab.hypersurfaces import HypersurfaceFamily, MovingHypersurface
from smtlab.exact_algebra import parse_homog_poly


def lines(num_vars, *texts):
    forms = []
    for text in texts:
        poly = parse_homog_poly(text, num_vars)
        coeffs = {m: AnalyticFunction.constant(c)
                  for m, c in poly.terms.items()}
        forms.append(MovingHypersurface(num_vars, 1, coeffs))
    return HypersurfaceFamily(forms)


P2 = Variety(Ideal(3, []))

for label, fam in (("generic", lines(3, "x0", "x1", "x0 + x1 + x2")),
                   ("concurrent", lines(3, "x0", "x1", "x0 + x1"))):
    rep = distributive_constant(P2, fam)
    print(f"{label:10s} Delta = {rep.value}   witness subset {rep.witness}")

# 24 lines x0 + k x1 + k^2 x2, no three through one point: only the lines
# and their 276 pairs meet P^2, and only those subsets are listed
many = lines(3, *(f"x0 + {k}*x1 + {k * k}*x2" for k in range(1, 25)))
rep = distributive_constant(P2, many)
print(f"24 lines   Delta = {rep.value}   {len(rep.table)} listed subsets")

# the parabola against four generic lines: margin stays positive in r
curve = Curve((AnalyticFunction.from_poly(Poly1([1])),
               AnalyticFunction.from_poly(Poly1([0, 1])),
               AnalyticFunction.from_poly(Poly1([0, 0, 1]))))
fam = lines(3, "x0 + x1 + x2", "x0 - x1 + x2", "x0 + x1 - x2",
            "x0 + 2*x1 + 3*x2")
grid = RadialGrid.geometric(10.0, 1000.0, 5, r0=1.0)
for r, margin, T in check_ru_sibony(curve, fam, grid):
    print(f"r = {r:7.1f}   margin/T = {margin / T:8.4f}")
