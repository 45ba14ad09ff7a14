"""Zeros in discs, counted two independent ways.

Polynomial inputs factor exactly; everything else goes through contour
moments: trapezoid sums of z^p f'/f on a circle give the power sums of
the zeros inside, whose polynomial's roots are then polished by Newton's
method and confirmed by windings (numerical checks, not certificates).
The two paths are compared on the same function along the way.
"""

import math

from smtlab import AnalyticFunction, RadialGrid, counting, zeros_in_disc
from smtlab.analytic import Poly1
from smtlab.scalars import GaussianRational as GR

# e^z - 1 vanishes at 2 pi i k; three of those lie in |z| <= 7
f = AnalyticFunction.exppoly({GR(1): Poly1([1])}) + \
    AnalyticFunction.from_poly(Poly1([-1]))
div = zeros_in_disc(f, 7.0)
for z, m in div.points:
    print(f"zero at {z:.8f}  multiplicity {m}")

# a polynomial with a double root: both routes must agree
g = AnalyticFunction.from_poly(Poly1([GR(1), GR(-2), GR(1)]))  # (z-1)^2
alg = zeros_in_disc(g, 2.0)
win = zeros_in_disc(g, 2.0, force_winding=True)
print("factored:", alg.points)
print("winding :", win.points)

# the counting function integrates the zero counter logarithmically;
# for (z-1)^2 it is exactly 2 log(r) once r clears the root
grid = RadialGrid.geometric(2.0, 64.0, 6, r0=0.5)
N = counting(zeros_in_disc(g, 100.0), grid)
for r, v in zip(grid.values, N):
    print(f"N({r:7.2f}) = {v:.6f}   2 log r = {2 * math.log(r):.6f}")
