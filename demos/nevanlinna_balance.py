"""
The first main balance: d T = m + N + O(1)
==========================================

For a fixed target the sum of proximity and counting differs from the
scaled characteristic by a constant.  Watching that residual stay flat
across two decades of radius is the cheapest end-to-end check of the
quadrature, the zero counting, and the bookkeeping all at once.
"""

import math

from smtlab import Curve, RadialGrid, characteristic, fmt_residual
from smtlab.functions import AnalyticFunction, Poly1
from smtlab.exact_algebra import Monomial
from smtlab.hypersurfaces import MovingHypersurface
from smtlab.scalars import GaussianRational as GR


def fn(*coeffs):
    return AnalyticFunction.from_poly(Poly1(list(coeffs)))


curve = Curve((fn(1), fn(0, 1)))            # z -> (1 : z)
grid = RadialGrid.geometric(2.0, 200.0, 10, r0=0.25)

# the characteristic of (1, z) has the closed form log sqrt(1 + r^2)
for r in (2.0, 20.0, 200.0):
    T = characteristic(curve, r)
    print(f"T({r:6.1f}) = {T:.9f}   closed form {0.5 * math.log1p(r*r):.9f}")

# target x0 + x1, i.e. the point -1; the residual column is constant
one = AnalyticFunction.constant(GR(1))
form = MovingHypersurface(2, 1, {Monomial((1, 0)): one,
                                 Monomial((0, 1)): one})
residuals, spread = fmt_residual(curve, form, grid)
print(f"residual[0] = {residuals[0]:.9f}  expected {-0.5 * math.log(2):.9f}")
print(f"spread over the grid = {spread:.2e}")
