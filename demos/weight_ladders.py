"""
Hilbert and Chow weights
========================

S_X(u, c) is a maximum over monomial bases of the degree-u coordinate
ring; the standard monomials of the initial ideal in the c-weighted
order attain it exactly.  The Hilbert numerator of that initial ideal
gives S_X(u, c) in closed form, and with it the Chow weight as an exact
rational; the normalized sequence s_u converges to it, and the printed
margin checks the weight inequality that feeds every truncation bound
downstream.
"""

from smtlab import Ideal, Variety, chow_weight_estimate, hilbert_weight
from smtlab.exact_algebra import WeightVector, parse_homog_poly
from smtlab.weights import check_evertse_ferretti

conic = Variety(Ideal(3, [parse_homog_poly("x0*x2 - x1^2", 3)]))
c = WeightVector([1, 0, 0])

# exact values of S at small u; these are rational numbers, no rounding
for u in (2, 3, 4):
    res = hilbert_weight(conic, u, c)
    print(f"S_conic({u}, {list(c)}) = {res.value}")

# the normalized ladder s_u = (k+1) delta S / (u H); for this conic and
# weight the closed form is 4u/(2u+1), visible in the printed tail
est = chow_weight_estimate(conic, c, u_max=40)
for u, s in est.sequence[-4:]:
    print(f"s_{u} = {s:.6f}")
print(f"Chow weight e_X(c) = {est.value}, exact; the ladder tends to it")

margin = check_evertse_ferretti(conic, 40, c, est)
print(f"weight inequality margin at u=40: {margin:.4f}  (>= 0 expected)")
