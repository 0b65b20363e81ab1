"""The Gaussian targets the experiments converge to.

One-sided events converge to ordinary normal tail probabilities.
Two-sided events converge to a bivariate normal rectangle probability
N2(-alpha1, alpha2; -rho) whose correlation couples the lower and upper
statistics.  When the model is additive the two statistics coincide,
rho = 1, and the target collapses to the classical Phi(a2) - Phi(a1).
"""

import math
from statistics import NormalDist

from beliefclt import bvn_cdf, std_normal_cdf, two_sided_limit

print("Phi(0)     =", std_normal_cdf(0.0))
print("Phi(1.96)  =", std_normal_cdf(1.959963984540054))
print("quantile(0.975) =", NormalDist().inv_cdf(0.975), "(statistics.NormalDist)")

# Closed forms pin the bivariate CDF down at special correlations.
print("\nbvn_cdf(0, 0, rho) against 1/4 + asin(rho)/(2 pi):")
for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
    closed = 0.25 + math.asin(rho) / (2 * math.pi)
    print(f"  rho={rho:+.1f}: {bvn_cdf(0, 0, rho):.15f}  (closed {closed:.15f})")

print("\nindependence: bvn_cdf(a, b, 0) = Phi(a) Phi(b)")
a, b = 0.7, -0.4
print(f"  {bvn_cdf(a, b, 0.0):.15f} vs {std_normal_cdf(a) * std_normal_cdf(b):.15f}")

# The two-sided limit as a function of the coupling.  With strong coupling
# T_low below the window and T_up above it rarely happen together, so the
# two failures add up; weaker coupling (smaller rho) lets them coincide, and
# the probability rises from Phi(1) - Phi(-1) at rho = 1 to Phi(1)^2 at 0.
print("\ntwo_sided_limit(-1, 1, rho):")
for rho in (0.0, 3 / 7, 0.8, 1.0):
    print(f"  rho={rho:.3f}: {two_sided_limit(-1.0, 1.0, rho):.12f}")
classical = std_normal_cdf(1.0) - std_normal_cdf(-1.0)
print(f"  classical Phi(1) - Phi(-1) = {classical:.12f}  (the rho=1 row)")
print(f"  independent Phi(1)^2       = {std_normal_cdf(1.0) ** 2:.12f}  (the rho=0 row)")
