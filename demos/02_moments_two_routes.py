"""The seven limit parameters, computed two independent ways.

The normal limits of belief sums are driven by the moments of the focal
minimum Z and maximum Z-bar: their means, standard deviations, the cross
moment E[Z Z-bar], the auxiliary double integral rho', and the correlation
rho.  Both routes read the same discrete (min, max, mass) law, in which
focal elements sharing a hull are merged.  Route one sums its moments
directly; route two integrates the survival functions and interval
beliefs that the law induces over the bounding box [-M, M], where the
bound M enters every formula.  Both sum in exact rationals and round at
the end, so they agree to the bit: every gap below prints as 0.
"""

from dataclasses import asdict

from beliefclt import (
    MODEL_REGISTRY,
    moments_by_enumeration,
    moments_by_integration,
    rho_M_invariance,
)

for name in ("bernoulli", "two_interval", "mixed"):
    model = MODEL_REGISTRY[name]
    enum = asdict(moments_by_enumeration(model))
    integ = asdict(moments_by_integration(model))
    print(f"\n{name} (M = {model.bound}):")
    for field, e in enum.items():
        print(f"  {field:>12}  enum {e: .15f}   integration gap {abs(e - integ[field]):.1e}")

# The declared bound M appears inside the integration route's formulas,
# yet rho cannot depend on it: enlarging the box shifts both integrals in
# ways that cancel.
model = MODEL_REGISTRY["mixed"]
r_m, r_m2 = rho_M_invariance(model, model.bound + 1.0)
print(f"\nrho at M={model.bound}: {r_m:.15f}")
print(f"rho at M={model.bound + 1.0}: {r_m2:.15f}")

# Moments transform predictably: shifting a model moves the means only,
# scaling multiplies means and spreads, and rho never budges.
base = moments_by_enumeration(model)
shifted = moments_by_enumeration(model.shifted(2.0))
scaled = moments_by_enumeration(model.scaled(3.0))
print("\nshift by 2: lower mean", base.lower_mean, "->", shifted.lower_mean,
      "| sd gap:", abs(shifted.lower_sd - base.lower_sd))
print("scale by 3: lower sd", base.lower_sd, "->", scaled.lower_sd,
      "| rho gap:", abs(scaled.rho - base.rho))
