"""Reproducible simulation of the product belief measure.

Event probabilities under the i.i.d. product measure reduce to ordinary
probabilities of the per-coordinate min-sums and max-sums, so a trial just
draws the (min, max) hulls of n focal elements from the mass law.  The
estimator splits the trials of each n into blocks whose random streams
are a pure function of (seed, n, block), which makes results bit-identical
at any worker count and whatever other n the plan holds.
"""

from beliefclt import (
    MODEL_REGISTRY,
    SimPlan,
    estimate_events,
    moments_by_enumeration,
)

model = MODEL_REGISTRY["bernoulli"]()
moments = moments_by_enumeration(model)

# A plan bundles the experiment grid; the estimator tallies three event
# families per n: {T_low >= a}, {T_up < a}, and {a1 <= T_low, T_up <= a2}.
plan = SimPlan(model, n_values=(16, 256), reps=100_000, seed=7,
               alpha_one_sided=(-1.0, 0.0, 1.0),
               alpha_two_sided=((-1.0, 1.0),))
sim = estimate_events(plan, moments)
print(f"run {sim.run_id}: {len(sim.rows)} event frequencies")
for row in sim.rows_for(256):
    a = f"({row.alpha1:+.1f}, {row.alpha2:+.1f})" if row.kind == "two_sided" \
        else f"{row.alpha1:+.1f}"
    print(f"  n=256 {row.kind:>16} alpha={a:>12}: {row.frequency:.5f}"
          f"  (se {row.se:.1e})")

# Worker count changes scheduling, never results.
one = estimate_events(plan, moments, workers=1)
three = estimate_events(plan, moments, workers=3)
print("\nworkers=1 and workers=3 agree bit for bit:", one == three)

# The same (seed, n) draws the same trials whatever else the plan holds.
alone = estimate_events(SimPlan(model, n_values=(256,), reps=100_000, seed=7,
                                alpha_one_sided=(-1.0, 0.0, 1.0),
                                alpha_two_sided=((-1.0, 1.0),)), moments)
print("n=256 rows without n=16 in the plan are unchanged:",
      alone.rows_for(256) == sim.rows_for(256))

# A new seed draws new trials; frequencies move within Monte Carlo noise.
other = estimate_events(SimPlan(model, n_values=(256,), reps=100_000, seed=8,
                                alpha_one_sided=(0.0,), alpha_two_sided=()), moments)
a, b = sim.rows_for(256, "one_sided_lower")[1], other.rows_for(256, "one_sided_lower")[0]
print(f"P(T_low >= 0) at n=256, seed 7 vs 8: {a.frequency:.5f} vs {b.frequency:.5f}")
