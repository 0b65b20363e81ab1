"""End-to-end verification: empirical frequencies against the normal limits.

Each report row compares one event's empirical frequency with its limit
value under the tolerance 3*SE + slack/sqrt(n); the max deviation per n
then feeds a log-log fit whose slope should sit near -1/2.
"""

import tempfile
from pathlib import Path

from beliefclt import (
    MODEL_REGISTRY,
    SimPlan,
    estimate_events,
    fit_rate,
    moments_by_enumeration,
    one_sided_report,
    save_plan,
    special_cases_report,
    two_sided_report,
)

model = MODEL_REGISTRY["bernoulli"]()
moments = moments_by_enumeration(model)
plan = SimPlan(model, n_values=(16, 64, 256, 1024, 4096), reps=200_000, seed=3)

sim = estimate_events(plan, moments)
one = one_sided_report(sim, plan)
two = two_sided_report(sim, moments, plan)

print(f"one-sided: {sum(r.passed for r in one.rows)}/{len(one.rows)} rows pass")
print(f"two-sided: {sum(r.passed for r in two.rows)}/{len(two.rows)} rows pass")

print("\nmax two-sided deviation by n (should shrink like 1/sqrt(n)):")
for n, dev in two.rate.max_deviation:
    print(f"  n={n:>5}: {dev:.5f}")
fit = fit_rate(two)
if fit.insufficient_signal:
    print("not enough points above the noise floor for a rate fit")
else:
    print(f"fitted slope {fit.slope:.3f}, K_hat {fit.k_hat:.3f} "
          f"(window [-0.75, -0.25]: {fit.slope_in_window})")

# Closed-form checks that need no simulation at all.
special = special_cases_report()
print(f"\nspecial cases: {sum(r.passed for r in special.rows)}/{len(special.rows)}"
      " pass (Bernoulli moments, additive degeneration, bound invariance)")

# The same experiment is scriptable through files and the CLI:
with tempfile.TemporaryDirectory() as tmp:
    save_plan(plan, Path(tmp) / "bern.plan", Path(tmp) / "bern.model")
    print("\nplan file grammar:")
    print((Path(tmp) / "bern.plan").read_text())
print("run it with: beliefclt verify-two-sided bern.plan --out-dir results/")
