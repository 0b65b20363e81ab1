"""Pinned estimator counts for every registry model.

The values were re-recorded when the estimator changed how it draws a
block: streams are keyed by (seed, n, block) instead of the position of n
in the plan, and where a (law, n) has at most ``TABLE_MAX_VECTORS`` hull
count vectors the block draws them by inversion from a table of every
vector (sorted uniforms counted per table entry) instead of numpy's
multinomial.  Merging the table's consecutive vectors of one cell into
runs, and counting the uniforms per run rather than per row, left every
count unchanged.  Every n of this plan is tabled for every registry model, so
``MULTINOMIAL_SHA256`` pins two (model, n) whose laws are too large for a
table.  Those two were re-recorded once more when the untabled draw
moved from numpy's multinomial to the binomial split tree, after the
tree's root cdf, replay and law tests passed.  All were recorded only
after the table's pmf, size rule and two-path law tests passed; the tally
and the ``>=`` / ``<`` / ``<=`` operators did not change.  The plan runs
two blocks per n (the second one partial) on a
dense 0.25 alpha grid; ``coin`` and ``two_interval`` put T_low and T_up on
a 0.5 lattice at n = 4 and 16, so many trials land exactly on a grid
threshold and the operators decide them.
"""

import hashlib
import math

import pytest

from beliefclt import MODEL_REGISTRY, SimPlan, estimate_events, moments_by_enumeration
from beliefclt import montecarlo
from beliefclt.montecarlo import ONE_SIDED_LOWER, ONE_SIDED_UPPER, default_alpha_pairs

DENSE_GRID = tuple(-2.5 + 0.25 * i for i in range(21))

GOLDEN_SHA256 = {
    "bernoulli": "d0120c1543f738dc6173128310b7391444fcc3d3fe82628f760bdd64527d9fa2",
    "coin": "181316c2ab1351fa8a2e66f0d3c06f538fb40ba0c5db2a9b97fa18452b823898",
    "two_interval": "181316c2ab1351fa8a2e66f0d3c06f538fb40ba0c5db2a9b97fa18452b823898",
    "union_parts": "4741860ecf939dc97caf2b9b37f2d18ba918b144ca92c7d31b073dd133c564a6",
    "mixed": "6a5b8fd79d6c0b2c405dd0ea1e422c93b5a26c5fa2ea600c03d15c0fcc12e299",
}

# (model, n) drawn by the split tree: 525825 and 2862209 count vectors
MULTINOMIAL_SHA256 = {
    ("bernoulli", 1024): "d75cda6e2070297200d8df180aec5e1c4fc22f8168a82caa1aa98d86c0c7cf98",
    ("mixed", 256): "c3138963c9dd00fba25657d653f5af0efd72f5819801807a2d8e30ac071b6d1a",
}

# n = 16 one-sided counts along DENSE_GRID, spelled out for readable diffs
GOLDEN_N16 = {
    ("bernoulli", ONE_SIDED_LOWER): [
        19947, 19947, 19486, 19486, 18031, 18031, 18031, 15098, 15098, 11012, 11012,
        6837, 6837, 3526, 3526, 1459, 1459, 504, 504, 504, 153],
    ("bernoulli", ONE_SIDED_UPPER): [
        146, 521, 521, 521, 1503, 1503, 3465, 3465, 6875, 6875, 11061, 11061,
        15091, 15091, 18023, 18023, 18023, 19472, 19472, 19932, 19932],
    ("coin", ONE_SIDED_LOWER): [
        19960, 19790, 19790, 19236, 19236, 17894, 17894, 15412, 15412, 11949, 11949,
        8004, 8004, 4534, 4534, 2083, 2083, 755, 755, 184, 184],
    ("coin", ONE_SIDED_UPPER): [
        40, 210, 210, 764, 764, 2106, 2106, 4588, 4588, 8051, 8051, 11996, 11996,
        15466, 15466, 17917, 17917, 19245, 19245, 19816, 19816],
}


def _golden_run(name, n_values=(1, 4, 16)):
    model = MODEL_REGISTRY[name]()
    plan = SimPlan(model, n_values=n_values, reps=20_000, seed=2026,
                   alpha_one_sided=DENSE_GRID,
                   alpha_two_sided=default_alpha_pairs(DENSE_GRID))
    return estimate_events(plan, moments_by_enumeration(model), workers=1)


def _digest(sim):
    key = repr([(r.n, r.kind, r.alpha1, r.alpha2, r.count) for r in sim.rows])
    return hashlib.sha256(key.encode()).hexdigest()


def test_golden_table_covers_registry():
    assert set(GOLDEN_SHA256) == set(MODEL_REGISTRY)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_counts_match_golden(name):
    sim = _golden_run(name)
    assert len(sim.rows) == 3 * (2 * len(DENSE_GRID) + len(default_alpha_pairs(DENSE_GRID)))
    for (model, kind), counts in GOLDEN_N16.items():
        if model == name:
            assert [r.count for r in sim.rows_for(16, kind)] == counts
    assert _digest(sim) == GOLDEN_SHA256[name]


@pytest.mark.parametrize("name, n", sorted(MULTINOMIAL_SHA256))
def test_multinomial_path_counts_match_golden(name, n):
    k = len(montecarlo.MinMaxLaw.from_model(MODEL_REGISTRY[name]()).masses)
    assert math.comb(n + k - 1, k - 1) > montecarlo.TABLE_MAX_VECTORS
    assert _digest(_golden_run(name, (n,))) == MULTINOMIAL_SHA256[name, n]
