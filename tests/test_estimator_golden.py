"""Pinned estimator counts for every registry model.

Streams are keyed by (seed, n, block).  Where a (law, n) is tabled
(``is_tabled``: on the law's lattice, with at most ``TABLE_MAX_VECTORS``
prefixes and window entries), a block is one multinomial draw over the law
of one trial's event cell: the windowed count vectors of every split of
the binomial tree but the last, each a product of windowed binomial pmfs,
with the last split summed in closed form between the thresholds it
crosses.  Every n of this plan is tabled for every registry model.
``MULTINOMIAL_SHA256`` pins four (model, n) past it: ``bernoulli`` at
n = 1024 and ``mixed`` at n = 256, drawn from their tables, and two whose
tables would be too large, which draw their hull counts by the binomial
split tree, its root one multinomial over a window of its binomial pmf.
``mixed`` at n = 256 was re-recorded and ``mixed`` at n = 4096 added when
the last split was summed in closed form, after the closed form matched
the full windowed enumeration, the fractions test and the binomial-tail
tests; no other pin moved then.  The ``coin`` and ``two_interval`` pins
were last re-recorded when the tables kept to the windows (only n = 4
moved, by one trial in some cells); the others when blocks and the tree's
root became multinomial draws.  The tally and the ``>=`` / ``<`` / ``<=``
operators did not change.  The plan runs two blocks per n (the second one
partial) on a dense 0.25 alpha grid; ``coin`` and ``two_interval`` put
T_low and T_up on a 0.5 lattice at n = 4 and 16, so many trials land
exactly on a grid threshold and the operators decide them.
"""

import hashlib

import pytest

from beliefclt import MODEL_REGISTRY, SimPlan, estimate_events, moments_by_enumeration
from beliefclt import montecarlo
from beliefclt.montecarlo import ONE_SIDED_LOWER, ONE_SIDED_UPPER, default_alpha_pairs

DENSE_GRID = tuple(-2.5 + 0.25 * i for i in range(21))

GOLDEN_SHA256 = {
    "bernoulli": "d17450dec57be068ee0295f12e6e02120d5a4f8cff630a08e29d01902880ff5d",
    "coin": "26e28ea14c66cf8a74707fb408c9cd9d06218190ccd63e35de123397cbd626df",
    "two_interval": "26e28ea14c66cf8a74707fb408c9cd9d06218190ccd63e35de123397cbd626df",
    "union_parts": "f8ce50f5d791b5524531f0754a2af142c86fd0785ffb45a4b4f9e73f0ae18d2a",
    "mixed": "124af4270a3052b0d07fca98543ec5e328c8276ccdbb4c3e0846b6bf61013160",
}

# (model, n) past the plan's, as (prefixes, window entries): drawn from their
# tables, bernoulli at 1024 (359, 118583) and mixed at 256 (31476, 22999);
# by the split tree, bernoulli at 4096 (653, 388965) and mixed
# at 4096 (389025, 325677)
TABLED = {("bernoulli", 1024), ("mixed", 256)}
MULTINOMIAL_SHA256 = {
    ("bernoulli", 1024): "58ee6e82461c8cc2f0c28d68c277dfdcc594aa96782606428529d80dad0ab2c5",
    ("bernoulli", 4096): "9cc7981900b9d4a4ffc55220c8e8e678304a5e47ff0520ba262e145739bf58f1",
    ("mixed", 256): "1b40b0039a7167cbd1c833d31cc1c3ca0f5f3dcae8b63b63f7f3dea5d8b6c37e",
    ("mixed", 4096): "1b1bb45be510e45b7bfff2b1d3c35dab5fe0c40bf73d9f83fa719a975a4226a9",
}

# n = 16 one-sided counts along DENSE_GRID, spelled out for readable diffs
GOLDEN_N16 = {
    ("bernoulli", ONE_SIDED_LOWER): [
        19930, 19930, 19466, 19466, 17981, 17981, 17981, 15007, 15007, 11018, 11018,
        6832, 6832, 3518, 3518, 1478, 1478, 513, 513, 513, 157],
    ("bernoulli", ONE_SIDED_UPPER): [
        145, 543, 543, 543, 1519, 1519, 3537, 3537, 6872, 6872, 11071, 11071,
        15121, 15121, 18017, 18017, 18017, 19499, 19499, 19946, 19946],
    ("coin", ONE_SIDED_LOWER): [
        19963, 19776, 19776, 19235, 19235, 17901, 17901, 15470, 15470, 11971, 11971,
        8121, 8121, 4582, 4582, 2090, 2090, 748, 748, 212, 212],
    ("coin", ONE_SIDED_UPPER): [
        37, 224, 224, 765, 765, 2099, 2099, 4530, 4530, 8029, 8029, 11879, 11879,
        15418, 15418, 17910, 17910, 19252, 19252, 19788, 19788],
}


def _golden_run(name, n_values=(1, 4, 16)):
    model = MODEL_REGISTRY[name]
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
    law = montecarlo.MinMaxLaw.from_model(MODEL_REGISTRY[name])
    assert montecarlo.is_tabled(law, n) == ((name, n) in TABLED)
    assert _digest(_golden_run(name, (n,))) == MULTINOMIAL_SHA256[name, n]
