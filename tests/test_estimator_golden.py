"""Pinned estimator counts for every registry model.

Streams are keyed by (seed, n, block).  Where a (law, n) has at most
``TABLE_MAX_VECTORS`` hull count vectors, a block is one multinomial draw
over the exact law of one trial's event cell: the multinomial
probabilities of every count vector, summed per cell.  Every n of this
plan is tabled for every registry model, so ``MULTINOMIAL_SHA256`` pins
two (model, n) whose laws are too large for a table; those draw their
hull counts by the binomial split tree, whose root is one multinomial
over a window of its binomial pmf.  All values were last re-recorded when
blocks and the tree's root became multinomial draws, after the cell law's
fractions test, its block-histogram z-test, the root replay and the
two-path law test passed; the tally and the ``>=`` / ``<`` / ``<=``
operators did not change.  The plan runs two blocks per n (the second
one partial) on a dense 0.25 alpha grid; ``coin`` and ``two_interval``
put T_low and T_up on a 0.5 lattice at n = 4 and 16, so many trials land
exactly on a grid threshold and the operators decide them.
"""

import hashlib
import math

import pytest

from beliefclt import MODEL_REGISTRY, SimPlan, estimate_events, moments_by_enumeration
from beliefclt import montecarlo
from beliefclt.montecarlo import ONE_SIDED_LOWER, ONE_SIDED_UPPER, default_alpha_pairs

DENSE_GRID = tuple(-2.5 + 0.25 * i for i in range(21))

GOLDEN_SHA256 = {
    "bernoulli": "d17450dec57be068ee0295f12e6e02120d5a4f8cff630a08e29d01902880ff5d",
    "coin": "d5921b2657bda17b8d2ce15568f58fbc8d454c9aee794bd67abc80313daffa82",
    "two_interval": "d5921b2657bda17b8d2ce15568f58fbc8d454c9aee794bd67abc80313daffa82",
    "union_parts": "f8ce50f5d791b5524531f0754a2af142c86fd0785ffb45a4b4f9e73f0ae18d2a",
    "mixed": "124af4270a3052b0d07fca98543ec5e328c8276ccdbb4c3e0846b6bf61013160",
}

# (model, n) drawn by the split tree: 525825 and 2862209 count vectors
MULTINOMIAL_SHA256 = {
    ("bernoulli", 1024): "598053da798202447c54f2aedfc57ede22a8ce8b2ad404ddc4903e389f8d7179",
    ("mixed", 256): "b80279ca4b1f2b08d9a26dfd769197930dcf57cc3ff5911ccc8312764507c0e4",
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
