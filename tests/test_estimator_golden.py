"""Pinned estimator counts for every registry model.

The values were recorded before the estimator drew from the merged
(min, max) law and tallied through threshold buckets.  No registry model
has two focal elements sharing a hull, so both changes must leave these
counts, and hence the report CSVs, exactly as they were.  The plan runs
two blocks per n (the second one partial) on a dense 0.25 alpha grid;
``coin`` and ``two_interval`` put T_low and T_up on a 0.5 lattice at
n = 4 and 16, so many trials land exactly on a grid threshold and the
``>=`` / ``<`` / ``<=`` operators decide them.
"""

import hashlib

import pytest

from beliefclt import MODEL_REGISTRY, SimPlan, estimate_events, moments_by_enumeration
from beliefclt.montecarlo import ONE_SIDED_LOWER, ONE_SIDED_UPPER, default_alpha_pairs

DENSE_GRID = tuple(-2.5 + 0.25 * i for i in range(21))

GOLDEN_SHA256 = {
    "bernoulli": "ababb63c69d2e9812c83ba266f771fdffb9c77668770f49184f56634bd936761",
    "coin": "98a58dea7217178bee49d75f29d87b97b4008fe83a88143194a716504df6ff30",
    "two_interval": "98a58dea7217178bee49d75f29d87b97b4008fe83a88143194a716504df6ff30",
    "union_parts": "42268df8c573b9bdb5b3ee4488c4d2a2db8ac72d89bc3aafe4901462e1120cd7",
    "mixed": "52f27990298f781a7d394dc2e482ded01ac73163afe941cda6b611a200a5560c",
}

# n = 16 one-sided counts along DENSE_GRID, spelled out for readable diffs
GOLDEN_N16 = {
    ("bernoulli", ONE_SIDED_LOWER): [
        19926, 19926, 19455, 19455, 18000, 18000, 18000, 15043, 15043, 10957, 10957,
        6763, 6763, 3449, 3449, 1432, 1432, 523, 523, 523, 144],
    ("bernoulli", ONE_SIDED_UPPER): [
        133, 509, 509, 509, 1529, 1529, 3579, 3579, 6846, 6846, 10961, 10961,
        15073, 15073, 17994, 17994, 17994, 19478, 19478, 19935, 19935],
    ("coin", ONE_SIDED_LOWER): [
        19950, 19764, 19764, 19243, 19243, 17935, 17935, 15402, 15402, 11967, 11967,
        8018, 8018, 4529, 4529, 2071, 2071, 775, 775, 210, 210],
    ("coin", ONE_SIDED_UPPER): [
        50, 236, 236, 757, 757, 2065, 2065, 4598, 4598, 8033, 8033, 11982, 11982,
        15471, 15471, 17929, 17929, 19225, 19225, 19790, 19790],
}


def _golden_run(name):
    model = MODEL_REGISTRY[name]()
    plan = SimPlan(model, n_values=(1, 4, 16), reps=20_000, seed=2026,
                   alpha_one_sided=DENSE_GRID,
                   alpha_two_sided=default_alpha_pairs(DENSE_GRID))
    return estimate_events(plan, moments_by_enumeration(model), workers=1)


def test_golden_table_covers_registry():
    assert set(GOLDEN_SHA256) == set(MODEL_REGISTRY)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_counts_match_golden(name):
    sim = _golden_run(name)
    assert len(sim.rows) == 3 * (2 * len(DENSE_GRID) + len(default_alpha_pairs(DENSE_GRID)))
    for (model, kind), counts in GOLDEN_N16.items():
        if model == name:
            assert [r.count for r in sim.rows_for(16, kind)] == counts
    key = repr([(r.n, r.kind, r.alpha1, r.alpha2, r.count) for r in sim.rows])
    assert hashlib.sha256(key.encode()).hexdigest() == GOLDEN_SHA256[name]
