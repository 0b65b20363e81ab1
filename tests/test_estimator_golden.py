"""Pinned estimator counts for every registry model.

Streams are keyed by (seed, n, block).  Where a (law, n) is tabled
(``is_tabled``: on the law's lattice, with at most ``TABLE_MAX_VECTORS``
prefixes and window entries), a block is one multinomial draw over the law
of one trial's event cell: the windowed count vectors of every split of
the binomial tree but the last, each a product of windowed binomial pmfs,
with the last split summed in closed form between the thresholds it
crosses, and on ``mixed`` the split of the leaf pair beside it summed in
closed form too.  Every n of this plan is tabled for every registry model.
``MULTINOMIAL_SHA256`` pins four (model, n) past it, all drawn from their
tables: ``bernoulli`` at n = 1024 and 4096 and ``mixed`` at n = 256 and
4096.  The two at n = 4096 were drawn by the binomial split tree, its root
one multinomial over a window of its binomial pmf, until
``TABLE_MAX_VECTORS`` rose from 2**17 to 2**20 with the closed form over
the leaf pair, and were re-recorded then, after the closed form matched
the full windowed enumeration and the binomial-tail tests; no other pin
moved then.  ``mixed`` at n = 256 was re-recorded when the last split was
summed in closed form.  The ``coin`` and ``two_interval`` pins
were last re-recorded when the tables kept to the windows (only n = 4
moved, by one trial in some cells); the others when blocks and the tree's
root became multinomial draws.  The tally and the ``>=`` / ``<`` / ``<=``
operators did not change.  The plan runs two blocks per n (the second one
partial) on a dense 0.25 alpha grid; ``coin`` and ``two_interval`` put
T_low and T_up on a 0.5 lattice at n = 4 and 16, so many trials land
exactly on a grid threshold and the operators decide them.
``CELL_LAW_SHA256`` pins the bytes of the cell laws themselves, on more
laws and n than any count pin reaches.
"""

import hashlib

import pytest

from beliefclt import MODEL_REGISTRY, SimPlan, estimate_events, moments_by_enumeration
from beliefclt import montecarlo
from beliefclt.montecarlo import (
    DEFAULT_ALPHA_GRID,
    ONE_SIDED_LOWER,
    ONE_SIDED_UPPER,
    default_alpha_pairs,
)

from _laws import LAW_MODELS

DENSE_GRID = tuple(-2.5 + 0.25 * i for i in range(21))

GOLDEN_SHA256 = {
    "bernoulli": "d17450dec57be068ee0295f12e6e02120d5a4f8cff630a08e29d01902880ff5d",
    "coin": "26e28ea14c66cf8a74707fb408c9cd9d06218190ccd63e35de123397cbd626df",
    "two_interval": "26e28ea14c66cf8a74707fb408c9cd9d06218190ccd63e35de123397cbd626df",
    "union_parts": "f8ce50f5d791b5524531f0754a2af142c86fd0785ffb45a4b4f9e73f0ae18d2a",
    "mixed": "124af4270a3052b0d07fca98543ec5e328c8276ccdbb4c3e0846b6bf61013160",
}

# (model, n) past the plan's, as (prefixes, window entries), all drawn from
# their tables: bernoulli at 1024 (359, 118583) and 4096 (653, 388965), mixed
# at 256 (214, 54475) and 4096 (693, 714702)
TABLED = {("bernoulli", 1024), ("bernoulli", 4096), ("mixed", 256), ("mixed", 4096)}
MULTINOMIAL_SHA256 = {
    ("bernoulli", 1024): "58ee6e82461c8cc2f0c28d68c277dfdcc594aa96782606428529d80dad0ab2c5",
    ("bernoulli", 4096): "aa98a9f888cf3bacd3154d5060e1a54cd93d5e0305f99214c91ae7c1f3a6ab26",
    ("mixed", 256): "1b40b0039a7167cbd1c833d31cc1c3ca0f5f3dcae8b63b63f7f3dea5d8b6c37e",
    ("mixed", 4096): "741a5551a541cad77205afc3a152308b0aedbcc419cc60343e2b6b64316fd788",
}

# sha256 of the bytes of the cell law that the estimator draws from
# (``splittree._cell_law``, through ``montecarlo._sampler``) per (law, grid,
# n), every law of the cell-law tests at tabled n on the default grid and
# DENSE_GRID.  Recorded before the build was split on whether the law has a
# closed pair beside its last split; that change moved none of them.
GRIDS = {"default": DEFAULT_ALPHA_GRID, "dense": DENSE_GRID}
CELL_LAW_SHA256 = {
    ("bernoulli", "default", 16): "9bb0b383bc9ba77a013a2671357eba75a7f1a61d493a7b41c2624c135ed29fd8",
    ("bernoulli", "default", 256): "311ad68d37ec1ec7f6ac411edae7e0ea304d3578e2d8d9ebc5ba2d4e026636b6",
    ("bernoulli", "default", 1024): "70e312a6d49e56b43f23db3dda7e4ffecfad718db1490d528471e2a6c2917458",
    ("bernoulli", "dense", 16): "1c653694021a2d35fe60976481a34321ec28771ceb8e4f40c933874d21a8e161",
    ("bernoulli", "dense", 256): "2f058da24c572087203443a9b219d159675f4500e5d582a80e63489e3c52b15f",
    ("bernoulli", "dense", 1024): "7e07679b2ae9e261a8df3d300bdffc0dfbd15d8f9ab2d30be7096cbd388d931a",
    ("coin", "default", 16): "abf969c32301ddfcb72578c0e4a334cf3d180deb99ecf8c3cdfac86fc07830ba",
    ("coin", "default", 256): "4ff1c152f39a78be724d4736e5f50e500001c2ad2daac8bba01f5c3446d677ca",
    ("coin", "default", 1024): "15df59042cb113e15022f0a9a2bc07fc46286dbf3e4f31ca744da93a6becd50b",
    ("coin", "dense", 16): "86babd2b5f61611113be3a71ffb2c1c51b45008b509f956abb7a4b86c430a5ca",
    ("coin", "dense", 256): "22bc14efa85d6d1dec4562875275736994867e004ed2aa2dcb2034afffbc88ad",
    ("coin", "dense", 1024): "172acc84b90e1be42c9a8b66ae3a4693c32022864fa0593a639bc6cfc3b07049",
    ("falling_pair", "default", 16): "25ad70b881fec81d3482d8b113f5f2782a0ddbd0daeb2776c476d72887b05bbd",
    ("falling_pair", "default", 256): "6bf6aa309c5dd2c0a9aa8ae6dc98c4f6dc70948c49dba6d7285770a8ecf1a03c",
    ("falling_pair", "default", 1024): "8449c2aac6eea827433cbb52d8f131d82d59e6b2b11924ee97ca9d031f270f6f",
    ("falling_pair", "dense", 16): "c16a0c63ebb0085aafa6050e94fa075bb9dbe0b44042bae974bd9b5400419832",
    ("falling_pair", "dense", 256): "3c66588afed44dbdd148c2e24fcf13dfc086da3454205ac5da704de676a7c12b",
    ("falling_pair", "dense", 1024): "b83634022ab74fce6a31dcc1575880dc2127660b91dfaa25094abedf123914f0",
    ("five_hulls", "default", 16): "161ac1024867e418a0f362a9b5d08a61d2e83fcfbe4fe5e418e71785c0f3e655",
    ("five_hulls", "default", 40): "f728aa0a0b8db11a6e01c3eeb9c511b71c8e7ab323cb9585bca5703a5c005eb1",
    ("five_hulls", "default", 64): "49f046260e7f83bab6c28c10d2fe77e35ac0f8cac59cb7ef34bd0a4e6d1610c4",
    ("five_hulls", "dense", 16): "b18315fd17702a7476af085a1dd3af898997aacfe096ae2c5124c84e623419ee",
    ("five_hulls", "dense", 40): "a9e156862376e87d14d9461190a5354b22e2378b9eed994c225b3229f8c4cc09",
    ("five_hulls", "dense", 64): "501bb70027ba3703605bb54b550b5d9251f78717b885005700b023aadc68c860",
    ("mixed", "default", 16): "7ed2b612d9ff0e80b5b441bf9dd38adaa92a77d131d651fd2711959f8c40768e",
    ("mixed", "default", 256): "80faf74a299f973e4e78d0f3313a2c02b3a8d1ad259ebf16383056bfcc2dee58",
    ("mixed", "default", 1024): "7d2039584546774a1fd8ea3870aff8fddc6171216e069775a3b3b486a48f4b73",
    ("mixed", "default", 4096): "51517a5a3c8105aa95344c804600cd1304ae1af0c0a0b7a48a395548578702b6",
    ("mixed", "dense", 16): "92cfcb9e068218da56b0ea7648eb91cb3fea1c4ad0db9bf13aee7136c720efef",
    ("mixed", "dense", 256): "118d20e47af3f882ee8ace526fdfa5f5e3917f5afc980e196ed681ab770c839b",
    ("mixed", "dense", 1024): "cc319f37d7d3f437b132faef32c4834eeb9c2b3f1f2b4b31529e114386d1be69",
    ("mixed", "dense", 4096): "c2643e7ff3a00a426de5016819bb6984a80fab311900e2fcaa106f1250d4e150",
    ("non_dyadic", "default", 16): "121b54bc8c013f6f5e035bc12f343743986d2ed4b121db4e3c262fe44db26d74",
    ("non_dyadic", "default", 64): "52157ae987e457018315e1f612a61a28d0de69d12b6b4661f081b6af58c0179a",
    ("non_dyadic", "default", 256): "9b78f3f925c71f1bc38fc90e1a8e34477654050446aa7ba5ecbd82f3acc79adf",
    ("non_dyadic", "dense", 16): "fbae23f6445b4198ca916ba78177956dca8f02e30a0d0ff962a738adab0727e2",
    ("non_dyadic", "dense", 64): "568a4ec9d97ca4264c8f67daed71a734176ceaa730c6b73d986e3ee85415981b",
    ("non_dyadic", "dense", 256): "717627d3b8fc9d6180c62c9a4ae65c798c7f3e1250e58bd08d253d0e97713689",
    ("seven_hulls", "default", 8): "0b8632d8338c22f5c377b201df97094c776ab3d4ff2de243a153d1eb3ddefcf3",
    ("seven_hulls", "default", 14): "cfdfc80c9f171d35f17121afbd0ff123a9d35cb34826a4c9431dc61db81f3b41",
    ("seven_hulls", "default", 20): "1b7c19c7a940a2af50287b2ab1c6967f2b41d283ebaec65d96fd4b8de685e69d",
    ("seven_hulls", "dense", 8): "4847623930906d55ebc2ed326b122e5419da2fd69a6d9226f4c5e43c05852511",
    ("seven_hulls", "dense", 14): "eebdc485419d9ef39a227433b3951dc3f2a9394ac892039f92626bb32932a492",
    ("seven_hulls", "dense", 20): "b9ebe7d88517ff7fb31c4bd77a5be4391fa4be2ceb354e29382544699fb52a41",
    ("two_interval", "default", 16): "abf969c32301ddfcb72578c0e4a334cf3d180deb99ecf8c3cdfac86fc07830ba",
    ("two_interval", "default", 256): "4ff1c152f39a78be724d4736e5f50e500001c2ad2daac8bba01f5c3446d677ca",
    ("two_interval", "default", 1024): "15df59042cb113e15022f0a9a2bc07fc46286dbf3e4f31ca744da93a6becd50b",
    ("two_interval", "dense", 16): "86babd2b5f61611113be3a71ffb2c1c51b45008b509f956abb7a4b86c430a5ca",
    ("two_interval", "dense", 256): "22bc14efa85d6d1dec4562875275736994867e004ed2aa2dcb2034afffbc88ad",
    ("two_interval", "dense", 1024): "172acc84b90e1be42c9a8b66ae3a4693c32022864fa0593a639bc6cfc3b07049",
    ("union_parts", "default", 16): "6ec17d001e1fec9cf104dce2a66eea06d6422765f80afdf73e0d92d4c582280a",
    ("union_parts", "default", 256): "35af9078a32f2dfa260322fc0006f20b01e47d25670526fd467f2551428160a5",
    ("union_parts", "default", 1024): "d4a92e8a3c1a278b34b7fa3cc01ca199579a025e7203ff119484379fa0649cc3",
    ("union_parts", "dense", 16): "44da5cd9086824da68699a806ec5937ec7d88d3aad9440a51cb321586b703a33",
    ("union_parts", "dense", 256): "80448713abd66512c6d5b9c28a24b8e9a71d5303b5b1c6c2d64be931f7c44aff",
    ("union_parts", "dense", 1024): "3d11347ea7bd0a4ef09927febdaadf663ed8ff5785fa2dc6c1d54516506a2f17",
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


def test_cell_law_table_covers_every_law():
    assert {name for name, _, _ in CELL_LAW_SHA256} == set(LAW_MODELS)


@pytest.mark.parametrize("name", sorted(LAW_MODELS))
def test_cell_law_bytes_match_golden(name):
    law = montecarlo.MinMaxLaw.from_model(LAW_MODELS[name])
    for (model, grid, n), want in CELL_LAW_SHA256.items():
        if model == name:
            events = montecarlo._EventCells.build(GRIDS[grid], default_alpha_pairs(GRIDS[grid]))
            assert montecarlo.is_tabled(law, n)
            p_cell = montecarlo._sampler(law, events, n, True)[2]
            assert hashlib.sha256(p_cell.tobytes()).hexdigest() == want, (grid, n)
