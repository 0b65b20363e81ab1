"""Pinned estimator counts for every registry model.

Streams are keyed by (seed, n, block).  Where a (law, n) is tabled
(``is_tabled``: on the law's lattice, with at most ``TABLE_MAX_VECTORS``
prefixes and window entries), all the n's trials are one multinomial draw,
from the stream of block 0, over the law of one trial's event cell: the
windowed count vectors of every split of the binomial tree but the last,
each a product of windowed binomial pmfs, with the last split summed in
closed form between the thresholds it crosses, and on ``mixed`` the split
of the leaf pair beside it summed in closed form too.  Every n of this
plan is tabled for every registry model.  ``MULTINOMIAL_SHA256`` pins
four (model, n) past it, all drawn from their tables: ``bernoulli`` at
n = 1024 and 4096 and ``mixed`` at n = 256 and 4096.  Every count pin
was last re-recorded when a tabled n became one draw of all its trials,
where it had been one draw per block of 16384 trials, summed; the cell
laws (``CELL_LAW_SHA256``), the tally and the ``>=`` / ``<`` / ``<=``
operators did not change then.  Before that, the two pins at n = 4096
moved when ``TABLE_MAX_VECTORS`` rose from 2**17 to 2**20 with the closed
form over the leaf pair (they had been drawn by the binomial split tree),
``mixed`` at n = 256 when the last split was summed in closed form, and
``coin`` and ``two_interval`` when the tables kept to the windows.  The
plan runs 20000 trials per n, more than one block, on a dense 0.25 alpha
grid; ``coin`` and ``two_interval`` put T_low and T_up on a 0.5 lattice
at n = 4 and 16, so many trials land exactly on a grid threshold and the
operators decide them.  ``CELL_LAW_SHA256`` pins the bytes of the cell
laws themselves, on more laws and n than any count pin reaches.
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

from _laws import LAW_MODELS, UNTABLED_MODELS

DENSE_GRID = tuple(-2.5 + 0.25 * i for i in range(21))

GOLDEN_SHA256 = {
    "bernoulli": "89d427c5155e23006fde56245fd0e712320f8a7687654c1251212f70e4441d2f",
    "coin": "14b640c4e66fedfd590add43ba9dab5f87bd2976d9004c3aec530a7054b34590",
    "two_interval": "14b640c4e66fedfd590add43ba9dab5f87bd2976d9004c3aec530a7054b34590",
    "union_parts": "f9a2d7dc2280cbb0cbd0c3ba4c7032371fe176fd1450a4410318bb16bf399d96",
    "mixed": "8929b330f64d5dfef2d15a26151eab2da9be1dce368a744688ab30421542d1fd",
}

# (model, n) past the plan's, as (prefixes, window entries), all drawn from
# their tables: bernoulli at 1024 (359, 118583) and 4096 (653, 388965), mixed
# at 256 (214, 54475) and 4096 (693, 714702)
TABLED = {("bernoulli", 1024), ("bernoulli", 4096), ("mixed", 256), ("mixed", 4096)}
MULTINOMIAL_SHA256 = {
    ("bernoulli", 1024): "056ebc5e93f3dc9104c07465abe73d4e2de132b92fca8426189167556b5a2c75",
    ("bernoulli", 4096): "28c1be6b34320496d636e461f7e43256ecf1afbf7e181666fcda10810d49f781",
    ("mixed", 256): "8178950100dbbe7787a79a04da9aa52c711a0b62ff999b10d2bf2336276d6366",
    ("mixed", 4096): "e82dd08ffe131b22f3ae91174fc702e1da84acc86e55f23d733543f1b549aa68",
}

# sha256 of the bytes of the cell law that the estimator draws from
# (``splittree._cell_law`` of ``_EventCells.at``'s sums law) per (law, grid,
# n), every law of the cell-law tests at tabled n on the default grid and
# DENSE_GRID.  Recorded before the build was split on whether the law has a
# closed pair beside its last split; that change moved none of them, nor did
# tabling only laws of at most four hulls, before which ``falling_runs``' pins
# were recorded.  ``still_pair``'s pins were recorded with the build of
# half-block steps.  Building in block-sized steps, with each closed-pair
# run sum a pairwise np.add.reduceat and the mass of the runs at or below
# the mode one difference, moved 32 of the pins, by at most 3.5e-17
# absolute, with the same zero cells; those were re-recorded then.
GRIDS = {"default": DEFAULT_ALPHA_GRID, "dense": DENSE_GRID}
CELL_LAW_SHA256 = {
    ("bernoulli", "default", 16): "9bb0b383bc9ba77a013a2671357eba75a7f1a61d493a7b41c2624c135ed29fd8",
    ("bernoulli", "default", 256): "52a7a00c3c6d95bce1827d93465bc9b0b28544fa245882621746f632b9ee503b",
    ("bernoulli", "default", 1024): "793373e13170a38483c5d96e17a95fde30d3005d43914b61868170dc5423c710",
    ("bernoulli", "dense", 16): "1c653694021a2d35fe60976481a34321ec28771ceb8e4f40c933874d21a8e161",
    ("bernoulli", "dense", 256): "99e31654da5a59018f229866eb9c12c96553b7cce7bf21d223fa10e54187cda9",
    ("bernoulli", "dense", 1024): "f775400440427dceb31b4c054ed413b111ba63b4d5de7f3595c5d3566889544e",
    ("coin", "default", 16): "abf969c32301ddfcb72578c0e4a334cf3d180deb99ecf8c3cdfac86fc07830ba",
    ("coin", "default", 256): "4ff1c152f39a78be724d4736e5f50e500001c2ad2daac8bba01f5c3446d677ca",
    ("coin", "default", 1024): "15df59042cb113e15022f0a9a2bc07fc46286dbf3e4f31ca744da93a6becd50b",
    ("coin", "dense", 16): "86babd2b5f61611113be3a71ffb2c1c51b45008b509f956abb7a4b86c430a5ca",
    ("coin", "dense", 256): "22bc14efa85d6d1dec4562875275736994867e004ed2aa2dcb2034afffbc88ad",
    ("coin", "dense", 1024): "172acc84b90e1be42c9a8b66ae3a4693c32022864fa0593a639bc6cfc3b07049",
    ("falling_pair", "default", 16): "25ad70b881fec81d3482d8b113f5f2782a0ddbd0daeb2776c476d72887b05bbd",
    ("falling_pair", "default", 256): "9755ed4cad1b68a715ab546dd7d4ac6d55ca3616a963242c35a70c612a2bae78",
    ("falling_pair", "default", 1024): "d3fc25040ebda5c287530e6a9fb3ed8a79a975203000172564b33f52d297c516",
    ("falling_pair", "dense", 16): "e3189b418d0df0b0a23c6d3eff05829517b320b6d20508e1bdebfac33b8c8f46",
    ("falling_pair", "dense", 256): "ec0727ebb78e6471d5cead90d436e5b925fb6d4be2599e2f8b9ff9924e9afe4a",
    ("falling_pair", "dense", 1024): "7aa3a95c3f79558cf583b23b2cb68149651121664c04625bea5a813568fc44e2",
    ("falling_runs", "default", 16): "f5b5ffa4ac8dedbc2990919a739ba5f238482ef16cf240b11fd176f9a4727b8a",
    ("falling_runs", "default", 256): "949c6d0bf92cab8636db6981734afa6339529ab75b5df57cc65fd4e2dc582a67",
    ("falling_runs", "default", 1024): "c32bf857e9ea1468313efb5fd88700f91d66cfd644af22c6080afd8263c4acb5",
    ("falling_runs", "dense", 16): "8d805e616e56539eef364ae389cce431f035c55c9cda6e56cba3e0fcdae8d216",
    ("falling_runs", "dense", 256): "c55d7bccc1f711580c2b7ea9b2a9e9ec430621ae69c80a12dbbbf6da8cb324d0",
    ("falling_runs", "dense", 1024): "7382535b5964d34207bf239f9135b6ec08550f23f01f21fe07d264db4615b3b4",
    ("mixed", "default", 16): "7ed2b612d9ff0e80b5b441bf9dd38adaa92a77d131d651fd2711959f8c40768e",
    ("mixed", "default", 256): "bd5b341d6d9d0e4382437671f0bdf7a7fb4bd0a2d3a3854696ff881f428b431b",
    ("mixed", "default", 1024): "280f1005ea35d5b6a74e87115f50a74b3c6ed71c019f32bb45c65606a6334625",
    ("mixed", "default", 4096): "a01a1997ce890724303afb76c75bcfb248f428264696a41e54cbf7090714e104",
    ("mixed", "dense", 16): "bf46adb340b96f5a4c95957590665aa634046aeffb6262e99f6f4af65316262f",
    ("mixed", "dense", 256): "4823e29b8a13a8d1d84668ae8e5a21410275936f0125dfa03bc78bc351c83066",
    ("mixed", "dense", 1024): "266c83d8623ba2b1391c0bf9da9514f7e6dd34d7d7806869ea0da43acdc227fe",
    ("mixed", "dense", 4096): "b93916fe2ead468a199d3ea4da0c0b09cb52c3ade3f62e901bb39fc9193da9a3",
    ("non_dyadic", "default", 16): "121b54bc8c013f6f5e035bc12f343743986d2ed4b121db4e3c262fe44db26d74",
    ("non_dyadic", "default", 64): "98a8acc2c3c08353fe1f0eb7869b2b134442518d67a2b42e33cb53faef889e23",
    ("non_dyadic", "default", 256): "76fdfe131225ffbc4a386a005b23169985b1bfe466a343b8d004e4077e6a5a14",
    ("non_dyadic", "dense", 16): "fbae23f6445b4198ca916ba78177956dca8f02e30a0d0ff962a738adab0727e2",
    ("non_dyadic", "dense", 64): "cab4d59b749b2b9b7bd5855339f48e0732d1ffb7ab56b59fed2e9ab06d4b55c3",
    ("non_dyadic", "dense", 256): "0aea461337644c6c51ce5f3368afc9f91b9142a674ecd271f0be59795c0afcd9",
    ("still_pair", "default", 16): "1202afa828a12de975d01085c09a3d2f31614c1a91481f3f0c5bdcc8ad557c47",
    ("still_pair", "default", 256): "cb838a96ec03ceaed0766f774cc1495dcdda823b60eb375ff8bd8daab816b69b",
    ("still_pair", "default", 1024): "9e027958d35ce9b113a05b336cdbc0150eb01079da82b8f9101911cf9ad16f27",
    ("still_pair", "dense", 16): "12a0c2e7a15291d8a00265100c2fd6b5b080c8244a91362f3a34d7679664980a",
    ("still_pair", "dense", 256): "ce56df4349b5e3217475ba494d36bdbf298e2e0af3e03af1aaf0b4d30303ce44",
    ("still_pair", "dense", 1024): "82bf9a0fafe7727c5a26ae89b2d9a6ac040ddf5c19d9c7b08cac8dd0ba4245f3",
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
        19937, 19937, 19494, 19494, 18043, 18043, 18043, 15055, 15055, 11048, 11048,
        6892, 6892, 3547, 3547, 1485, 1485, 522, 522, 522, 152],
    ("bernoulli", ONE_SIDED_UPPER): [
        146, 526, 526, 526, 1521, 1521, 3504, 3504, 6841, 6841, 11069, 11069,
        15069, 15069, 17968, 17968, 17968, 19492, 19492, 19950, 19950],
    ("coin", ONE_SIDED_LOWER): [
        19966, 19777, 19777, 19226, 19226, 17885, 17885, 15443, 15443, 11948, 11948,
        8090, 8090, 4558, 4558, 2084, 2084, 747, 747, 207, 207],
    ("coin", ONE_SIDED_UPPER): [
        34, 223, 223, 774, 774, 2115, 2115, 4557, 4557, 8052, 8052, 11910, 11910,
        15442, 15442, 17916, 17916, 19253, 19253, 19793, 19793],
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


# the n at which the laws of five and seven hulls had pinned cell laws; no
# law of more than four hulls is tabled, so none is built
UNTABLED_N = {"five_hulls": (16, 40, 64), "seven_hulls": (8, 14, 20)}


@pytest.mark.parametrize("name", sorted(UNTABLED_MODELS))
def test_laws_of_five_or_more_hulls_are_untabled(name, monkeypatch, caplog):
    # and their estimate logs no tabled n and builds no cell law
    model = UNTABLED_MODELS[name]
    law = montecarlo.MinMaxLaw.from_model(model)
    assert len(law.masses) > 4
    for n in UNTABLED_N[name]:
        assert montecarlo.on_lattice(law.lattice, n) and not montecarlo.is_tabled(law, n)

    def built(*args):
        raise AssertionError("built")

    monkeypatch.setattr(montecarlo, "_cell_law", built)
    plan = SimPlan(model, n_values=UNTABLED_N[name], reps=100, seed=5)
    with caplog.at_level("INFO", logger="beliefclt"):
        estimate_events(plan, moments_by_enumeration(model), workers=1)
    (line,) = [rec.message for rec in caplog.records if rec.message.startswith("estimate: ")]
    assert " tabled_n=[] " in line


@pytest.mark.parametrize("name", sorted(LAW_MODELS))
def test_cell_law_bytes_match_golden(name):
    law = montecarlo.MinMaxLaw.from_model(LAW_MODELS[name])
    for (model, grid, n), want in CELL_LAW_SHA256.items():
        if model == name:
            events = montecarlo._EventCells.build(GRIDS[grid], default_alpha_pairs(GRIDS[grid]))
            assert montecarlo.is_tabled(law, n)
            sums_law, _, bounds = events.at(law, n)
            p_cell = montecarlo._cell_law(sums_law, n, bounds)
            assert hashlib.sha256(p_cell.tobytes()).hexdigest() == want, (grid, n)
