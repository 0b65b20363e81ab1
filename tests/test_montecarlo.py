import math
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefclt import (
    MODEL_REGISTRY,
    BeliefModel,
    DegenerateVariance,
    FocalElement,
    IntervalEvent,
    SimPlan,
    belief,
    bernoulli_model,
    estimate_events,
    moments_by_enumeration,
    plausibility,
)
from beliefclt import montecarlo
from beliefclt.moments import MinMaxLaw
from beliefclt.montecarlo import (
    BLOCK_SIZE,
    DEFAULT_ALPHA_GRID,
    ONE_SIDED_LOWER,
    ONE_SIDED_UPPER,
    TWO_SIDED,
    _block_stream,
    _count_vectors,
    _binomial_window,
    _cell_law,
    _EventCells,
    _hull_sums,
    _multinomial_pmf,
    _normalized_cells,
    _shares,
    _split_counts,
    default_alpha_pairs,
    is_tabled,
    resolve_workers,
)

from _intervals import complement


def _vector_index(s_min, s_max):
    """A cell function whose cell is each count vector's table position."""
    return np.arange(len(s_min))


def _vector_law(law, n):
    """The cell law of (law, n) with one cell per count vector."""
    k = len(law.masses)
    return _cell_law(law, n, _vector_index, math.comb(n + k - 1, k - 1))


def _tree_root(law, n):
    """The root window of the split tree of (law, n), as the estimator
    builds it."""
    return _binomial_window(n, *_shares(law.masses, 0, len(law.masses)))


def _draw_sums(seed, n, block_index, size, law):
    """(S_min, S_max) of one block's trials, drawn as the estimator draws
    them: a tabled n draws one multinomial over the cell law of its count
    vectors, any other n takes the split tree's counts."""
    rng = _block_stream(seed, n, block_index)
    if not is_tabled(law, n):
        return _hull_sums(_split_counts(law, n, _tree_root(law, n), rng, size), law)
    p_cell = _vector_law(law, n)
    s_min, s_max = _hull_sums(_count_vectors(n, len(law.masses)), law)
    index = np.repeat(np.arange(len(p_cell)), rng.multinomial(size, p_cell))
    return s_min[index], s_max[index]


def _replay_root(rng, n, p, q, size):
    """The root's left counts of one block, replayed from their definition:
    one multinomial over scipy's Bin(n, p) pmf on the window of
    ``_binomial_window``, each count value repeated as often as drawn."""
    from scipy.stats import binom

    lo, pmf = _binomial_window(n, p, q)
    values = np.arange(lo, lo + len(pmf))
    exact = binom.pmf(values, n, p)
    return np.repeat(values, rng.multinomial(size, exact / exact.sum()))


def _replay_tree(seed, n, block_index, size, law, tabled_root):
    """Hull counts of one block by the split tree, replayed from its
    definition: node [lo, hi) splits at (lo + hi) // 2 with the left share
    of its mass, depth first and left before right; the root's left count
    is either ``_replay_root`` or one rng.binomial like every other split."""
    rng = _block_stream(seed, n, block_index)
    masses = law.masses.tolist()
    columns = {}

    def split(lo, hi, count):
        if hi - lo == 1:
            columns[lo] = count
            return
        mid = (lo + hi) // 2
        left, right = math.fsum(masses[lo:mid]), math.fsum(masses[mid:hi])
        share = left / (left + right)
        if tabled_root and hi - lo == len(masses):
            drawn = _replay_root(rng, n, share, right / (left + right), size)
        else:
            drawn = rng.binomial(count, share)
        split(lo, mid, drawn)
        split(mid, hi, count - drawn)

    split(0, len(masses), np.full(size, n))
    return [columns[k] for k in range(len(masses))]


class TestDeriveStream:
    """The estimator's block streams, keyed by (seed, n, block)."""

    def test_same_triple_is_deterministic(self):
        a = _block_stream(123, 5, 7).random(100)
        b = _block_stream(123, 5, 7).random(100)
        assert np.array_equal(a, b)

    def test_adjacent_coordinates_uncorrelated(self):
        # adjacent blocks of one n
        x = _block_stream(123, 5, 7).standard_normal(100_000)
        y = _block_stream(123, 5, 8).standard_normal(100_000)
        r = np.corrcoef(x, y)[0, 1]
        assert abs(r) < 0.01

    def test_adjacent_replications_uncorrelated(self):
        # the same block of adjacent n
        x = _block_stream(123, 5, 7).standard_normal(100_000)
        y = _block_stream(123, 6, 7).standard_normal(100_000)
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.01

    def test_seed_collisions_absent(self):
        draws = {_block_stream(s, 1, 0).random() for s in range(1000)}
        assert len(draws) == 1000

    def test_draws_change_with_any_index(self):
        base = _block_stream(1, 2, 3).random(4)
        for seed, n, block in [(2, 2, 3), (1, 3, 3), (1, 2, 4)]:
            assert not np.array_equal(base, _block_stream(seed, n, block).random(4))


class TestSampleTrial:
    """Trials drawn block by block, as the estimator draws them."""

    def test_min_never_exceeds_max(self, two_interval):
        law = MinMaxLaw.from_model(two_interval)
        for n in (20, 70_000):  # cell law and split tree
            s_min, s_max = _draw_sums(9, n, 0, 500, law)
            assert np.all(s_min <= s_max)

    def test_additive_model_collapses(self, coin):
        law = MinMaxLaw.from_model(coin)
        s_min, s_max = _draw_sums(3, 50, 0, 500, law)
        assert np.array_equal(s_min, s_max)

    def test_bernoulli_n1_frequencies(self, bernoulli):
        # P(S_min = 1) = m({1}) = 0.3 and P(S_max = 1) = 0.7
        reps = 4000
        law = MinMaxLaw.from_model(bernoulli)
        s_min, s_max = _draw_sums(17, 1, 0, reps, law)
        se3 = 3 * math.sqrt(0.25 / reps)
        assert abs(np.mean(s_min == 1.0) - 0.3) < se3
        assert abs(np.mean(s_max == 1.0) - 0.7) < se3

    def test_rejects_nonpositive_n(self, bernoulli):
        with pytest.raises(ValueError):
            SimPlan(bernoulli, n_values=(0, 4))


class TestPlanValidation:
    def test_rejects_unsorted_n(self, bernoulli):
        with pytest.raises(ValueError):
            SimPlan(bernoulli, n_values=(64, 16))

    def test_rejects_bad_reps_and_seed(self, bernoulli):
        with pytest.raises(ValueError):
            SimPlan(bernoulli, reps=0)
        with pytest.raises(ValueError):
            SimPlan(bernoulli, seed=2**64)

    def test_warns_on_inverted_pair(self, bernoulli):
        with pytest.warns(UserWarning):
            SimPlan(bernoulli, alpha_two_sided=((1.0, -1.0),))

    def test_rejects_mapping_grids(self, bernoulli):
        # one grid holds for every n; a mapping is not read as its keys
        with pytest.raises(TypeError):
            SimPlan(bernoulli, n_values=(4, 16), alpha_one_sided={4: (0.0,), 16: (1.0,)})
        with pytest.raises(TypeError):
            SimPlan(bernoulli, n_values=(4,), alpha_two_sided={4: ((-1.0, 1.0),)})

    def test_rejects_nan_thresholds(self, bernoulli):
        for grids in ({"alpha_one_sided": (0.0, math.nan)},
                      {"alpha_two_sided": ((math.nan, 1.0),)},
                      {"alpha_two_sided": ((0.0, math.nan),)}):
            with pytest.raises(ValueError, match="NaN"):
                SimPlan(bernoulli, **grids)

    @pytest.mark.parametrize("field,value", [
        ("n_values", (16.5,)), ("n_values", (16.0,)), ("n_values", (True, 2)),
        ("n_values", ("16",)), ("n_values", ()), ("n_values", (0, 4)),
        ("reps", 2.5), ("reps", True), ("reps", [1]), ("reps", "10"),
        ("seed", 1.5), ("seed", "7"), ("seed", -1),
        ("slack", math.nan), ("slack", -1.0), ("slack", math.inf), ("slack", "1"),
        ("alpha_one_sided", ("1",)), ("alpha_one_sided", (True,)), ("alpha_one_sided", ([1],)),
        ("alpha_one_sided", 5), ("alpha_two_sided", ((1.0, 2.0, 3.0),)),
        ("alpha_two_sided", ((1.0,),)), ("alpha_two_sided", (1.0,)),
        ("alpha_two_sided", (("0", 1.0),)),
    ])
    def test_rejects_bad_values_naming_the_field(self, bernoulli, field, value):
        # nothing is truncated or parsed from a string
        with pytest.raises(ValueError, match=f"^{field}"):
            SimPlan(bernoulli, **{field: value})

    def test_stores_plain_ints_and_floats(self, bernoulli):
        plan = SimPlan(bernoulli, n_values=np.array([16, 64]), reps=np.int64(5),
                       seed=np.uint64(2**64 - 1), slack=1, alpha_one_sided=[0, np.float32(0.5)],
                       alpha_two_sided=[[-1, 1e999]])
        assert plan.n_values == (16, 64) and plan.alpha_two_sided == ((-1.0, math.inf),)
        assert {type(v) for v in (*plan.n_values, plan.reps, plan.seed)} == {int}
        assert {type(v) for v in (plan.slack, *plan.alpha_one_sided)} == {float}

    def test_digest_ignores_the_container_type(self, bernoulli):
        digests = {SimPlan(bernoulli, n_values=n, alpha_one_sided=a).digest()
                   for n in ([16, 64], (16, 64), np.array([16, 64]), (np.int32(16), np.int64(64)))
                   for a in ([0, 1], (0.0, 1.0), np.array([0.0, 1.0]))}
        assert len(digests) == 1

    def test_default_pairs_ordered(self):
        assert all(a1 <= a2 for a1, a2 in default_alpha_pairs())
        assert len(default_alpha_pairs()) == 28

    def test_digest_changes_with_plan(self, bernoulli):
        p1 = SimPlan(bernoulli, seed=1)
        p2 = SimPlan(bernoulli, seed=2)
        assert p1.digest() != p2.digest()
        assert p1.digest() == SimPlan(bernoulli, seed=1).digest()


@pytest.fixture(scope="module")
def bern_plan():
    model = BeliefModel(
        [(FocalElement([(1.0, 1.0)]), 0.3),
         (FocalElement([(0.0, 0.0)]), 0.3),
         (FocalElement([(0.0, 1.0)]), 0.4)], 1.0)
    return SimPlan(model, n_values=(16, 64), reps=40_000, seed=99)


@pytest.fixture(scope="module")
def bern_sim(bern_plan):
    mom = moments_by_enumeration(bern_plan.model)
    return estimate_events(bern_plan, mom, workers=1)


class TestEstimateEvents:
    def test_counts_are_integers(self, bern_sim, bern_plan):
        for row in bern_sim.rows:
            assert row.count == int(row.count)
            assert row.frequency * row.reps == pytest.approx(row.count, abs=1e-6)
            assert row.reps == bern_plan.reps

    def test_row_layout(self, bern_sim, bern_plan):
        for n in bern_plan.n_values:
            assert len(bern_sim.rows_for(n, ONE_SIDED_LOWER)) == 7
            assert len(bern_sim.rows_for(n, ONE_SIDED_UPPER)) == 7
            assert len(bern_sim.rows_for(n, TWO_SIDED)) == 28

    def test_one_sided_antitone_in_alpha(self, bern_sim, bern_plan):
        for n in bern_plan.n_values:
            rows = bern_sim.rows_for(n, ONE_SIDED_LOWER)
            freqs = [r.frequency for r in sorted(rows, key=lambda r: r.alpha1)]
            assert freqs == sorted(freqs, reverse=True)

    def test_two_sided_within_lower_event(self, bern_sim, bern_plan):
        # {a1 <= T_low and T_up <= a2} is a subset of {T_low >= a1}
        for n in bern_plan.n_values:
            lower = {r.alpha1: r.count for r in bern_sim.rows_for(n, ONE_SIDED_LOWER)}
            for r in bern_sim.rows_for(n, TWO_SIDED):
                assert r.count <= lower[r.alpha1]

    def test_bit_reproducible_across_worker_counts(self, bern_plan, bern_sim):
        mom = moments_by_enumeration(bern_plan.model)
        for workers in (2, 3):
            again = estimate_events(bern_plan, mom, workers=workers)
            assert again == bern_sim

    def test_repeat_run_identical(self, bern_plan, bern_sim):
        mom = moments_by_enumeration(bern_plan.model)
        assert estimate_events(bern_plan, mom, workers=1) == bern_sim

    def test_degenerate_variance_raises(self):
        vac = BeliefModel([(FocalElement([(0.0, 1.0)]), 1.0)], 1.0)
        plan = SimPlan(vac, n_values=(4,), reps=10)
        with pytest.raises(DegenerateVariance):
            mom = moments_by_enumeration(vac, allow_degenerate=True)
            estimate_events(plan, mom)

    def test_full_measure_event(self, bernoulli):
        # thresholds below every reachable value of the statistics
        plan = SimPlan(bernoulli, n_values=(4,), reps=500, seed=5,
                       alpha_one_sided=(-50.0,), alpha_two_sided=((-50.0, 50.0),))
        sim = estimate_events(plan, moments_by_enumeration(bernoulli))
        for row in sim.rows:
            if row.kind in (ONE_SIDED_LOWER, TWO_SIDED):
                assert row.frequency == 1.0
            else:
                assert row.frequency == 0.0  # T_up < -50 never happens

    def test_n1_matches_exact_belief(self, bernoulli):
        # n = 1 reduces events to single-coordinate set containments:
        # {S_min >= t} = {K in [t, inf)} and {S_max < t} = {K in (-inf, t)},
        # so both frequencies estimate beliefs; plausibility enters through
        # the complements
        mom = moments_by_enumeration(bernoulli)
        plan = SimPlan(bernoulli, n_values=(1,), reps=120_000, seed=31,
                       alpha_one_sided=(-0.5, 0.2, 0.8), alpha_two_sided=())
        sim = estimate_events(plan, mom)
        for row in sim.rows:
            if row.kind == ONE_SIDED_LOWER:
                event = IntervalEvent.at_least(mom.lower_mean + row.alpha1 * mom.lower_sd)
            else:
                event = IntervalEvent.less_than(mom.upper_mean + row.alpha1 * mom.upper_sd)
            exact = belief(bernoulli, event)
            tol = 4 * row.se + 1e-9
            assert abs(row.frequency - exact) <= tol, (
                row.kind, row.alpha1, row.frequency, exact)
            assert abs((1.0 - row.frequency)
                       - plausibility(bernoulli, complement(event))) <= tol


def test_pool_is_sized_by_its_runs(monkeypatch, bern_plan):
    """A pool starts all its workers at once, so it gets no more workers than
    runs, and none at all for one run."""
    created = []

    class SerialPool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def map(self, fn, items):
            return map(fn, items)

        def shutdown(self):
            pass

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", SerialPool)
    mom = moments_by_enumeration(bern_plan.model)
    two_n = SimPlan(bern_plan.model, n_values=(16, 64), reps=BLOCK_SIZE, seed=5)
    assert estimate_events(two_n, mom, workers=8) == estimate_events(two_n, mom, workers=1)
    assert created == [2]
    estimate_events(SimPlan(bern_plan.model, n_values=(16,), reps=BLOCK_SIZE), mom, workers=8)
    assert created == [2]


def test_resolve_workers_env(monkeypatch):
    monkeypatch.delenv("BELIEFCLT_WORKERS", raising=False)
    assert resolve_workers(4) == 4
    monkeypatch.setenv("BELIEFCLT_WORKERS", "2")
    assert resolve_workers() == 2
    assert resolve_workers(1) == 1


def test_resolve_workers_rejects_all_but_positive_integers(monkeypatch):
    for value in ("abc", "0", "-4", "2.5", "", "1e3", "\u0663"):
        monkeypatch.setenv("BELIEFCLT_WORKERS", value)
        if value:
            with pytest.raises(ValueError, match="BELIEFCLT_WORKERS must be a positive"):
                resolve_workers()
        else:  # an empty variable is an unset one
            assert resolve_workers() >= 1
        assert resolve_workers(3) == 3
    for workers in (0, -3, 2.0, True, "2"):
        with pytest.raises(ValueError, match="workers must be"):
            resolve_workers(workers)


def _brute_events(t_low, t_up, alphas, pairs):
    """Whether each trial is in each event, one row per event in plan order
    (lower, upper, two-sided), by one comparison pass per event as the
    definitions read."""
    rows = ([t_low >= a for a in alphas] + [t_up < a for a in alphas]
            + [(a1 <= t_low) & (t_up <= a2) for a1, a2 in pairs])
    return np.array(rows, dtype=bool).reshape(len(rows), len(t_low))


def _brute_counts(t_low, t_up, alphas, pairs):
    """Event counts, lower, upper and two-sided, from ``_brute_events``."""
    counts = _brute_events(t_low, t_up, alphas, pairs).sum(axis=1).tolist()
    return counts[:len(alphas)], counts[len(alphas):2 * len(alphas)], counts[2 * len(alphas):]


LATTICE = tuple(0.25 * i for i in range(-10, 11))
_thresholds = st.one_of(
    st.sampled_from(LATTICE),
    st.floats(-4.0, 4.0),
    st.sampled_from((0.0, -0.0, math.inf, -math.inf)),
)


class TestEventCells:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, data):
        # unsorted, duplicated, inverted and infinite thresholds, signed
        # zeros, empty grids, and statistics drawn partly from the thresholds
        # themselves (exact ties); the block is split in two to exercise the
        # merge
        alphas = data.draw(st.lists(_thresholds, max_size=10))
        pairs = data.draw(st.lists(st.tuples(_thresholds, _thresholds), max_size=12))
        ties = alphas + [x for p in pairs for x in p]
        stat = st.floats(-5.0, 5.0)
        if ties:
            stat = stat | st.sampled_from(ties)
        size = data.draw(st.integers(0, 40))
        t_low = np.array(data.draw(st.lists(stat, min_size=size, max_size=size)), dtype=float)
        t_up = np.array(data.draw(st.lists(stat, min_size=size, max_size=size)), dtype=float)
        cut = data.draw(st.integers(0, size))

        events = _EventCells.build(alphas, pairs)
        cells = events.cells(t_low, t_up)
        assert cells.dtype == np.min_scalar_type(events.size - 1)
        assert np.all(cells < events.size)
        histogram = (np.bincount(cells[:cut], minlength=events.size)
                     + np.bincount(cells[cut:], minlength=events.size))
        lower, upper, two = _brute_counts(t_low, t_up, alphas, pairs)
        assert events.counts(histogram).tolist() == lower + upper + two

    def test_empty_grids(self):
        events = _EventCells.build((), ())
        assert events.size == 1
        histogram = np.bincount(events.cells(np.zeros(5), np.ones(5)))
        assert histogram.tolist() == [5]
        assert len(events.counts(histogram)) == 0


def _reference_estimate(plan, mom):
    """Replays the estimator's block draws, without its tally, and counts
    every event by brute force.

    An untabled n replays its trials' hull sums.  A tabled n replays each
    block as one multinomial over the cell law; every count vector is tested
    against every event, the vectors of one cell must agree, and each draw
    of a cell counts towards the events of its vectors.
    """
    law = MinMaxLaw.from_model(plan.model)
    events = _EventCells.build(plan.alpha_one_sided, plan.alpha_two_sided)
    counts = {}
    for n in plan.n_values:
        root = math.sqrt(n)

        def normalized(s_min, s_max):
            return ((s_min - n * mom.lower_mean) / (root * mom.lower_sd),
                    (s_max - n * mom.upper_mean) / (root * mom.upper_sd))

        blocks = [(b, min(BLOCK_SIZE, plan.reps - start))
                  for b, start in enumerate(range(0, plan.reps, BLOCK_SIZE))]
        cell_of = partial(_normalized_cells, events, mom, n)
        if not is_tabled(law, n):
            sums = [normalized(*_draw_sums(plan.seed, n, b, size, law)) for b, size in blocks]
            t_low, t_up = (np.concatenate(t) for t in zip(*sums))
            in_event = _brute_events(t_low, t_up, plan.alpha_one_sided, plan.alpha_two_sided)
            counts[n] = in_event.sum(axis=1).tolist()
            continue
        vectors = _count_vectors(n, len(law.masses))
        in_event = _brute_events(*normalized(*_hull_sums(vectors, law)),
                                 plan.alpha_one_sided, plan.alpha_two_sided)
        cells = cell_of(*_hull_sums(vectors, law))
        member = np.zeros((len(in_event), events.size), dtype=np.int64)
        member[:, cells] = in_event
        assert np.array_equal(member[:, cells], in_event)  # one cell, one set of events
        p_cell = _cell_law(law, n, cell_of, events.size)
        histogram = sum(_block_stream(plan.seed, n, b).multinomial(size, p_cell)
                        for b, size in blocks)
        counts[n] = (member @ histogram).tolist()
    return counts


_grid_values = st.lists(st.sampled_from(LATTICE[::2]), max_size=6)
_pair_values = st.lists(st.tuples(st.sampled_from(LATTICE[::2]),
                                  st.sampled_from(LATTICE[::2])), max_size=6)


@given(model_name=st.sampled_from(("coin", "bernoulli")),
       alphas=_grid_values,
       pairs=_pair_values,
       reps=st.sampled_from((1, 37, 500)))
@settings(max_examples=25, deadline=None)
def test_estimator_matches_brute_force_reference(model_name, alphas, pairs, reps):
    # coin puts T_low and T_up on a 0.5 lattice at n = 4 and 16, so ties
    # with the 0.5-lattice thresholds are frequent
    model = MODEL_REGISTRY[model_name]
    n_values = (1, 4, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # inverted pairs are allowed
        plan = SimPlan(model, n_values=n_values, reps=reps, seed=8,
                       alpha_one_sided=alphas, alpha_two_sided=pairs)
    mom = moments_by_enumeration(model)
    sim = estimate_events(plan, mom, workers=1)
    reference = _reference_estimate(plan, mom)
    for n in n_values:
        assert [r.count for r in sim.rows_for(n)] == reference[n]


def test_runs_of_blocks_match_brute_force_reference():
    # nine blocks per n, the last one short: one run of nine at one worker,
    # runs of four and five at two; n = 16 is tabled and n = 1024 is not
    model = MODEL_REGISTRY["bernoulli"]
    mom = moments_by_enumeration(model)
    plan = SimPlan(model, n_values=(16, 1024), reps=8 * BLOCK_SIZE + 37, seed=23)
    assert is_tabled(MinMaxLaw.from_model(model), 16)
    assert not is_tabled(MinMaxLaw.from_model(model), 1024)
    reference = _reference_estimate(plan, mom)
    for workers in (1, 2):
        sim = estimate_events(plan, mom, workers=workers)
        for n in plan.n_values:
            assert [r.count for r in sim.rows_for(n)] == reference[n], (workers, n)


def _repeated_hull_model():
    # the first and third focal elements share the hull (0, 1)
    return BeliefModel(
        [(FocalElement([(0.0, 1.0)]), 0.3),
         (FocalElement([(1.0, 1.0)]), 0.2),
         (FocalElement([(0.0, 0.25), (0.75, 1.0)]), 0.25),
         (FocalElement([(0.0, 0.0)]), 0.25)], 1.0)


def _merged_hull_model():
    return BeliefModel(
        [(FocalElement([(0.0, 1.0)]), math.fsum((0.3, 0.25))),
         (FocalElement([(1.0, 1.0)]), 0.2),
         (FocalElement([(0.0, 0.0)]), 0.25)], 1.0)


class TestRepeatedHull:
    def test_law_merges_in_first_occurrence_order(self):
        law = MinMaxLaw.from_model(_repeated_hull_model())
        assert law.mins.tolist() == [0.0, 1.0, 0.0]
        assert law.maxs.tolist() == [1.0, 1.0, 0.0]
        assert law.masses.tolist() == [math.fsum((0.3, 0.25)), 0.2, 0.25]

    def test_law_keeps_distinct_hulls(self, bernoulli):
        law = MinMaxLaw.from_model(bernoulli)
        assert law.masses.tolist() == [m for _, m in bernoulli.focal]
        assert law.mins.tolist() == [f.min for f, _ in bernoulli.focal]

    def test_estimator_sees_only_the_law(self):
        plan = SimPlan(_repeated_hull_model(), n_values=(3, 40), reps=20_000, seed=4)
        mom = moments_by_enumeration(plan.model)
        sim = estimate_events(plan, mom, workers=1)
        for workers in (2, 3):
            assert estimate_events(plan, mom, workers=workers) == sim
        merged = SimPlan(_merged_hull_model(), n_values=(3, 40), reps=20_000, seed=4)
        again = estimate_events(merged, moments_by_enumeration(merged.model), workers=1)
        assert [r.count for r in again.rows] == [r.count for r in sim.rows]

    def test_zero_mass_focal_elements_are_rejected_at_construction(self):
        # a zero-mass hull would put 0 * log(0) = NaN into the cell law
        # and a 0 / 0 share into the split tree, so no model holds one
        base = _merged_hull_model()
        with pytest.raises(ValueError, match="^mass #3 must be > 0"):
            BeliefModel(list(base.focal) + [(FocalElement([(0.0, 0.5)]), 0.0)],
                        base.bound)
        # bernoulli_model drops its own zero masses, so p_low = 0 still builds
        model = bernoulli_model(0.0, 0.6)
        assert MinMaxLaw.from_model(model).masses.tolist() == [0.4, 0.6]

    def test_n1_matches_exact_belief(self):
        model = _repeated_hull_model()
        mom = moments_by_enumeration(model)
        plan = SimPlan(model, n_values=(1,), reps=120_000, seed=32,
                       alpha_one_sided=(-1.0, 0.3, 1.2), alpha_two_sided=())
        for row in estimate_events(plan, mom).rows:
            if row.kind == ONE_SIDED_LOWER:
                event = IntervalEvent.at_least(mom.lower_mean + row.alpha1 * mom.lower_sd)
            else:
                event = IntervalEvent.less_than(mom.upper_mean + row.alpha1 * mom.upper_sd)
            exact = belief(model, event)
            assert abs(row.frequency - exact) <= 4 * row.se + 1e-9, (
                row.kind, row.alpha1, row.frequency, exact)

    def test_sample_trial_draws_from_the_law(self):
        repeated = MinMaxLaw.from_model(_repeated_hull_model())
        merged = MinMaxLaw.from_model(_merged_hull_model())
        for n in (7, 5000):  # cell law and split tree
            for a, b in zip(_draw_sums(5, n, 0, 200, repeated),
                            _draw_sums(5, n, 0, 200, merged)):
                assert np.array_equal(a, b)
        reps = 4000
        s_min, s_max = _draw_sums(6, 1, 0, reps, repeated)
        wide = np.mean((s_min == 0.0) & (s_max == 1.0))
        assert abs(wide - 0.55) < 4 * math.sqrt(0.55 * 0.45 / reps)


def _compositions(n, k):
    """Vectors of k non-negative integers summing to n, lexicographically."""
    if k == 1:
        return [(n,)]
    return [(c, *rest) for c in range(n + 1) for rest in _compositions(n - c, k - 1)]


def _exact_pmf(vector, masses):
    """Multinomial probability of one count vector, in fractions."""
    p = Fraction(math.factorial(sum(vector)))
    for c, m in zip(vector, masses):
        p *= Fraction(m)**c / math.factorial(c)
    return p


def _non_dyadic_model():
    # endpoints 0.1, 0.3, 0.7 and 0.2 are not exact in binary, so hull sums
    # round and their bits depend on the order of the additions
    return BeliefModel(
        [(FocalElement([(0.1, 0.3)]), 0.25),
         (FocalElement([(0.2, 0.7)]), 0.35),
         (FocalElement([(0.3, 0.3)]), 0.1),
         (FocalElement([(0.1, 0.2), (0.3, 0.7)]), 0.3)], 1.0)


_MASSES = ((1.0,), (0.5, 0.5), (0.3, 0.3, 0.4), (0.1, 0.25, 0.3, 0.35))


def _z_test(cells, reps, context):
    """Bonferroni z-test of observed counts against their probabilities,
    ``cells`` a list of (p, count) over ``reps`` trials; a p of 0 or 1
    must be met exactly."""
    from scipy.stats import norm

    z_max = norm.isf(1e-6 / (2 * len(cells)))
    for p, count in cells:
        if 0 < p < 1:
            z = (count - reps * p) / math.sqrt(reps * p * (1 - p))
            assert abs(z) <= z_max, (context, p, count, z)
        else:
            assert count == reps * p, (context, p, count)


def _pooled(p, counts, reps):
    """(p, count) pairs of the entries with at least 20 expected trials,
    then one pooled pair for the rest."""
    big = reps * p >= 20
    return list(zip(p[big].tolist(), counts[big].tolist())) + [
        (float(p[~big].sum()), int(counts[~big].sum()))]


def _exact_cell_law(law, n, cell_of, length):
    """P(cell = c) for every cell c: the multinomial probabilities of the
    count vectors in fractions, summed per cell, divided by their total."""
    masses = law.masses.tolist()
    vectors = _compositions(n, len(masses))
    cells = cell_of(*_hull_sums(np.array(vectors, dtype=np.int64).T, law))
    probs = [Fraction(0)] * length
    for vector, cell in zip(vectors, cells.tolist()):
        probs[cell] += _exact_pmf(vector, masses)
    total = sum(probs)
    return [p / total for p in probs]


# the 21-point alpha grid of the dense_grid benchmark workload
_DENSE_GRID = tuple(-2.5 + 0.25 * i for i in range(21))

_LAW_MODELS = {**MODEL_REGISTRY, "non_dyadic": _non_dyadic_model()}


def _model_cell_law(model, n, alphas=DEFAULT_ALPHA_GRID):
    """(events, cell law) of ``model`` at n on the grid and its pairs, with
    the estimator's cell function."""
    law, mom = MinMaxLaw.from_model(model), moments_by_enumeration(model)
    events = _EventCells.build(alphas, default_alpha_pairs(alphas))
    return events, _cell_law(law, n, partial(_normalized_cells, events, mom, n), events.size)


class TestCellLaw:
    @pytest.mark.parametrize("masses", _MASSES)
    def test_vectors_are_every_composition_once(self, masses):
        for n in range(1, 9):
            columns = _count_vectors(n, len(masses))
            assert list(zip(*(c.tolist() for c in columns))) == _compositions(n, len(masses))

    @pytest.mark.parametrize("masses", _MASSES)
    def test_pmf_matches_exact_fractions(self, masses):
        for n in range(1, 9):
            columns = _count_vectors(n, len(masses))
            pmf = _multinomial_pmf(columns, np.array(masses), n)
            for vector, p in zip(_compositions(n, len(masses)), pmf):
                exact = _exact_pmf(vector, masses)
                assert abs(Fraction(float(p)) - exact) <= Fraction(1, 10**12) * exact

    @pytest.mark.parametrize("name", sorted(_LAW_MODELS))
    def test_cell_law_matches_exact_fractions(self, name):
        model = _LAW_MODELS[name]
        law, mom = MinMaxLaw.from_model(model), moments_by_enumeration(model)
        for n in range(1, 9):
            events, p_cell = _model_cell_law(model, n)
            assert is_tabled(law, n) and len(p_cell) == events.size
            exact = _exact_cell_law(law, n, partial(_normalized_cells, events, mom, n),
                                    events.size)
            for p, want in zip(p_cell.tolist(), exact):
                assert abs(Fraction(p) - want) <= Fraction(1, 10**12) * want, (n, p, want)

    @pytest.mark.parametrize("name, n", [("bernoulli", 1), ("bernoulli", 255),
                                         ("mixed", 64), ("coin", 20000)])
    def test_vector_law_is_the_normalized_pmf(self, name, n):
        # with one cell per count vector, the cell law is the pmf itself
        law = MinMaxLaw.from_model(MODEL_REGISTRY[name])
        k = len(law.masses)
        p_cell = _vector_law(law, n)
        assert len(p_cell) == math.comb(n + k - 1, k - 1)
        pmf = _multinomial_pmf(_count_vectors(n, k), law.masses, n)
        assert np.array_equal(p_cell, pmf / pmf.sum())
        assert abs(p_cell.sum() - 1.0) <= 1e-13

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_n1_cell_law_is_the_exact_belief(self, name):
        # at n = 1, {S_min >= t} and {S_max < t} are containments of one
        # coordinate's focal element, so the one-sided probabilities of the
        # cell law are beliefs
        model = MODEL_REGISTRY[name]
        mom = moments_by_enumeration(model)
        events, p_cell = _model_cell_law(model, 1)
        exact = events.counts(p_cell).tolist()
        k = len(DEFAULT_ALPHA_GRID)
        for i, a in enumerate(DEFAULT_ALPHA_GRID):
            lower = IntervalEvent.at_least(mom.lower_mean + a * mom.lower_sd)
            upper = IntervalEvent.less_than(mom.upper_mean + a * mom.upper_sd)
            assert exact[i] == pytest.approx(belief(model, lower), rel=0, abs=1e-15), a
            assert exact[k + i] == pytest.approx(belief(model, upper), rel=0, abs=1e-15), a

    @pytest.mark.parametrize("name, n", [("mixed", 16), ("mixed", 64), ("bernoulli", 16),
                                         ("bernoulli", 64), ("bernoulli", 256)])
    def test_block_histograms_follow_the_cell_law(self, name, n):
        """Bonferroni z-test of eight summed block histograms on the
        21-point grid against the cell law, at every tabled (law, n) of the
        benchmark's plans; cells with fewer than 20 expected trials are
        pooled."""
        model = MODEL_REGISTRY[name]
        events, p_cell = _model_cell_law(model, n, _DENSE_GRID)
        assert is_tabled(MinMaxLaw.from_model(model), n)
        blocks = 8
        histogram = sum(_block_stream(37, n, b).multinomial(BLOCK_SIZE, p_cell)
                        for b in range(blocks))
        reps = blocks * BLOCK_SIZE
        assert histogram.sum() == reps and not histogram[p_cell == 0].any()
        _z_test(_pooled(p_cell, histogram, reps), reps, (name, n))

    @pytest.mark.parametrize("name, n", [("coin", 20000), ("union_parts", 65535)])
    def test_two_hull_events_are_binomial_tails(self, name, n):
        """Exact P_n of each one-sided event, read from the cell law through
        the tally's prefix sums.  With two hulls the count vectors are
        (c, n - c), so each event is the c on one side of the lattice
        threshold where the float statistic crosses alpha: a tail of
        Bin(n, m_0).  Log-factorials near lgamma(65536) ~ 6.6e5 keep about
        1e-10 relative per entry, which the normalization keeps out of the
        probabilities."""
        from scipy.stats import binom

        model = MODEL_REGISTRY[name]
        law, mom = MinMaxLaw.from_model(model), moments_by_enumeration(model)
        events, p_cell = _model_cell_law(model, n)
        assert is_tabled(law, n)
        exact = events.counts(p_cell)
        c = np.arange(n + 1, dtype=float)
        root = math.sqrt(n)
        t_low = (c * law.mins[0] + (n - c) * law.mins[1] - n * mom.lower_mean) / (
            root * mom.lower_sd)
        t_up = (c * law.maxs[0] + (n - c) * law.maxs[1] - n * mom.upper_mean) / (
            root * mom.upper_sd)
        alphas = DEFAULT_ALPHA_GRID
        for i, a in enumerate(alphas):
            for got, inside in ((exact[i], t_low >= a), (exact[len(alphas) + i], t_up < a)):
                (where,) = np.nonzero(inside)
                if not where.size:
                    want = 0.0
                else:
                    lo, hi = int(where[0]), int(where[-1])
                    assert where.size == hi - lo + 1 and (lo == 0 or hi == n), (a, lo, hi)
                    want = binom.cdf(hi, n, law.masses[0]) if lo == 0 else binom.sf(
                        lo - 1, n, law.masses[0])
                assert abs(got - want) <= 1e-11, (a, got, want)

    def test_size_limit_picks_the_path(self, monkeypatch):
        # bernoulli has 3 hulls: comb(16 + 2, 2) = 153 count vectors at n = 16
        law = MinMaxLaw.from_model(MODEL_REGISTRY["bernoulli"])
        n, size = 16, 153
        monkeypatch.setattr(montecarlo, "TABLE_MAX_VECTORS", size)
        assert is_tabled(law, n)
        # at the limit a block is one multinomial over the vectors' pmf
        columns = _count_vectors(n, 3)
        pmf = _multinomial_pmf(columns, law.masses, n)
        drawn = _block_stream(3, n, 0).multinomial(500, pmf / pmf.sum())
        index = np.repeat(np.arange(size), drawn)
        tabled = [s[index] for s in _hull_sums(columns, law)]
        drawn = _draw_sums(3, n, 0, 500, law)
        assert all(np.array_equal(a, b) for a, b in zip(drawn, tabled))
        # above the limit the split tree draws, its root tabled on the
        # 17 counts 0..16, and below those 17 its root is a binomial too
        for limit, tabled_root in ((size - 1, True), (16, False)):
            monkeypatch.setattr(montecarlo, "TABLE_MAX_VECTORS", limit)
            assert not is_tabled(law, n) and (_tree_root(law, n) is not None) == tabled_root
            counts = _replay_tree(3, n, 0, 500, law, tabled_root)
            drawn = _draw_sums(3, n, 0, 500, law)
            assert all(np.array_equal(a, b) for a, b in zip(drawn, _hull_sums(counts, law)))

    def test_two_paths_agree_in_law(self, monkeypatch):
        """mixed, n = 64: the cell law and the split tree, with a tabled and
        with a binomial root, each match the exact event probabilities of
        the cell law (one Bonferroni z over all three draws)."""
        model = MODEL_REGISTRY["mixed"]
        mom = moments_by_enumeration(model)
        plan = SimPlan(model, n_values=(64,), reps=100_000, seed=12)
        law = MinMaxLaw.from_model(model)
        events, p_cell = _model_cell_law(model, 64)
        exact = events.counts(p_cell).tolist()
        sims = [estimate_events(plan, mom, workers=1)]
        for limit, tabled_root in ((100, True), (0, False)):
            monkeypatch.setattr(montecarlo, "TABLE_MAX_VECTORS", limit)
            assert not is_tabled(law, 64) and (_tree_root(law, 64) is not None) == tabled_root
            sims.append(estimate_events(plan, mom, workers=1))
        counts = [[r.count for r in sim.rows] for sim in sims]
        assert counts[0] != counts[1] != counts[2] != counts[0]
        _z_test([(p, c) for row in counts for p, c in zip(exact, row)], plan.reps, "mixed")

    def test_table_cells_match_multiply_accumulate_sums(self):
        # the cell law sums the pmf over the cells of the pure-Python
        # multiply-accumulate sums, normalized out of place; thresholds
        # taken from those normalized sums put many vectors on exact ties,
        # where one ulp in a sum or in the normalization moves the cell
        model = _non_dyadic_model()
        law, mom = MinMaxLaw.from_model(model), moments_by_enumeration(model)
        assert len(law.masses) == 4
        for n in (1, 3, 10, 37):
            vectors = _compositions(n, 4)
            sums = []
            for ends in (law.mins.tolist(), law.maxs.tolist()):
                expected = []
                for vector in vectors:
                    s = vector[0] * ends[0]
                    for c, e in zip(vector[1:], ends[1:]):
                        s += c * e
                    expected.append(s)
                sums.append(np.array(expected))
            root = math.sqrt(n)
            t_low = (sums[0] - n * mom.lower_mean) / (root * mom.lower_sd)
            t_up = (sums[1] - n * mom.upper_mean) / (root * mom.upper_sd)
            step = max(1, len(vectors) // 12)
            alphas = t_low[::step].tolist() + t_up[::step].tolist()
            events = _EventCells.build(alphas, list(zip(alphas, alphas[::-1])))
            p_cell = _cell_law(law, n, partial(_normalized_cells, events, mom, n),
                               events.size)
            expected = events.cells(t_low, t_up)
            pmf = _multinomial_pmf(_count_vectors(n, 4), law.masses, n)
            want = np.bincount(expected, weights=pmf, minlength=events.size)
            assert np.array_equal(p_cell, want / want.sum())
            assert np.flatnonzero(p_cell).tolist() == sorted(set(expected.tolist()))
            # the split tree gets int64 counts; same bits
            int_sums = _hull_sums(np.array(vectors, dtype=np.int64).T, law)
            for got, want in zip(int_sums, sums):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# integer endpoints, so hull sums are exact; masses with no mirror
# symmetry, so every split's share differs from its complement
_TREE_LAWS = {
    2: ([0, 1], [2, 1], [0.35, 0.65]),
    3: ([0, 1, 3], [2, 1, 3], [0.2, 0.5, 0.3]),
    4: ([0, 1, 3, 2], [2, 1, 3, 5], [0.1, 0.25, 0.3, 0.35]),
    8: ([0, 1, 3, 2, 0, 2, 1, 3], [2, 1, 3, 5, 1, 2, 3, 4],
        [0.05, 0.2, 0.1, 0.2, 0.12, 0.08, 0.13, 0.12]),
}


def _exact_sum_law(law, n):
    """P(S_min = s, S_max = t) for every (s, t), summed in fractions over
    the count vectors."""
    masses = law.masses.tolist()
    probs = {}
    for vector in _compositions(n, len(masses)):
        key = (float(np.dot(vector, law.mins)), float(np.dot(vector, law.maxs)))
        probs[key] = probs.get(key, 0) + _exact_pmf(vector, masses)
    return probs


class TestSplitCounts:
    @pytest.mark.parametrize("n", [1, 7, 1024, 16384, 2**20])
    @pytest.mark.parametrize("p", [1e-3, 0.3, 0.5, 0.999])
    def test_root_pmf_is_the_binomial_pmf(self, n, p):
        from scipy.stats import binom

        lo, pmf = _binomial_window(n, p, 1.0 - p)
        hi = lo + len(pmf) - 1
        assert 0 <= lo <= hi <= n and abs(pmf.sum() - 1.0) <= 1e-13
        full = np.zeros(n + 1)
        full[lo:hi + 1] = pmf
        assert np.abs(full - binom.pmf(np.arange(n + 1), n, p)).max() <= 1e-12
        assert np.abs(np.cumsum(full) - binom.cdf(np.arange(n + 1), n, p)).max() <= 1e-12
        dropped = (binom.cdf(lo - 1, n, p) if lo > 0 else 0.0) + binom.sf(hi, n, p)
        assert dropped < 2.0**-60

    def test_window_wider_than_the_limit_is_not_built(self, monkeypatch):
        lo, pmf = _binomial_window(4096, 0.3, 0.7)
        monkeypatch.setattr(montecarlo, "TABLE_MAX_VECTORS", len(pmf))
        assert _binomial_window(4096, 0.3, 0.7)[0] == lo
        monkeypatch.setattr(montecarlo, "TABLE_MAX_VECTORS", len(pmf) - 1)
        assert _binomial_window(4096, 0.3, 0.7) is None

    @pytest.mark.parametrize("n", [256, 1024, 4096, 16384])
    def test_root_column_replays_the_binomial_multinomial(self, n):
        # mixed's root splits hulls {0, 1} from {2, 3}: their count per trial
        law = MinMaxLaw.from_model(MODEL_REGISTRY["mixed"])
        root = _tree_root(law, n)
        assert root is not None
        counts = _split_counts(law, n, root, _block_stream(41, n, 0), BLOCK_SIZE)
        left, right = math.fsum(law.masses[:2]), math.fsum(law.masses[2:])
        replay = _replay_root(_block_stream(41, n, 0), n, left / (left + right),
                              right / (left + right), BLOCK_SIZE)
        assert np.array_equal(counts[0] + counts[1], replay)
        assert np.all(np.diff(replay) >= 0)  # sorted, as the second level needs

    def test_root_beyond_any_window_is_a_binomial(self):
        # n p (1 - p) = 2**38: the window would hold ~10**7 counts
        law = MinMaxLaw.from_model(MODEL_REGISTRY["mixed"])
        n = 2**40
        root = _tree_root(law, n)
        assert root is None
        counts = _split_counts(law, n, root, _block_stream(1, n, 0), 1000)
        assert np.all(sum(counts) == n) and all(c.dtype == np.int64 for c in counts)

    @pytest.mark.parametrize("k", sorted(_TREE_LAWS))
    @pytest.mark.parametrize("root", ["tabled", "binomial"])
    def test_sums_follow_the_count_vector_law(self, monkeypatch, k, root):
        """Bonferroni z-test of the tree's (S_min, S_max) frequencies against
        the exact law; (s, t) with fewer than 20 expected trials are pooled."""
        law = MinMaxLaw(*(np.array(v, dtype=float) for v in _TREE_LAWS[k]))
        n = 6 if k == 8 else 9
        if root == "binomial":
            monkeypatch.setattr(montecarlo, "TABLE_MAX_VECTORS", 0)
            assert not is_tabled(law, n)
        window = _tree_root(law, n)
        assert (window is None) == (root == "binomial")
        blocks = 8
        sums = np.concatenate([
            np.stack(_hull_sums(_split_counts(law, n, window, _block_stream(31, n, b),
                                              BLOCK_SIZE), law))
            for b in range(blocks)], axis=1)
        keys, counts = np.unique(sums, axis=1, return_counts=True)
        observed = dict(zip(map(tuple, keys.T.tolist()), counts.tolist()))
        reps = blocks * BLOCK_SIZE
        exact = _exact_sum_law(law, n)
        p = np.array([float(v) for v in exact.values()])
        drawn = np.array([observed.pop(key, 0) for key in exact])
        assert not observed  # no (s, t) outside the support
        _z_test(_pooled(p, drawn, reps), reps, (k, root))


class TestBlockKeys:
    def test_rows_of_n_do_not_depend_on_the_plan(self):
        model = MODEL_REGISTRY["mixed"]
        mom = moments_by_enumeration(model)
        alone = estimate_events(SimPlan(model, n_values=(64,), reps=20_000, seed=7), mom)
        after = estimate_events(SimPlan(model, n_values=(16, 64), reps=20_000, seed=7), mom)
        assert alone.rows_for(64) == after.rows_for(64)

    def test_mixed_paths_identical_across_workers(self):
        # bernoulli tables n = 16 and 256 (153 and 33153 vectors), not 1024
        model = MODEL_REGISTRY["bernoulli"]
        mom = moments_by_enumeration(model)
        plan = SimPlan(model, n_values=(16, 256, 1024), reps=40_000, seed=21)
        sim = estimate_events(plan, mom, workers=1)
        for workers in (2, 3):
            assert estimate_events(plan, mom, workers=workers) == sim
