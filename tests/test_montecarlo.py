import contextlib
import dataclasses
import math
import sys
import threading
import warnings
from concurrent.futures import Future
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from beliefclt import montecarlo, splittree
from beliefclt.modelio import parse_model
from beliefclt.moments import MinMaxLaw
from beliefclt.montecarlo import (
    DEFAULT_ALPHA_GRID,
    ONE_SIDED_LOWER,
    ONE_SIDED_UPPER,
    TWO_SIDED,
    _block_stream,
    _EventCells,
    _lattice_bounds,
    default_alpha_pairs,
    is_tabled,
    resolve_workers,
)
from beliefclt.splittree import (
    BLOCK_SIZE,
    _binomial_window,
    _cell_law,
    _hull_sums,
    _last_totals,
    _prefixes,
    _root_window,
    _shares,
    _split_counts,
    _spread,
    _table_sizes,
    _window,
    _window_pmfs,
)

from _helpers import random_model
from _intervals import complement


def _multinomial_pmf(columns, masses, n):
    """Multinomial probability of each count vector, from log-factorials: a
    reference independent of the windowed binomial pmfs, to about 1e-10
    relative near n = 65535."""
    log_factorial = np.array([math.lgamma(c + 1.0) for c in range(n + 1)])
    log_p = np.full(len(columns[0]), log_factorial[n])
    for column, mass in zip(columns, np.log(masses)):
        log_p += column * mass
        log_p -= log_factorial[column]
    return np.exp(log_p, out=log_p)


def _windowed_vectors(law, n):
    """(columns, pmf) slices of every count vector of (law, n) whose every
    split of the tree (``_split_counts``) lies in its ``_window``, each
    probability the product of its splits' windowed pmfs: the full
    enumeration, through the last split too, that the closed-form cell law
    is checked against.  A node splits a slice at once, after cutting it
    where it would pass a quarter block."""
    def expand(counts, pmf, todo):
        if not todo:
            yield [counts[h, h + 1] for h in range(len(law.masses))], pmf
            return
        (lo, hi), rest = todo[-1], todo[:-1]
        mid, totals, (p, q) = (lo + hi) // 2, counts[lo, hi], _shares(law.masses, lo, hi)
        start, _, stop = _window(totals, p, q)
        if len(totals) > 1 and (stop - start + 1).sum() > BLOCK_SIZE // 4:
            for part in (slice(0, len(totals) // 2), slice(len(totals) // 2, None)):
                yield from expand({node: c[part] for node, c in counts.items()}, pmf[part], todo)
            return
        row, left = _spread(start, stop - start + 1)
        first, window = _window_pmfs(totals, p, q)
        counts = {node: c[row] for node, c in counts.items() if node != (lo, hi)}
        counts[lo, mid], counts[mid, hi] = left, totals[row] - left
        rest += [node for node in ((lo, mid), (mid, hi)) if node[1] - node[0] > 1]
        yield from expand(counts, pmf[row] * window[row, left - first[row]], rest)

    k = len(law.masses)
    return expand({(0, k): np.array([n])}, np.ones(1), [(0, k)] if k > 1 else [])


def _windowed(law, n):
    """(columns, pmf) of every windowed count vector of (law, n), the
    reference enumeration's slices joined in its order."""
    slices = list(_windowed_vectors(law, n))
    return ([np.concatenate(c) for c in zip(*(columns for columns, _ in slices))],
            np.concatenate([pmf for _, pmf in slices]))


def _vector_law(law, n):
    """The law of the windowed count vectors of (law, n), in the order of
    ``_windowed``: their pmf divided by its total."""
    pmf = _windowed(law, n)[1]
    return pmf / pmf.sum()


def _reference_cell_law(law, n, cell_of, length):
    """The cell law of (law, n) by the full windowed enumeration: every
    vector's pmf in the cell of its hull sums, summed slice by slice and
    divided by the total, as the estimator built it before the last split
    was summed in closed form."""
    p_cell = np.zeros(length)
    for columns, pmf in _windowed_vectors(law, n):
        p_cell += np.bincount(cell_of(*_hull_sums(columns, law)), weights=pmf, minlength=length)
    return p_cell / p_cell.sum()


def _tree_root(law, n):
    """The root window of the split tree of (law, n), as the estimator
    builds it."""
    return _root_window(law, n, montecarlo.TABLE_MAX_VECTORS)


def _draw_counts(seed, n, block_index, size, law):
    """Hull counts of one block's trials, one column per hull: a tabled n
    draws one multinomial over the law of its windowed count vectors, any
    other n takes the split tree's counts, as the estimator draws them."""
    rng = _block_stream(seed, n, block_index)
    if not is_tabled(law, n):
        return _split_counts(law, n, _tree_root(law, n), rng, size)
    p_cell = _vector_law(law, n)
    index = np.repeat(np.arange(len(p_cell)), rng.multinomial(size, p_cell))
    return [c[index] for c in _windowed(law, n)[0]]


def _draw_sums(seed, n, block_index, size, law):
    """(S_min, S_max) of one block's trials, from ``_draw_counts``."""
    return _hull_sums(_draw_counts(seed, n, block_index, size, law), law)


def _replay_root(rng, n, p, q, size):
    """The root's left counts of one block, replayed from their definition:
    one multinomial over scipy's Bin(n, p) pmf on the window of
    ``_binomial_window``, each count value repeated as often as drawn."""
    from scipy.stats import binom

    lo, pmf = _binomial_window(n, p, q, montecarlo.TABLE_MAX_VECTORS)
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

    @pytest.mark.parametrize("seed, n, block", [(0, 1, 0), (123, 5, 7), (2**64 - 1, 1024, 3),
                                                (2**63 + 5, 2**40, 2**33)])
    def test_reset_generator_draws_the_fresh_stream(self, seed, n, block):
        # a generator set to a block's stream draws what a new Philox keyed
        # and counted by (seed, n, block) draws, also after an earlier block
        # left a buffer, a spare 32-bit half and a binomial setup behind
        def fresh():
            key = np.array([seed, 0x9E3779B97F4A7C15], dtype=np.uint64)
            counter = np.array([0, block, n, 1], dtype=np.uint64)
            return np.random.Generator(np.random.Philox(key=key, counter=counter))

        def draws(rng):
            return [rng.random(3), rng.integers(0, 10, size=5, dtype=np.uint32),
                    rng.binomial(np.array([100, 100, 7]), 0.3),
                    rng.multinomial(50, [0.2, 0.3, 0.5]), rng.standard_normal(4)]

        used = _block_stream(9, 16, 4)
        used.binomial(np.array([100, 100]), 0.3)
        used.integers(0, 10, size=3, dtype=np.uint32)
        for rng in (_block_stream(seed, n, block), _block_stream(seed, n, block, used)):
            assert all(np.array_equal(a, b) for a, b in zip(draws(rng), draws(fresh())))
        assert rng is used


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
    """A thread pool starts a thread for a task only while none is idle, so
    an estimate starts no more threads than it has runs: at most two for two
    n of one block each, and one for one."""
    started = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    mom = moments_by_enumeration(bern_plan.model)
    two_n = SimPlan(bern_plan.model, n_values=(16, 64), reps=BLOCK_SIZE, seed=5)
    serial = estimate_events(two_n, mom, workers=1)
    assert len(started) == 1
    started.clear()
    assert estimate_events(two_n, mom, workers=8) == serial
    assert 1 <= len(started) <= 2
    started.clear()
    estimate_events(SimPlan(bern_plan.model, n_values=(16,), reps=BLOCK_SIZE), mom, workers=8)
    assert len(started) == 1


def test_each_cell_law_is_built_once(monkeypatch):
    """One cell law build per tabled n at any worker count: the runs of an n
    share it, and the result does not depend on which thread built it."""
    model = MODEL_REGISTRY["bernoulli"]
    mom = moments_by_enumeration(model)
    plan = SimPlan(model, n_values=(16, 64, 2048), reps=4 * BLOCK_SIZE + 3, seed=17)
    real, built = montecarlo._cell_law, []

    def recording_cell_law(law, n, *args):
        built.append(n)
        return real(law, n, *args)

    monkeypatch.setattr(montecarlo, "_cell_law", recording_cell_law)
    results = []
    for workers in (1, 2, 8):
        built.clear()
        results.append(estimate_events(plan, mom, workers=workers))
        assert sorted(built) == [16, 64], workers
    assert results[0] == results[1] == results[2]


def test_threads_share_no_state_under_stress():
    """Eight threads on fewer cores, switching every microsecond, give the
    one-thread result: eight runs per n, n = 16 tabled and n = 4096 not."""
    model = MODEL_REGISTRY["mixed"]
    mom = moments_by_enumeration(model)
    plan = SimPlan(model, n_values=(16, 4096), reps=8 * BLOCK_SIZE - 5, seed=71)
    law = MinMaxLaw.from_model(model)
    assert is_tabled(law, 16) and not is_tabled(law, 4096)
    serial = estimate_events(plan, mom, workers=1)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread = threading.Thread(
            target=lambda: results.append(estimate_events(plan, mom, workers=8)))
        thread.start()
        thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert results == [serial]


def test_moments_of_another_model_raise(coin):
    # on the lattice the estimator reads the law's own exact moments, so
    # moments that differ from them would be silently ignored
    plan = SimPlan(coin, n_values=(16,), reps=1000, seed=1)
    with pytest.raises(ValueError, match="not those of the plan's model"):
        estimate_events(plan, moments_by_enumeration(MODEL_REGISTRY["mixed"]), workers=1)
    assert estimate_events(plan, moments_by_enumeration(coin), workers=1).reps == 1000


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


def _least(a, strict):
    """The least integer x with a <= x / 4, or with a < x / 4 where
    ``strict``; +-100 for an infinite a, past every x drawn here."""
    if math.isinf(a):
        return int(math.copysign(100, a))
    return math.floor(4 * a) + 1 if strict else math.ceil(4 * a)


# x -> x * _WIDE + _OFFSET is increasing and puts every x drawn here past
# int64, so it keeps every comparison while taking the sums to two limbs;
# neighbours of x often share a hi limb, so the lo limbs must decide them
_WIDE, _OFFSET = 2**29 + 3, 12345 - 2**80


def _widened(values):
    """The two-limb thresholds (``montecarlo._limbs``) of x * _WIDE + _OFFSET."""
    return montecarlo._limbs([int(x) * _WIDE + _OFFSET for x in values], 2)


def _uncarried(values):
    """Two-limb sums of x * _WIDE + _OFFSET as a multiply-accumulate leaves
    them: up to 3 * 2**31 of each moved from the hi limb into the lo limb."""
    high, low = _widened(values)
    moved = np.arange(len(values)) % 4
    return np.array([high - moved, low + (moved << 31)])


def _integer_cells(events, x_low, x_up, limbs=1):
    """Cells of the statistics T = x / 4 of the integers x, by the integer
    thresholds ``_least`` of each grid, as the estimator reads them: on one
    limb or, widened past int64, on two."""
    low, up = ([[_least(a, strict) for a in grid.tolist()] for strict in (False, True)]
               for grid in (events.low, events.up))
    if limbs == 1:
        cells = events.cell_function(*([np.array(b, dtype=np.int64) for b in side]
                                       for side in (low, up)))
        return cells(x_low.copy(), x_up.copy())
    cells = events.cell_function(*([_widened(b) for b in side] for side in (low, up)))
    return cells(_uncarried(x_low), _uncarried(x_up))


def _cells_at(events, law, n):
    """(sums law, cell function) of the estimator at (law, n)."""
    return events.at(law, n)[:2]


def _closed_form(events, law, n):
    """The estimator's cell law of (law, n), summed in closed form over the
    last split of the tree."""
    sums_law, cell_of, bounds = events.at(law, n)
    return _cell_law(sums_law, n, cell_of, bounds, events.size)


def _exact_sides(law):
    """(endpoints, mean, variance) of the focal minimum and of the focal
    maximum, every float of the law read as the decimal it spells."""
    def read(values):
        return [Fraction(repr(x)) for x in values.tolist()]

    masses = read(law.masses)
    total = sum(masses)
    sides = []
    for ends in (read(law.mins), read(law.maxs)):
        mean = sum(m * e for m, e in zip(masses, ends)) / total
        sides.append((ends, mean, sum(m * (e - mean) ** 2 for m, e in zip(masses, ends)) / total))
    return sides


def _at_least(x, a, nv):
    """Whether x >= a * sqrt(nv), exactly, for rationals x, a and nv > 0."""
    if (x >= 0) != (a > 0):
        return x >= 0
    return x * x >= a * a * nv if x >= 0 else x * x <= a * a * nv


def _alpha_le(a, x, nv):
    """Whether a <= T for T = x / sqrt(nv)."""
    return a < 0 if math.isinf(a) else _at_least(x, Fraction(repr(a)), nv)


def _le_alpha(a, x, nv):
    """Whether T <= a for T = x / sqrt(nv)."""
    return a > 0 if math.isinf(a) else _at_least(-x, -Fraction(repr(a)), nv)


def _exact_events(columns, law, n, alphas, pairs):
    """Whether each trial, given by its hull counts, is in each event, one
    row per event in plan order, decided in rationals: T = (S - n*mean) /
    sqrt(n*var) from the exact sum S, in Python integers, and the exact
    mean and variance, each distinct sum once."""
    verdicts = []
    for ends, mean, var in _exact_sides(law):
        scale = math.lcm(*(e.denominator for e in ends))
        sums = sum(np.asarray(c, dtype=np.int64).astype(object) * int(e * scale)
                   for c, e in zip(columns, ends))
        values, inverse = np.unique(sums, return_inverse=True)
        x = [Fraction(v, scale) - n * mean for v in values.tolist()]

        def verdict(test, a, x=x, nv=n * var, inverse=inverse):
            return np.array([test(a, v, nv) for v in x], dtype=bool)[inverse]
        verdicts.append(verdict)
    low, up = verdicts
    rows = ([low(_alpha_le, a) for a in alphas] + [~up(_alpha_le, a) for a in alphas]
            + [low(_alpha_le, a1) & up(_le_alpha, a2) for a1, a2 in pairs])
    return np.array(rows, dtype=bool).reshape(len(rows), len(columns[0]))


def _membership(events):
    """Whether each cell is in each event: one row per event in plan order,
    one column per cell."""
    return np.array([events.counts(row) for row in np.eye(events.size, dtype=np.int64)]).T


LATTICE = tuple(0.25 * i for i in range(-10, 11))
_thresholds = st.one_of(
    st.sampled_from(LATTICE),
    st.floats(-4.0, 4.0),
    st.sampled_from((0.0, -0.0, math.inf, -math.inf)),
)


def _looped(events, low, up):
    """The cell function of integer bounds by one comparison per bound and
    trial, as ``_EventCells.cell_function`` defines it."""
    def rank(bounds, x):
        return (np.asarray(bounds)[:, None] <= x).sum(axis=0)
    return lambda x_low, x_up: (rank(low[0], x_low) * (2 * len(events.up) + 1)
                                + rank(up[0], x_up) + rank(up[1], x_up))


class TestEventCells:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, data):
        # unsorted, duplicated, inverted and infinite thresholds, signed
        # zeros, empty grids, and statistics drawn partly from the thresholds
        # themselves (exact ties), on one limb and on two; the block is
        # split in two to exercise the merge
        alphas = data.draw(st.lists(_thresholds, max_size=10))
        pairs = data.draw(st.lists(st.tuples(_thresholds, _thresholds), max_size=12))
        ties = [round(4 * t) for t in alphas + [x for p in pairs for x in p] if math.isfinite(t)]
        stat = st.integers(-24, 24)
        if ties:
            stat = stat | st.sampled_from(ties)
        size = data.draw(st.integers(0, 40))
        x_low = np.array(data.draw(st.lists(stat, min_size=size, max_size=size)), dtype=np.int64)
        x_up = np.array(data.draw(st.lists(stat, min_size=size, max_size=size)), dtype=np.int64)
        cut = data.draw(st.integers(0, size))

        events = _EventCells.build(alphas, pairs)
        cells = _integer_cells(events, x_low, x_up, data.draw(st.sampled_from((1, 2))))
        assert cells.dtype == np.min_scalar_type(events.size - 1)
        assert np.all(cells < events.size)
        histogram = (np.bincount(cells[:cut], minlength=events.size)
                     + np.bincount(cells[cut:], minlength=events.size))
        lower, upper, two = _brute_counts(x_low / 4, x_up / 4, alphas, pairs)
        assert events.counts(histogram).tolist() == lower + upper + two

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_rank_tables_are_the_comparison_loop(self, data):
        # integer bounds, duplicated or out of order, and integer sums on
        # both sides of their span: the tables give the loop's cells, and
        # so do the same bounds and sums widened to two limbs
        bound = st.integers(-20, 20)
        events = _EventCells.build(data.draw(st.lists(st.floats(-3, 3), max_size=6)),
                                   data.draw(st.lists(st.tuples(st.floats(-3, 3),
                                                                st.floats(-3, 3)), max_size=6)))
        low, up = ([np.array(data.draw(st.lists(bound, min_size=len(grid), max_size=len(grid))),
                             dtype=np.int64) for _ in range(2)]
                   for grid in (events.low, events.up))
        size = data.draw(st.integers(0, 30))
        sums = [np.array(data.draw(st.lists(st.integers(-30, 30), min_size=size,
                                            max_size=size)), dtype=np.int64)
                for _ in range(2)]
        loop = _looped(events, low, up)(*sums)
        tabled = events.cell_function(low, up)(*(s.copy() for s in sums))
        assert tabled.dtype == np.min_scalar_type(events.size - 1)
        assert np.array_equal(tabled, loop)
        wide = events.cell_function(*([_widened(b) for b in side] for side in (low, up)))
        assert np.array_equal(wide(*(_uncarried(s) for s in sums)), loop)

    def test_span_beyond_the_limit_is_not_tabled(self, monkeypatch):
        # a span of max - min + 2 = 6 entries: tabled at a limit of 6, and
        # compared bound by bound, leaving the sums as they are, at 5
        events = _EventCells.build([0.0, 1.0], [])
        low = np.array([3, 7], dtype=np.int64), np.array([4, 7], dtype=np.int64)
        up = np.array([2, 5], dtype=np.int64), np.array([3, 6], dtype=np.int64)
        sums = np.arange(-2, 12, dtype=np.int64)
        want = _looped(events, low, up)(sums, sums)
        for limit, clipped in ((6, True), (5, False)):
            monkeypatch.setattr(montecarlo, "TABLE_MAX_VECTORS", limit)
            x_low, x_up = sums.copy(), sums.copy()
            assert np.array_equal(events.cell_function(low, up)(x_low, x_up), want)
            assert np.array_equal(x_low, sums) != clipped

    def test_empty_grids(self):
        events = _EventCells.build((), ())
        assert events.size == 1
        for limbs in (1, 2):
            cells = _integer_cells(events, np.zeros(5, dtype=np.int64),
                                   np.ones(5, dtype=np.int64), limbs)
            assert np.bincount(cells).tolist() == [5]
            assert len(events.counts(np.bincount(cells))) == 0
        none = np.array([], dtype=np.int64)
        lattice = events.cell_function((none, none), (none, none))
        assert lattice(np.arange(5), np.arange(5)).tolist() == [0] * 5


@given(a=st.one_of(_thresholds, st.floats(-1e3, 1e3)),
       mean=st.fractions(-3, 3, max_denominator=20),
       var=st.one_of(st.fractions(Fraction(1, 20), 4, max_denominator=20),
                     st.sampled_from((Fraction(1, 4), Fraction(1), Fraction(9, 4)))),
       step=st.sampled_from((Fraction(1), Fraction(1, 2), Fraction(1, 10), Fraction(1, 10**6))),
       n=st.one_of(st.integers(1, 100), st.sampled_from((16, 64, 10**6, 2**40))))
@settings(max_examples=300, deadline=None)
def test_lattice_bounds_are_the_least_sums(a, mean, var, step, n):
    # many (n, var, a) put n * mean / h or a * sqrt(n * var) / h on an
    # integer, and n = 2**40 at the step 1e-6 puts the bounds past 2**53
    reach = (-4 * 10**18, 4 * 10**18)

    def least(test):
        lo, hi = reach[0] - 1, reach[1] + 1  # test(hi) holds, test(lo) does not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if test(mid * step - n * mean) else (mid, hi)
        return hi

    want = ([least(lambda x: _alpha_le(a, x, n * var))],
            [least(lambda x: not _le_alpha(a, x, n * var))])
    got = _lattice_bounds(np.array([a]), mean, var, step, n, reach)
    assert all(type(b) is int for side in got for b in side)
    assert got == want


def _reference_estimate(plan):
    """Replays the estimator's block draws, without its tally, and counts
    every event in exact rationals.

    An untabled n replays its trials' hull counts.  A tabled n replays each
    block as one multinomial over the cell law; every windowed count vector
    (the full simplex at these n) is tested
    against every event, the vectors of one cell must agree, and each draw
    of a cell counts towards the events of its vectors.
    """
    law = MinMaxLaw.from_model(plan.model)
    events = _EventCells.build(plan.alpha_one_sided, plan.alpha_two_sided)
    exact = partial(_exact_events, alphas=plan.alpha_one_sided, pairs=plan.alpha_two_sided)
    counts = {}
    for n in plan.n_values:
        blocks = [(b, min(BLOCK_SIZE, plan.reps - start))
                  for b, start in enumerate(range(0, plan.reps, BLOCK_SIZE))]
        if not is_tabled(law, n):
            drawn = [_draw_counts(plan.seed, n, b, size, law) for b, size in blocks]
            columns = [np.concatenate(c) for c in zip(*drawn)]
            counts[n] = exact(columns, law, n).sum(axis=1).tolist()
            continue
        vectors = _windowed(law, n)[0]
        in_event = exact(vectors, law, n)
        sums_law, cell_of = _cells_at(events, law, n)
        cells = cell_of(*_hull_sums(vectors, sums_law))
        member = np.zeros((len(in_event), events.size), dtype=np.int64)
        member[:, cells] = in_event
        assert np.array_equal(member[:, cells], in_event)  # one cell, one set of events
        p_cell = _closed_form(events, law, n)
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
    _check_against_reference(model_name, alphas, pairs, reps)


def _check_against_reference(model_name, alphas, pairs, reps):
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
    reference = _reference_estimate(plan)
    for n in n_values:
        assert [r.count for r in sim.rows_for(n)] == reference[n]


@pytest.mark.parametrize("flipped", [None, "low", "up"])
def test_brute_force_reference_catches_a_flipped_operator(monkeypatch, flipped):
    """``<=`` read as ``<`` on one side of ``_EventCells.cell_function``
    (the least sum with a < T where the operator asks for a <= T) drops the
    ties at coin's lattice points; a copy with no flip passes."""
    def cell_function(self, low, up):
        dtype = np.min_scalar_type(self.size - 1)
        low_rank = montecarlo._rank_function(low[1] if flipped == "low" else low[0],
                                             2 * len(self.up) + 1, dtype)
        up_rank = montecarlo._rank_function(
            np.concatenate((up[1], up[1] if flipped == "up" else up[0])), 1, dtype)
        return lambda x_low, x_up: low_rank(x_low) + up_rank(x_up)

    monkeypatch.setattr(_EventCells, "cell_function", cell_function)
    check = partial(_check_against_reference, "coin", [0.0, 0.5], [(0.0, 0.0), (-0.5, 0.5)], 500)
    if flipped is None:
        check()
    else:
        with pytest.raises(AssertionError):
            check()


def test_runs_of_blocks_match_brute_force_reference():
    # nine blocks per n, the last one short: one run of nine at one worker,
    # runs of four and five at two; n = 16 is tabled and n = 2048 is not
    model = MODEL_REGISTRY["bernoulli"]
    mom = moments_by_enumeration(model)
    plan = SimPlan(model, n_values=(16, 2048), reps=8 * BLOCK_SIZE + 37, seed=23)
    assert is_tabled(MinMaxLaw.from_model(model), 16)
    assert not is_tabled(MinMaxLaw.from_model(model), 2048)
    reference = _reference_estimate(plan)
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


def _true_run(inside, n):
    """(lo, hi): the c in [0, n] where ``inside``, monotone in c, holds,
    by bisection; lo > hi where it holds nowhere."""
    if inside(0) == inside(n):
        return (0, n) if inside(0) else (1, 0)
    lo, hi = 0, n  # inside(lo) != inside(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if inside(mid) == inside(0) else (lo, mid)
    return (0, lo) if inside(0) else (hi, n)


# the 21-point alpha grid of the dense_grid benchmark workload
_DENSE_GRID = tuple(-2.5 + 0.25 * i for i in range(21))

_LAW_MODELS = {**MODEL_REGISTRY, "non_dyadic": _non_dyadic_model()}


def _model_cell_law(model, n, alphas=DEFAULT_ALPHA_GRID):
    """(events, cell law) of ``model`` at n on the grid and its pairs, with
    the estimator's cell function."""
    law = MinMaxLaw.from_model(model)
    events = _EventCells.build(alphas, default_alpha_pairs(alphas))
    return events, _closed_form(events, law, n)


def _check_block_histograms(name, n):
    """Bonferroni z-test of the histogram of eight blocks, as the estimator
    tallies them on the 21-point grid, against the cell law of this
    module's own ``_cell_law`` import; cells with fewer than 20 expected
    trials are pooled."""
    model = MODEL_REGISTRY[name]
    law = MinMaxLaw.from_model(model)
    events, p_cell = _model_cell_law(model, n, _DENSE_GRID)
    assert is_tabled(law, n)
    blocks = 8
    reps = blocks * BLOCK_SIZE
    sampler = Future()
    sampler.set_result(montecarlo._sampler(law, events, n, True))
    _, histogram = montecarlo._tally_run(37, reps, events, {n: sampler}, (n, range(blocks)))
    assert histogram.sum() == reps and not histogram[p_cell == 0].any()
    _z_test(_pooled(p_cell, histogram, reps), reps, (name, n))


class TestCellLaw:
    @pytest.mark.parametrize("masses", _MASSES)
    def test_vectors_are_every_composition_once(self, masses):
        # up to n = 32 every window spans [0, n], so the windowed vectors are
        # the full simplex
        law = MinMaxLaw(np.zeros(len(masses)), np.zeros(len(masses)), np.array(masses))
        for n in (*range(1, 9), 32):
            columns, _ = _windowed(law, n)
            vectors = list(zip(*(c.tolist() for c in columns)))
            assert sorted(vectors) == _compositions(n, len(masses))
            assert all(c.dtype == np.int64 for c in columns)

    @pytest.mark.parametrize("masses", _MASSES)
    def test_pmf_matches_exact_fractions(self, masses):
        law = MinMaxLaw(np.zeros(len(masses)), np.zeros(len(masses)), np.array(masses))
        for n in range(1, 9):
            columns, pmf = _windowed(law, n)
            for vector, p in zip(zip(*(c.tolist() for c in columns)), pmf.tolist()):
                exact = _exact_pmf(vector, masses)
                assert abs(Fraction(p) - exact) <= Fraction(1, 10**12) * exact

    @pytest.mark.parametrize("name", sorted(_LAW_MODELS))
    def test_cell_law_matches_exact_fractions(self, name):
        model = _LAW_MODELS[name]
        law = MinMaxLaw.from_model(model)
        for n in range(1, 9):
            events, p_cell = _model_cell_law(model, n)
            assert is_tabled(law, n) and len(p_cell) == events.size
            sums_law, cell_of = _cells_at(events, law, n)
            exact = _exact_cell_law(sums_law, n, cell_of, events.size)
            for p, want in zip(p_cell.tolist(), exact):
                assert abs(Fraction(p) - want) <= Fraction(1, 10**12) * want, (n, p, want)

    @pytest.mark.parametrize("name", sorted(_LAW_MODELS))
    def test_closed_form_matches_the_full_enumeration(self, name):
        # at every tabled n <= 90, summing the last split in closed form
        # gives the full windowed enumeration's cell law to 1e-15
        # absolute, on the same support
        model = _LAW_MODELS[name]
        law = MinMaxLaw.from_model(model)
        events = _EventCells.build(DEFAULT_ALPHA_GRID, default_alpha_pairs())
        for n in range(1, 91):
            assert is_tabled(law, n)
            sums_law, cell_of = _cells_at(events, law, n)
            want = _reference_cell_law(sums_law, n, cell_of, events.size)
            got = _closed_form(events, law, n)
            assert np.abs(got - want).max() <= 1e-15, n
            assert np.array_equal(got > 0, want > 0), n

    def test_closed_form_matches_the_full_enumeration_of_mixed_at_256(self):
        # 31476 prefixes against 2633569 windowed vectors, on the 21-point
        # grid and its pairs
        model = MODEL_REGISTRY["mixed"]
        law = MinMaxLaw.from_model(model)
        assert is_tabled(law, 256)
        events = _EventCells.build(_DENSE_GRID, default_alpha_pairs(_DENSE_GRID))
        sums_law, cell_of = _cells_at(events, law, 256)
        want = _reference_cell_law(sums_law, 256, cell_of, events.size)
        got = _closed_form(events, law, 256)
        assert np.abs(got - want).max() <= 1e-15
        assert np.array_equal(got > 0, want > 0)

    @pytest.mark.parametrize("name, n", [("bernoulli", 1), ("bernoulli", 255),
                                         ("mixed", 64), ("coin", 20000)])
    def test_vector_law_is_the_normalized_pmf(self, name, n):
        # the law of the windowed count vectors is their normalized pmf;
        # it matches the multinomial pmf of those vectors (scipy's binomial
        # with two hulls, log-factorials at the small n of more), and the
        # vectors outside the windows hold no mass to speak of.  Summed per
        # cell, it is the closed form's cell law to 1e-15.
        from scipy.stats import binom

        model = MODEL_REGISTRY[name]
        law = MinMaxLaw.from_model(model)
        columns, pmf = _windowed(law, n)
        p_cell = _vector_law(law, n)
        assert np.array_equal(p_cell, pmf / pmf.sum())
        events, closed = _model_cell_law(model, n)
        sums_law, cell_of = _cells_at(events, law, n)
        cells = cell_of(*_hull_sums([c.copy() for c in columns], sums_law))
        assert np.abs(closed - np.bincount(cells, p_cell, minlength=events.size)).max() <= 1e-15
        assert abs(p_cell.sum() - 1.0) <= 1e-13
        reference = (binom.pmf(columns[0], n, law.masses[0]) if len(columns) == 2
                     else _multinomial_pmf(columns, law.masses, n))
        assert np.abs(p_cell / reference - 1.0).max() <= 1e-12
        assert abs(reference.sum() - 1.0) <= 1e-13

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
                                         ("bernoulli", 64), ("bernoulli", 256),
                                         ("bernoulli", 1024)])
    def test_block_histograms_follow_the_cell_law(self, name, n):
        _check_block_histograms(name, n)

    def test_block_histogram_test_catches_a_fault_in_the_sampled_law(self, monkeypatch):
        # the sampler's copy of the cell law is off by +-10% per cell,
        # renormalized; the oracle's copy is not
        real = montecarlo._cell_law

        def faulty(*args):
            p_cell = real(*args) * np.where(np.arange(args[-1]) % 2, 0.9, 1.1)
            return p_cell / p_cell.sum()

        monkeypatch.setattr(montecarlo, "_cell_law", faulty)
        for name, n in (("mixed", 16), ("bernoulli", 64)):
            with pytest.raises(AssertionError):
                _check_block_histograms(name, n)

    @pytest.mark.parametrize("name, n", [("coin", 20000), ("union_parts", 65535)])
    def test_two_hull_events_are_binomial_tails(self, name, n):
        """Exact P_n of each one-sided event, read from the cell law through
        the tally's prefix sums.  With two hulls the count vectors are
        (c, n - c), so each event is the c on one side of the lattice point
        where the exact statistic crosses alpha (found by bisection): a tail
        of Bin(n, m_0).  The root's window pmf, from the ratio recurrence,
        is one slice; its tails were 4.4e-15 off scipy's at n = 65535."""
        from scipy.stats import binom

        model = MODEL_REGISTRY[name]
        law = MinMaxLaw.from_model(model)
        events, p_cell = _model_cell_law(model, n)
        assert is_tabled(law, n)
        exact = events.counts(p_cell)
        alphas = DEFAULT_ALPHA_GRID
        for (ends, mean, var), offset, tests in zip(
                _exact_sides(law), (0, len(alphas)),
                (_alpha_le, lambda a, x, nv: not _alpha_le(a, x, nv))):
            for i, a in enumerate(alphas):
                def inside(c):
                    return tests(a, c * ends[0] + (n - c) * ends[1] - n * mean, n * var)
                lo, hi = _true_run(inside, n)
                want = (0.0 if lo > hi else binom.cdf(hi, n, law.masses[0]) if lo == 0
                        else binom.sf(lo - 1, n, law.masses[0]))
                assert abs(exact[offset + i] - want) <= 1e-14, (a, exact[offset + i], want)

    @pytest.mark.parametrize("p_low, p_high", [(0.3, 0.7), (0.1, 0.7)])
    def test_bernoulli_events_at_n1024_are_binomial_tails(self, p_low, p_high):
        """The tabled law of ``bernoulli_model`` at n = 1024 on the 21-point
        grid, read through the tally's prefix sums, against scipy: S_min/h =
        c0 ~ Bin(n, p_low), so each one-sided event is a binomial tail and
        each two-sided one a sum of tails (``_bernoulli_exact_events``)."""
        model = bernoulli_model(p_low, p_high)
        law = MinMaxLaw.from_model(model)
        assert is_tabled(law, 1024)
        events, p_cell = _model_cell_law(model, 1024, _DENSE_GRID)
        want = _bernoulli_exact_events(law, 1024, _DENSE_GRID, default_alpha_pairs(_DENSE_GRID))
        assert np.abs(events.counts(p_cell) - want).max() <= 1e-14

    def test_size_limit_picks_the_path(self, monkeypatch):
        # bernoulli has 3 hulls: comb(16 + 2, 2) = 153 count vectors at
        # n = 16, every one inside the windows
        law = MinMaxLaw.from_model(MODEL_REGISTRY["bernoulli"])
        n, size = 16, 153
        assert _table_sizes(law, n, 2**40) == (17, size)
        monkeypatch.setattr(montecarlo, "TABLE_MAX_VECTORS", size)
        assert is_tabled(law, n)
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
            # a plan decides its tabled n once, so each limit takes a new one
            sims.append(estimate_events(dataclasses.replace(plan), mom, workers=1))
        counts = [[r.count for r in sim.rows] for sim in sims]
        assert counts[0] != counts[1] != counts[2] != counts[0]
        _z_test([(p, c) for row in counts for p, c in zip(exact, row)], plan.reps, "mixed")

    def test_cells_settle_near_ties_exactly(self, monkeypatch):
        # thresholds taken from the float statistics of the count vectors
        # put each of those vectors within an ulp or so of a threshold, and
        # alpha = 0 at n = 20 exactly on one (20 * 0.155 = 3.1 is a lattice
        # point of the step 1/10): the cells must hold the exact decisions
        model = _non_dyadic_model()
        law, mom = MinMaxLaw.from_model(model), moments_by_enumeration(model)
        assert law.lattice[0] == Fraction(1, 10)
        real_runs, runs = splittree._runs, []

        def recording_runs(x, steps, bounds, start, stop):
            edges = real_runs(x, steps, bounds, start, stop)
            runs.append(([side[:, 0].tolist() for side in x], [int(v) for v in steps],
                         start[:, 0].tolist(), stop[:, 0].tolist(), edges.tolist()))
            return edges

        monkeypatch.setattr(splittree, "_runs", recording_runs)
        for n in (1, 3, 10, 20, 37):
            columns = np.array(_compositions(n, 4), dtype=np.int64).T
            s_min, s_max = _hull_sums(columns, law)
            root = math.sqrt(n)
            t_low = (s_min - n * mom.lower_mean) / (root * mom.lower_sd)
            t_up = (s_max - n * mom.upper_mean) / (root * mom.upper_sd)
            step = max(1, len(s_min) // 12)
            alphas = t_low[::step].tolist() + t_up[::step].tolist() + [0.0]
            pairs = list(zip(alphas, alphas[::-1]))
            events = _EventCells.build(alphas, pairs)
            sums_law, cell_of = _cells_at(events, law, n)
            assert sums_law.mins.dtype == np.int64
            cells = cell_of(*_hull_sums(columns, sums_law))
            member = _membership(events)
            assert np.array_equal(member[:, cells], _exact_events(columns, law, n, alphas, pairs))
            # the closed form reads the cell of each run of the last split's
            # count at its first count, so every count of a run must have
            # that one exact cell: integer comparisons, whatever order the
            # masses are summed in
            sums = zip(*(s.tolist() for s in _hull_sums(columns, sums_law)))
            exact_cell = dict(zip(sums, cells.tolist()))
            runs.clear()
            p_cell = _closed_form(events, law, n)
            assert runs
            for (x_low, x_up), (step_low, step_up), start, stop, edges in runs:
                for row, (low, up, first, last) in zip(edges, zip(x_low, x_up, start, stop)):
                    assert row[0] == first and row[-1] == last + 1 and row == sorted(row)
                    for a, b in zip(row, row[1:]):
                        run = {exact_cell[low + c * step_low, up + c * step_up]
                               for c in range(a, b)}
                        assert len(run) <= 1, (n, low, up, a, b)
            # and the masses: the closed form matches the full windowed
            # enumeration over those cells to 1e-15, and the exact cell law
            # in fractions to 1e-12 relative, on the same support
            want = np.zeros(events.size)
            position = {v: i for i, v in enumerate(_compositions(n, 4))}
            for vectors, pmf in _windowed_vectors(law, n):
                index = [position[v] for v in zip(*(c.tolist() for c in vectors))]
                want += np.bincount(cells[index], weights=pmf, minlength=events.size)
            assert np.abs(p_cell - want / want.sum()).max() <= 1e-15
            exact = _exact_cell_law(sums_law, n, cell_of, events.size)
            assert np.flatnonzero(p_cell).tolist() == [c for c, e in enumerate(exact) if e]
            for p, e in zip(p_cell.tolist(), exact):
                assert abs(Fraction(p) - e) <= Fraction(1, 10**12) * e, (n, p, e)

    def test_table_cells_match_multiply_accumulate_sums(self):
        # past one limb no n is tabled; the split tree's hull sums, on two
        # limbs, are the exact multiply-accumulate sums S/h, and their cells
        # the exact decisions; thresholds taken from the float statistics
        # put many vectors within an ulp of one, and alpha = 0 at n = 20
        # puts some on one
        model = _non_dyadic_wide_model()
        law = MinMaxLaw.from_model(model)
        step, mins, maxs = law.lattice
        assert len(law.masses) == 4
        for n in (1, 3, 10, 20, 37):
            columns = np.array(_compositions(n, 4), dtype=np.int64).T
            vectors = columns.T.tolist()
            stats = []
            for ends, (mean, var) in zip((mins, maxs), law.sides):
                sums = [sum(c * v for c, v in zip(vector, ends)) for vector in vectors]
                stats.append((sums, [float(s * step - n * mean) / math.sqrt(n * var)
                                     for s in sums]))
            (low_sums, t_low), (up_sums, t_up) = stats
            every = max(1, len(vectors) // 12)
            alphas = t_low[::every] + t_up[::every] + [0.0]
            pairs = list(zip(alphas, alphas[::-1]))
            events = _EventCells.build(alphas, pairs)
            sums_law, cell_of = _cells_at(events, law, n)
            assert sums_law.mins.shape == (4, 2, 1) and not is_tabled(law, n)
            sampler = montecarlo._sampler(law, events, n, is_tabled(law, n))
            assert sampler[2] is None and sampler[3] is not None
            x = _hull_sums(columns, sums_law)
            for got, want in zip(x, (low_sums, up_sums)):
                assert [hi * 2**31 + lo for hi, lo in zip(*got.tolist())] == want
            member = _membership(events)
            cells = cell_of(*x)
            assert np.array_equal(member[:, cells], _exact_events(columns, law, n, alphas, pairs))


def _non_dyadic_wide_model():
    # ``_non_dyadic_model`` with the endpoint 0.1 of its first hull moved to
    # 1e-20: the step 1e-20 makes 0.7 the integer 7e19, past one int64 limb
    # at every n, so the hull sums take two
    return BeliefModel(
        [(FocalElement([(1e-20, 0.3)]), 0.25),
         (FocalElement([(0.2, 0.7)]), 0.35),
         (FocalElement([(0.3, 0.3)]), 0.1),
         (FocalElement([(0.1, 0.2), (0.3, 0.7)]), 0.3)], 1.0)


def _overflow_model():
    # the step 1e-18 makes the endpoint 1 the integer 10**18, so n * 10**18
    # fits in one int64 limb up to n = 9 only
    return BeliefModel(
        [(FocalElement([(0.0, 1.0)]), 0.5),
         (FocalElement([(1e-18, 1e-18)]), 0.2),
         (FocalElement([(0.0, 0.0)]), 0.3)], 1.0)


def _check_vector_by_vector(plan, monkeypatch, fault):
    """The estimate of a plan with no tabled n against its replayed count
    vectors: the cell that the estimator's cell function gives each vector
    holds exactly the events that ``_exact_events`` decides for it, and the
    estimate's counts are their sums.  With ``fault``, the two-limb sums
    lose the carry from their lo limb, and the check must fail."""
    def dropped(x):
        x[1] &= 2**31 - 1
        return x

    if fault:
        monkeypatch.setattr(montecarlo, "_carry", dropped)
    law = MinMaxLaw.from_model(plan.model)
    events = _EventCells.build(plan.alpha_one_sided, plan.alpha_two_sided)
    member = _membership(events)
    with pytest.raises(AssertionError) if fault else contextlib.nullcontext():
        sim = estimate_events(plan, moments_by_enumeration(plan.model), workers=1)
        for n in plan.n_values:
            assert not is_tabled(law, n)
            blocks = [(b, min(BLOCK_SIZE, plan.reps - start))
                      for b, start in enumerate(range(0, plan.reps, BLOCK_SIZE))]
            drawn = [_draw_counts(plan.seed, n, b, size, law) for b, size in blocks]
            columns = [np.concatenate(c) for c in zip(*drawn)]
            exact = _exact_events(columns, law, n, plan.alpha_one_sided, plan.alpha_two_sided)
            sums_law, cell_of = _cells_at(events, law, n)
            assert np.array_equal(member[:, cell_of(*_hull_sums(columns, sums_law))], exact), n
            assert [r.count for r in sim.rows_for(n)] == exact.sum(axis=1).tolist(), n


@pytest.mark.parametrize("fault", [None, "carry"])
def test_two_limbs_where_the_lattice_overflows_int64(monkeypatch, fault):
    """Past one int64 limb the sums take two, and every drawn count vector
    gets the exact decisions, atoms included: S_min/h is the count c1 of
    the 1e-18 hull, on the thresholds 1600 * 0.2 + 16 * alpha, and at
    alpha = 0 S_max/h = c0 * 10**18 + c1 meets 800 * 10**18 + 320.
    Dropping the carry between the limbs fails it."""
    model = _overflow_model()
    law = MinMaxLaw.from_model(model)
    alphas, pairs = (-1.0, 0.0, 0.5), ((-1.0, 1.0), (0.0, 0.5), (0.0, 0.0))
    events = _EventCells.build(alphas, pairs)
    assert _cells_at(events, law, 9)[0].maxs.tolist() == [10**18, 1, 0]
    assert _cells_at(events, law, 10)[0].maxs.shape == (3, 2, 1)
    _check_vector_by_vector(SimPlan(model, n_values=(1600,), reps=BLOCK_SIZE + 99, seed=2,
                                    alpha_one_sided=alphas, alpha_two_sided=pairs),
                            monkeypatch, fault)


@pytest.mark.parametrize("fault", [None, "carry"])
def test_random_model_at_16384_replays_exactly(monkeypatch, fault):
    """A law of the benchmark's random-model family (64 bits per endpoint
    in steps, so 78 at n = 16384, on two limbs), replayed count vector by
    count vector against the exact decisions.  The alphas are the float
    statistics of six drawn trials, so each of those lies within an ulp or
    so of a threshold; dropping the carry, which moves T by about 1e-8
    here, fails."""
    model = random_model(np.random.default_rng(0))
    law = MinMaxLaw.from_model(model)
    n, reps, seed = 16384, 3000, 21
    assert max(map(abs, law.lattice[1] + law.lattice[2])).bit_length() == 64
    assert not montecarlo.on_lattice(law.lattice, n)
    vectors = list(zip(*(c.tolist() for c in _draw_counts(seed, n, 0, reps, law))))[:6]
    t_low, t_up = ([float(sum(c * e for c, e in zip(vector, ends)) - n * mean)
                    / math.sqrt(n * var) for vector in vectors]
                   for ends, mean, var in _exact_sides(law))
    _check_vector_by_vector(SimPlan(model, n_values=(n,), reps=reps, seed=seed,
                                    alpha_one_sided=t_low + t_up,
                                    alpha_two_sided=[tuple(sorted(p)) for p in zip(t_low, t_up)]),
                            monkeypatch, fault)


def test_two_limbs_hold_sums_up_to_the_limit():
    # the step 1e-22 makes the endpoint 1 the integer 10**22, so
    # n * 10**22 < 2**93 up to n = 990352 and not at 990353
    model = BeliefModel([(FocalElement([(1e-22, 1e-22)]), 0.5),
                         (FocalElement([(1.0, 1.0)]), 0.5)], 1.0)
    lattice = MinMaxLaw.from_model(model).lattice
    assert not montecarlo.on_lattice(lattice, 990352)
    with pytest.raises(ValueError, match="past two int64 limbs"):
        montecarlo.on_lattice(lattice, 990353)
    _check_vector_by_vector(SimPlan(model, n_values=(990352,), reps=500, seed=4), None, None)


def test_past_two_limbs_raises_naming_the_limit():
    # the step 1e-150 makes the endpoint 1e150 the integer 10**300
    model = BeliefModel([(FocalElement([(1e-150, 1e-150)]), 0.5),
                         (FocalElement([(1e150, 1e150)]), 0.5)], 1e150)
    plan = SimPlan(model, n_values=(1,), reps=10)
    with pytest.raises(ValueError, match=r"past two int64 limbs.*2\*\*93"):
        estimate_events(plan, moments_by_enumeration(model), workers=1)
    with pytest.raises(ValueError, match="past two int64 limbs"):
        is_tabled(MinMaxLaw.from_model(model), 1)


@pytest.mark.parametrize("n", [1024, 4096, 16384])
def test_shifted_coin_matches_binomial_tails(n):
    """coin shifted by the 16-digit 0.1234567890123456 has endpoints of 54
    bits in steps, so its sums take two limbs from n = 1024 on.  T_low =
    (2K - n)/sqrt(n) exactly, K ~ Bin(n, 1/2) the count of the upper hull,
    so T_low >= alpha is a binomial tail with an atom at its edge for every
    alpha of the grid; a Bonferroni z-test per n over the grid."""
    from scipy.stats import binom

    model = MODEL_REGISTRY["coin"].shifted(0.1234567890123456)
    assert not montecarlo.on_lattice(MinMaxLaw.from_model(model).lattice, n)
    plan = SimPlan(model, n_values=(n,), reps=200_000, seed=11, alpha_two_sided=())
    sim = estimate_events(plan, moments_by_enumeration(model))
    root = math.isqrt(n)
    cells = [(float(binom.sf(math.ceil((n + Fraction(repr(a)) * root) / 2) - 1, n, 0.5)),
              row.count) for a, row in zip(DEFAULT_ALPHA_GRID, sim.rows_for(n, ONE_SIDED_LOWER))]
    _z_test(cells, plan.reps, n)


_INVARIANCE_N = (16, 64, 4096, 16384)


def _moved_counts(model, moved, fault=False):
    """{n: (counts of model, counts of moved)} at each n of
    ``_INVARIANCE_N`` where both are tabled or both are not, one seed and
    grid; with ``fault``, the thresholds of moved's T_low >= alpha at
    n = 16384 are one step too high."""
    sims = []
    for m in (model, moved):
        plan = SimPlan(m, n_values=_INVARIANCE_N, reps=2000, seed=9)
        with pytest.MonkeyPatch.context() as patch:
            if fault and m is moved:
                real, calls = montecarlo._lattice_bounds, []

                def off_by_one(alphas, mean, var, step, n, reach):
                    ge, gt = real(alphas, mean, var, step, n, reach)
                    calls.append(n)  # the low side first
                    return (([b + 1 for b in ge], gt) if n == 16384 and calls.count(n) == 1
                            else (ge, gt))
                patch.setattr(montecarlo, "_lattice_bounds", off_by_one)
            sims.append(estimate_events(plan, moments_by_enumeration(m), workers=1))
    law, moved_law = (MinMaxLaw.from_model(m) for m in (model, moved))
    return {n: tuple([r.count for r in sim.rows_for(n)] for sim in sims)
            for n in _INVARIANCE_N if is_tabled(law, n) == is_tabled(moved_law, n)}


def _moved(model, shift, scale, more):
    """``model`` scaled, shifted and with a larger bound; None where a
    moved endpoint is not exactly the moved decimal of the old one, a law
    of its own."""
    moved = model.scaled(scale).shifted(shift)
    moved = dataclasses.replace(moved, bound=moved.bound + more)
    old, new = (MinMaxLaw.from_model(m).exact() for m in (model, moved))
    s, c = Fraction(repr(shift)), Fraction(repr(scale))
    exact = all(b[i] == a[i] * c + s and b[2] == a[2] for a, b in zip(old, new) for i in (0, 1))
    return moved if exact else None


@given(name=st.sampled_from(sorted(MODEL_REGISTRY)),
       shift=st.one_of(st.integers(-2**36, 2**36).map(lambda j: j / 16),
                       st.sampled_from((-7.00000000000001, 5.000000000000001, 123456.7890123456,
                                        0.1234567890123456, -0.3000000000000001))),
       scale=st.builds(lambda odd, e: (2 * odd + 1) * 2.0**e, st.integers(0, 7),
                       st.integers(-6, 6)),
       more=st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_counts_are_invariant_under_exact_shift_scale_and_bound(name, shift, scale, more):
    """The normalized statistics do not move under an exact shift, a
    positive scale or a larger M, so neither may a count, at tabled n and
    untabled, on one limb or two (the decimal shifts put mixed and
    bernoulli on two at n = 16384), wherever both laws take the same path."""
    model = MODEL_REGISTRY[name]
    moved = _moved(model, shift, scale, more)
    assume(moved is not None)
    counts = _moved_counts(model, moved)
    assert 16 in counts
    for n, (before, after) in counts.items():
        assert before == after, n


def test_invariance_test_catches_thresholds_off_by_one(monkeypatch):
    # coin shifted by a 16-digit decimal, its sums on two limbs at
    # n = 16384, where T = alpha has an atom at every alpha of the grid;
    # with no n tabled, every n is compared
    monkeypatch.setattr(montecarlo, "TABLE_MAX_VECTORS", 0)
    model = MODEL_REGISTRY["coin"]
    moved = _moved(model, -7.00000000000001, 1.0, 2)
    assert not montecarlo.on_lattice(MinMaxLaw.from_model(moved).lattice, 16384)
    counts = _moved_counts(model, moved)
    assert sorted(counts) == list(_INVARIANCE_N)
    assert all(a == b for a, b in counts.values())
    counts = _moved_counts(model, moved, fault=True)
    assert [n for n, (a, b) in counts.items() if a != b] == [16384]


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


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_windowed_count_is_the_number_built(data):
    # k = 2..5 hulls, n where the windows cut the simplex for k = 2 and 3,
    # and the limit one below, at and one above the number of prefixes
    # built: the count vectors of every split but the last, in its windows
    k = data.draw(st.integers(2, 5))
    masses = data.draw(st.lists(st.floats(0.02, 1.0), min_size=k, max_size=k))
    n = data.draw(st.integers(1, {2: 5000, 3: 800, 4: 60, 5: 24}[k]))
    law = MinMaxLaw(np.zeros(k), np.zeros(k), np.array(masses))
    slices = [len(pmf) for _, pmf in _prefixes(law, n, _last_totals(law, n, 2**40))]
    built = sum(slices)
    assert max(slices) <= BLOCK_SIZE // 4 or len(slices) == 1
    for limit in (built - 1, built, built + 1):
        count = _table_sizes(law, n, limit)[0]
        assert count == built if built <= limit else count > limit


def _side_law(data, k):
    """A law of k hulls with integer endpoints, distinct minima and not
    all maxima equal, so both sides vary."""
    mins = data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k, unique=True))
    widths = data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    maxs = [a + w for a, w in zip(mins, widths)]
    assume(len(set(maxs)) > 1)
    masses = data.draw(st.lists(st.floats(0.02, 1.0), min_size=k, max_size=k))
    return MinMaxLaw(*(np.array(v, dtype=float) for v in (mins, maxs, masses)))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_table_sizes_are_the_sizes_built(data):
    """The two sizes ``is_tabled`` compares are what ``_cell_law`` walks:
    the prefixes it enumerates, and the window entries of the last split's
    totals, each total's window pmf built once.  ``is_tabled`` holds at a
    limit of the larger size and one above, not one below, and no chunk of
    the build holds more than a block of elements: no window pmf, prefix
    slice or array of runs.  On these laws, whose sums move on both sides,
    the cell law is the full windowed enumeration's to 1e-15."""
    k = data.draw(st.integers(2, 5))
    law = _side_law(data, k)
    n = data.draw(st.integers(1, {2: 5000, 3: 800, 4: 60, 5: 24}[k]))
    grid = data.draw(st.lists(st.sampled_from(LATTICE), max_size=8))
    events = _EventCells.build(grid, default_alpha_pairs(grid))
    sums_law, cell_of, bounds = events.at(law, n)
    windows, prefixes, runs = [], [], []

    def window_pmfs(totals, p, q):
        first, pmf = real_pmfs(totals, p, q)
        windows.append((sys._getframe(1).f_code.co_name, totals.copy(), p, q, pmf.size))
        return first, pmf

    def recording_prefixes(*args):
        for counts, pmf in real_prefixes(*args):
            prefixes.append(len(pmf))
            yield counts, pmf

    def recording_cells(x_low, x_up):
        runs.append(x_low.size)
        return cell_of(x_low, x_up)

    real_pmfs, real_prefixes = splittree._window_pmfs, splittree._prefixes
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(splittree, "_window_pmfs", window_pmfs)
        patch.setattr(splittree, "_prefixes", recording_prefixes)
        p_cell = _cell_law(sums_law, n, recording_cells, bounds, events.size)
    assert np.abs(p_cell - _reference_cell_law(sums_law, n, cell_of, events.size)).max() <= 1e-15
    tables = [(totals, p, q) for caller, totals, p, q, _ in windows if caller == "_cell_law"]
    totals = np.concatenate([t for t, _, _ in tables])
    assert totals.tolist() == _last_totals(law, n, 2**40).tolist()  # each total once
    entries = sum(int((stop - start + 1).sum())
                  for start, _, stop in (_window(t, p, q) for t, p, q in tables))
    built = (sum(prefixes), entries)
    assert max(size for *_, size in windows) <= BLOCK_SIZE
    assert max(prefixes) <= BLOCK_SIZE and max(runs) <= BLOCK_SIZE
    size = max(built)
    for limit in (size - 1, size, size + 1):
        sizes = _table_sizes(law, n, limit)
        assert all(s == b if b <= limit else s > limit for s, b in zip(sizes, built))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "TABLE_MAX_VECTORS", limit)
            assert is_tabled(law, n) == (size <= limit)


@pytest.mark.parametrize("name, n", [("bernoulli", 1158), ("mixed", 1155)])
def test_largest_tabled_n(name, n):
    # the sizes compared with TABLE_MAX_VECTORS are the prefixes and the
    # window entries of the last split's totals that the build walks, at
    # the largest tabled n and on both sides of it; no slice holds more
    # than a quarter block of prefixes
    law = MinMaxLaw.from_model(MODEL_REGISTRY[name])
    k = len(law.masses)
    for m in (n - 1, n, n + 1):
        totals = _last_totals(law, m, 2**40)
        slices = [len(pmf) for _, pmf in _prefixes(law, m, totals)]
        start, _, stop = _window(totals, *_shares(law.masses, k - 2, k))
        sizes = (sum(slices), int((stop - start + 1).sum()))
        assert max(slices) <= BLOCK_SIZE // 4
        assert _table_sizes(law, m, 2**40) == sizes
        assert is_tabled(law, m) == (m <= n) == (max(sizes) <= montecarlo.TABLE_MAX_VECTORS)



def test_tabled_n_leave_room_for_the_differences_of_sums():
    """Two hulls of many-digit endpoints of both signs, on the step 2e-16:
    the hull sums fit in int64 up to n = 370, twice them up to n = 184.
    The build subtracts a sum from a threshold at the other end of the
    range, which past 184 may wrap (a cell law built at 370 is off by 0.17),
    so only n <= 184 are tabled, each matching the full enumeration."""
    law = MinMaxLaw(np.array([-4.917253349036841, 3.1415926535897936]),
                    np.array([4.72109836542891, 4.982375112340981]), np.array([0.9, 0.1]))
    lattice = law.lattice
    assert (2**63 - 2) // max(map(abs, [*lattice[1], *lattice[2]])) == 370
    # T_low and T_up are one statistic of the left count here, so only
    # grids that differ on the two sides cross different thresholds
    events = _EventCells.build((), [(-1.0, 0.5)])
    for n in (183, 184, 185, 370):
        assert montecarlo.on_lattice(lattice, n) and is_tabled(law, n) == (n <= 184)
        sums_law, cell_of, bounds = events.at(law, n)
        if n <= 184:
            want = _reference_cell_law(sums_law, n, cell_of, events.size)
            got = _cell_law(sums_law, n, cell_of, bounds, events.size)
            assert np.abs(got - want).max() <= 1e-15


def test_plan_decides_its_tabled_n_once(monkeypatch):
    model = MODEL_REGISTRY["mixed"]
    plan, law = SimPlan(model), MinMaxLaw.from_model(model)
    assert plan.tabled_n == (16, 64, 256, 1024)
    assert plan.tabled_n == tuple(n for n in plan.n_values if is_tabled(law, n))
    monkeypatch.setattr(montecarlo, "TABLE_MAX_VECTORS", 0)
    assert plan.tabled_n == (16, 64, 256, 1024) and dataclasses.replace(plan).tabled_n == ()


class TestSplitCounts:
    @pytest.mark.parametrize("n", [1, 7, 1024, 16384, 2**20])
    @pytest.mark.parametrize("p", [1e-3, 0.3, 0.5, 0.999])
    def test_root_pmf_is_the_binomial_pmf(self, n, p):
        from scipy.stats import binom

        lo, pmf = _binomial_window(n, p, 1.0 - p, montecarlo.TABLE_MAX_VECTORS)
        hi = lo + len(pmf) - 1
        assert 0 <= lo <= hi <= n and abs(pmf.sum() - 1.0) <= 1e-13
        full = np.zeros(n + 1)
        full[lo:hi + 1] = pmf
        assert np.abs(full - binom.pmf(np.arange(n + 1), n, p)).max() <= 1e-12
        assert np.abs(np.cumsum(full) - binom.cdf(np.arange(n + 1), n, p)).max() <= 1e-12
        dropped = (binom.cdf(lo - 1, n, p) if lo > 0 else 0.0) + binom.sf(hi, n, p)
        assert dropped < 2.0**-60

    def test_window_wider_than_the_limit_is_not_built(self):
        lo, pmf = _binomial_window(4096, 0.3, 0.7, montecarlo.TABLE_MAX_VECTORS)
        assert _binomial_window(4096, 0.3, 0.7, len(pmf))[0] == lo
        assert _binomial_window(4096, 0.3, 0.7, len(pmf) - 1) is None

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


def _least_sum(inside, n):
    """The least s in [0, n] where ``inside``, false then true, holds, by
    bisection; n + 1 where it holds nowhere."""
    lo, hi = -1, n + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if inside(mid) else (mid, hi)
    return hi


def _bernoulli_exact_events(law, n, alphas, pairs):
    """Exact P_n of every plan event of ``bernoulli_model(p_low, p_high)``,
    with the exact lattice thresholds of the estimator's operators.

    Its hulls are {1}, {0} and [0, 1], so with (c1, c0) the counts of the
    first two, S_min = c1 ~ Bin(n, p_low) and S_max = n - c0 with
    c0 ~ Bin(n, q), q = 1 - p_high.  T_low and T_up increase with the sums,
    so a one-sided event is one binomial tail; a two-sided event sums over
    c1 >= k1 the tail of c0 given c1, Bin(n - c1, q / (1 - p_low)).  The
    thresholds are the least sums with a <= T or a < T, each found by
    bisection on the exact statistic.
    """
    from scipy.stats import binom

    p_low, q, _ = (law.masses / law.masses.sum()).tolist()
    (_, mean_low, var_low), (_, mean_up, var_up) = _exact_sides(law)

    def least(a, mean, var, strict=False):
        test = (lambda s: not _le_alpha(a, s - n * mean, n * var)) if strict else (
            lambda s: _alpha_le(a, s - n * mean, n * var))
        return _least_sum(test, n)

    c1 = np.arange(n + 1)
    pmf_c1 = binom.pmf(c1, n, p_low)
    lower = [binom.sf(least(a, mean_low, var_low) - 1, n, p_low) for a in alphas]
    upper = [binom.sf(n - least(a, mean_up, var_up), n, q) for a in alphas]
    two = []
    for a1, a2 in pairs:
        k1 = least(a1, mean_low, var_low)
        tail = binom.sf(n - least(a2, mean_up, var_up, strict=True), n - c1[k1:],
                        q / (1 - p_low))
        two.append(float(pmf_c1[k1:] @ tail))
    return lower + upper + two


class TestBernoulliOracle:
    """The sampler against the paper's base case: at n = 1024 it draws from
    the tabled cell law, at 4096 and 16384 by the split tree, where numpy's
    binomial takes its BTPE branch (n p > 30) at the second level, which no
    exact-law test at small n reaches."""

    @staticmethod
    def _check(p_low, p_high, n_values=(1024, 4096, 16384), workers=None):
        model = bernoulli_model(p_low, p_high)
        law, mom = MinMaxLaw.from_model(model), moments_by_enumeration(model)
        assert law.mins.tolist() == [1.0, 0.0, 0.0] and law.maxs.tolist() == [1.0, 0.0, 1.0]
        plan = SimPlan(model, n_values=n_values, reps=1 << 18, seed=113)
        sim = estimate_events(plan, mom, workers=workers)
        pairs = plan.alpha_two_sided
        for n in plan.n_values:
            assert is_tabled(law, n) == (n == 1024)
            exact = _bernoulli_exact_events(law, n, plan.alpha_one_sided, pairs)
            counts = [r.count for r in sim.rows_for(n)]
            assert len(counts) == len(exact) == 2 * len(plan.alpha_one_sided) + len(pairs)
            _z_test(list(zip(exact, counts)), plan.reps, (p_low, p_high, n))

    @pytest.mark.parametrize("p_low, p_high", [(0.3, 0.7), (0.1, 0.7)])
    def test_default_grid_matches_the_exact_law(self, p_low, p_high):
        self._check(p_low, p_high)

    @pytest.mark.parametrize("n", [90, 2000])
    def test_lattice_ties_keep_their_operators(self, n):
        """belief 0.1 and plausibility 0.7 of {1}, spelled as a model file
        spells them: the masses 0.1, 0.3 and 0.6 sum to 1 exactly, so
        n * lower_mean = n/10 and n * upper_mean = 7n/10 are reachable sums,
        atoms of about 0.13 and 0.09 at n = 90 (tabled) and of 0.03 and 0.02
        at n = 2000 (untabled).  ``T_low >= 0`` holds them, ``T_up < 0`` does
        not and ``T_up <= 0`` does.  (``bernoulli_model(0.1, 0.7)`` builds
        the same masses, each the exact difference of the decimals given.)
        A float route that rounds 90 * 0.7 to 62.99999999999999
        loses the upper atom from the two-sided row."""
        from scipy.stats import binom

        model = parse_model("M = 1\n"
                            "focal = { parts = [[1, 1]], mass = 0.1 }\n"
                            "focal = { parts = [[0, 0]], mass = 0.3 }\n"
                            "focal = { parts = [[0, 1]], mass = 0.6 }\n")
        plan = SimPlan(model, n_values=(n,), reps=200_000, seed=3,
                       alpha_one_sided=(0.0,), alpha_two_sided=((-math.inf, 0.0),))
        assert is_tabled(MinMaxLaw.from_model(model), n) == (n == 90)
        counts = [r.count for r in estimate_events(plan, moments_by_enumeration(model)).rows]
        # S_min = c1 ~ Bin(n, 0.1); S_max = n - c0 with c0 ~ Bin(n, 0.3)
        exact = [binom.sf(n // 10 - 1, n, 0.1), binom.sf(3 * n // 10, n, 0.3),
                 binom.sf(3 * n // 10 - 1, n, 0.3)]
        _z_test(list(zip(exact, counts)), plan.reps, n)

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_catches_a_swapped_split_share(self, monkeypatch, n):
        # every split takes the right share: the tree's root window and
        # its binomials at 4096, the table's windows at 1024
        real = splittree._shares
        monkeypatch.setattr(splittree, "_shares", lambda *args: real(*args)[::-1])
        with pytest.raises(AssertionError, match=rf"\(0\.3, 0\.7, {n}\)"):
            self._check(0.3, 0.7, n_values=(n,), workers=1)


class TestBlockKeys:
    def test_rows_of_n_do_not_depend_on_the_plan(self):
        model = MODEL_REGISTRY["mixed"]
        mom = moments_by_enumeration(model)
        alone = estimate_events(SimPlan(model, n_values=(64,), reps=20_000, seed=7), mom)
        after = estimate_events(SimPlan(model, n_values=(16, 64), reps=20_000, seed=7), mom)
        assert alone.rows_for(64) == after.rows_for(64)

    def test_mixed_paths_identical_across_workers(self):
        # bernoulli tables n = 16 and 256 (153 and 28964 windowed vectors),
        # not 2048
        model = MODEL_REGISTRY["bernoulli"]
        mom = moments_by_enumeration(model)
        plan = SimPlan(model, n_values=(16, 256, 2048), reps=40_000, seed=21)
        sim = estimate_events(plan, mom, workers=1)
        for workers in (2, 3):
            assert estimate_events(plan, mom, workers=workers) == sim

    def test_tabled_rows_depend_on_the_alpha_grid(self):
        # an untabled n draws hull counts, which no grid changes; a tabled n
        # draws one multinomial over the grid's event cells, so another grid
        # gives other counts of the same event (README, Reproducibility)
        model = MODEL_REGISTRY["mixed"]
        law, mom = MinMaxLaw.from_model(model), moments_by_enumeration(model)
        assert is_tabled(law, 16) and not is_tabled(law, 4096)
        counts = {16: [], 4096: []}
        for grid in ((0.0,), (0.0, 1.0), (-2.0, -1.0, 0.0, 0.5, 2.0)):
            plan = SimPlan(model, n_values=(16, 4096), reps=50_000, seed=5,
                           alpha_one_sided=grid, alpha_two_sided=())
            sim = estimate_events(plan, mom)
            for n, seen in counts.items():
                seen += [r.count for r in sim.rows_for(n)
                         if r.kind == ONE_SIDED_LOWER and r.alpha1 == 0.0]
        assert counts == {16: [26023, 25972, 25755], 4096: [25255] * 3}
