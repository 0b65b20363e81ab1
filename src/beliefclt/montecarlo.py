"""Seeded simulation of the i.i.d. product belief measure.

Sampling follows the reduction used by the limit theorems themselves: an
event probability under the product belief measure equals an ordinary
probability of the per-coordinate min-sums (lower events) and max-sums
(upper events) under the mass law.  Only the law of the (focal minimum,
focal maximum) hull matters (``moments.MinMaxLaw``), so each trial draws
hulls i.i.d. from it and accumulates

    S_min = sum of hull minima,   S_max = sum of hull maxima.

Randomness is counter-based (Philox), in streams that are a pure function
of (seed, n, block), so any plan that contains n reproduces identical
draws, at any worker count.  Each trial reduces to one event cell.  Every
endpoint of the law is an integer multiple of its step h, so a cell is
decided exactly on the integer hull sums S/h by integer thresholds, at
every n: in one int64 limb or, past it, two (``on_lattice``).  Where the
sums fit one limb twice over and the split tree's windows are small
(``is_tabled``), the law of one trial's cell is built once per estimate
(``splittree._cell_law``), on the calling thread, and the histogram of
all the n's trials is one multinomial draw over it, from the stream of
block 0.  Else the replications are batched into fixed-size blocks, each
drawing the hull counts of its trials, which carry the same joint law of
(S_min, S_max) as coordinate-by-coordinate sampling, through a binary
tree of binomial splits over the hulls (``splittree._split_counts``), its
root split by one multinomial over a window of its binomial pmf.  Runs of
blocks go to threads of one process: numpy's binomial draws release the
GIL, so they overlap with no fork and nothing pickled, and integer
histograms merge associatively, so any partition of blocks gives the same
result.
"""

from __future__ import annotations

# imported before anything else: its compile then reuses the memory that
# this module's larger compile has just freed, before other imports take
# it (imported last, it raised the peak RSS of a verify run that compiled
# the package from source by 0.1-0.2 MB)
from .splittree import BLOCK_SIZE, _cell_law, _hull_sums, _root_window, _split_counts, _table_sizes

import hashlib
import logging
import math
import numbers
import os
import warnings
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial

import numpy as np

from .belief import BeliefModel
from .errors import DegenerateVariance, as_real, as_real_pair
from .moments import ChoquetMoments, MinMaxLaw, _isqrt, _sqrt

_KEY_DOMAIN = np.uint64(0x9E3779B97F4A7C15)
_CTR_BLOCK = np.uint64(1)
TABLE_MAX_VECTORS = 1 << 20
_LIMB_BITS = 31
_LIMB_MASK = (1 << _LIMB_BITS) - 1

WORKERS_ENV = "BELIEFCLT_WORKERS"

ONE_SIDED_LOWER = "one_sided_lower"
ONE_SIDED_UPPER = "one_sided_upper"
TWO_SIDED = "two_sided"

DEFAULT_ALPHA_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
DEFAULT_N_VALUES = (16, 64, 256, 1024, 4096, 16384)
DEFAULT_REPS = 1_000_000

log = logging.getLogger("beliefclt")


def default_alpha_pairs(grid: Sequence[float] = DEFAULT_ALPHA_GRID) -> tuple[tuple[float, float], ...]:
    """Cartesian pairs of the grid with alpha1 <= alpha2."""
    return tuple((a1, a2) for a1 in grid for a2 in grid if a1 <= a2)


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument, else the BELIEFCLT_WORKERS variable, else cpu count.

    Either must be a positive integer, or ValueError names it.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if not env:
            return os.cpu_count() or 1
        if not (env.isascii() and env.isdecimal()) or int(env) < 1:
            raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {env!r}")
        return int(env)
    workers = _integer("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    return workers


def _integer(name: str, value) -> int:
    """``value`` as an int; a bool, float or string is not an integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _items(name: str, value) -> tuple:
    """The items of a sequence field."""
    if isinstance(value, Mapping):
        # one grid holds for every n; a mapping is not read as its keys
        raise TypeError(f"{name} must be a sequence, not a mapping")
    try:
        return tuple(value)
    except TypeError:
        raise ValueError(f"{name} must be a list, got {value!r}") from None


@dataclass(frozen=True)
class SimPlan:
    """Experiment grid: sequence lengths, replications, seed, alpha grids.

    The one checker of plan values, from a plan file, a CLI override or a
    library caller; nothing is truncated or parsed from a string.
    ``n_values`` are strictly increasing positive ints, ``reps`` in [1,
    2**63) (numpy's draws take an int64 count), ``seed`` in [0, 2**64),
    ``slack`` a finite float >= 0, and the alphas floats, not NaN.  One
    flat grid and one list of pairs hold for every n.
    A bad value raises ValueError, a mapping grid TypeError; the message
    starts with the field's name.
    """

    model: BeliefModel
    n_values: tuple[int, ...] = DEFAULT_N_VALUES
    reps: int = DEFAULT_REPS
    seed: int = 0
    alpha_one_sided: Sequence[float] = DEFAULT_ALPHA_GRID
    alpha_two_sided: Sequence[tuple[float, float]] = field(default_factory=default_alpha_pairs)
    slack: float = 1.0

    def __post_init__(self):
        n_values = tuple(_integer("n_values", n) for n in _items("n_values", self.n_values))
        if not n_values or n_values[0] < 1 or any(a >= b for a, b in zip(n_values, n_values[1:])):
            raise ValueError("n_values must be a non-empty, strictly increasing list of "
                             f"positive integers, got {list(n_values)}")
        reps, seed = _integer("reps", self.reps), _integer("seed", self.seed)
        if not 1 <= reps < 2**63:
            raise ValueError("reps must be >= 1 and below 2**63")
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        slack = as_real("slack", self.slack)
        if not 0 <= slack < math.inf:
            raise ValueError(f"slack must be finite and >= 0, got {slack!r}")
        alphas = tuple(as_real("alpha_one_sided", a)
                       for a in _items("alpha_one_sided", self.alpha_one_sided))
        pairs = tuple(as_real_pair("alpha_two_sided", pair)
                      for pair in _items("alpha_two_sided", self.alpha_two_sided))
        for name, value in (("n_values", n_values), ("reps", reps), ("seed", seed),
                            ("slack", slack), ("alpha_one_sided", alphas),
                            ("alpha_two_sided", pairs)):
            object.__setattr__(self, name, value)
        for a1, a2 in pairs:
            if a1 > a2:
                warnings.warn(
                    f"two-sided pair ({a1}, {a2}) has alpha1 > alpha2; "
                    "the event is empty in the limit",
                    stacklevel=2,
                )

    def alphas_for(self, n: int) -> tuple[float, ...]:
        """The one-sided grid, the same for every n."""
        return self.alpha_one_sided

    def pairs_for(self, n: int) -> tuple[tuple[float, float], ...]:
        """The two-sided pairs, the same for every n."""
        return self.alpha_two_sided

    def digest(self) -> str:
        """Deterministic id of the full plan, for run identification."""
        return self._digest

    @cached_property
    def _digest(self) -> str:
        h = hashlib.sha256()
        h.update(repr(self.model).encode())
        h.update(repr((self.n_values, self.reps, self.seed, self.slack)).encode())
        for n in self.n_values:
            h.update(repr((n, self.alphas_for(n), self.pairs_for(n))).encode())
        return h.hexdigest()[:12]


@dataclass(frozen=True)
class EventResult:
    """Empirical frequency of one event at one n."""

    n: int
    kind: str
    alpha1: float
    alpha2: float
    count: int
    reps: int

    @property
    def frequency(self) -> float:
        return self.count / self.reps

    @property
    def se(self) -> float:
        f = self.frequency
        return math.sqrt(f * (1.0 - f) / self.reps)


@dataclass(frozen=True)
class SimResult:
    """All event frequencies of one simulation run."""

    run_id: str
    seed: int
    reps: int
    rows: tuple[EventResult, ...]

    def rows_for(self, n: int, kind: str | None = None) -> tuple[EventResult, ...]:
        return tuple(
            r for r in self.rows if r.n == n and (kind is None or r.kind == kind)
        )


def _block_stream(seed: int, n: int, block_index: int,
                  rng: np.random.Generator | None = None) -> np.random.Generator:
    """Counter-based stream: a pure function of (seed, n, block).

    The seed sits in the Philox key, n and the block index in the counter
    words, so streams for distinct triples never overlap and are identical
    regardless of worker count or scheduling order.  ``rng``, a Philox
    generator (a new one if None), is set to the stream (key, counter and
    an empty buffer) and returned: a run reuses one generator, since a new
    ``Philox(key=..., counter=...)`` first seeds itself from OS entropy.
    """
    rng = np.random.Generator(np.random.Philox()) if rng is None else rng
    key = np.array([np.uint64(seed), _KEY_DOMAIN], dtype=np.uint64)
    counter = np.array([0, np.uint64(block_index), np.uint64(n), _CTR_BLOCK], dtype=np.uint64)
    rng.bit_generator.state = {"bit_generator": "Philox", "state": {"key": key, "counter": counter},
                               "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                               "has_uint32": 0, "uinteger": 0}
    return rng


def is_tabled(law: MinMaxLaw, n: int) -> bool:
    """Whether (law, n) draws each block from its cell law (``_cell_law``):
    at most ``TABLE_MAX_VECTORS`` prefixes and window entries
    (``_table_sizes``), and its sums on one limb twice over, (2n + 2) *
    max|v/h| < 2**63 - 1, as the build subtracts a sum from a threshold and
    adds a step of two endpoints; ``on_lattice`` at n raises past two limbs."""
    _, mins, maxs = law.lattice
    return (on_lattice(law.lattice, n) and (2 * n + 2) * max(map(abs, [*mins, *maxs])) < 2**63 - 1
            and max(_table_sizes(law, n, TABLE_MAX_VECTORS)) <= TABLE_MAX_VECTORS)


def _lattice_bounds(alphas: np.ndarray, mean: Fraction, var: Fraction, step: Fraction,
                    n: int, reach: tuple[int, int]) -> tuple[list[int], list[int]]:
    """(ge, gt) on the lattice of one statistic at n: per alpha, read as the
    decimal a = p/q it spells, the least integer L = S/h with a <= T and
    with a < T, T = (L*h - n*mean)/sqrt(n*var), clipped to [lo, hi + 1] for
    the reachable L in ``reach`` = [lo, hi].  They are ceil(t) and
    floor(t) + 1 for t = (cn + u)/cd, cn/cd = n*mean/h, u = a*sqrt(n*var)*cd/h,
    exactly: floor((cn + u)/cd) = (cn + floor(u)) // cd, and likewise the
    ceiling.  |u| is the root of an integer ratio (``_isqrt``): its floor r,
    its ceiling r + 1 unless exact; the sign of a says which is floor(u)."""
    cn, cd = (n * mean / step).as_integer_ratio()
    sn, sd = (n * var / step**2).as_integer_ratio()
    lo, hi = reach
    ge, gt = [], []
    for a in alphas.tolist():
        if math.isinf(a):
            bounds = (hi + 1, hi + 1) if a > 0 else (lo, lo)
        else:
            p, q = Fraction(repr(a)).as_integer_ratio()
            r, exact = _isqrt(p * p * cd * cd * sn, q * q * sd)
            ceil_r = r + (not exact)
            floor_u, ceil_u = (r, ceil_r) if p >= 0 else (-ceil_r, -r)
            bounds = (-((-cn - ceil_u) // cd), (cn + floor_u) // cd + 1)
        ge.append(min(max(bounds[0], lo), hi + 1))
        gt.append(min(max(bounds[1], lo), hi + 1))
    return ge, gt


def _limbs(values: Sequence[int], count: int) -> np.ndarray:
    """The integers ``values`` as int64: as they are on one limb, else, on
    two, each as v = hi * 2**31 + lo with 0 <= lo < 2**31, in rows hi, lo."""
    values = np.array(values, dtype=object)
    if count == 2:
        values = np.array([values >> _LIMB_BITS, values & _LIMB_MASK])
    return values.astype(np.int64)


def _carry(x: np.ndarray) -> np.ndarray:
    """Two-limb sums x = (hi, lo) with 0 <= lo < 2**31, carried in place."""
    x[0] += x[1] >> _LIMB_BITS
    x[1] &= _LIMB_MASK
    return x


def _rank_function(bounds: np.ndarray, weight: int,
                   dtype: np.dtype) -> Callable[[np.ndarray], np.ndarray]:
    """x -> weight * #(b <= x for b in ``bounds``), in ``dtype``.

    One-limb bounds read it from a table of its values over
    [min(bounds) - 1, max(bounds)], to which x is clipped in place, wherever
    that span has at most ``TABLE_MAX_VECTORS`` entries: each rank repeated
    over the gap up to the next sorted bound.  Two-limb bounds,
    the rows (hi, lo) of ``_limbs``, are compared lexicographically with
    the carried sums (``_carry``).
    """
    def ranks(x: np.ndarray) -> np.ndarray:
        rank = np.zeros(x.shape, dtype=dtype)
        for b in bounds:
            rank += b <= x
        rank *= weight
        return rank

    if bounds.ndim == 2:
        def two_limb_ranks(x: np.ndarray) -> np.ndarray:
            high, low = _carry(x)
            rank = np.zeros(high.shape, dtype=dtype)
            for b_high, b_low in bounds.T.tolist():
                rank += (b_high < high) | ((b_high == high) & (b_low <= low))
            rank *= weight
            return rank
        return two_limb_ranks
    lo, hi = min(bounds.tolist(), default=1) - 1, max(bounds.tolist(), default=0)
    if hi - lo >= TABLE_MAX_VECTORS:
        return ranks
    table = np.repeat((weight * np.arange(len(bounds) + 1)).astype(dtype),
                      np.diff(np.sort(bounds), prepend=lo, append=hi + 1))

    def lookup(x: np.ndarray) -> np.ndarray:
        np.clip(x, lo, hi, out=x)
        x -= lo
        return table.take(x)
    return lookup


def on_lattice(lattice: tuple[Fraction, Sequence[int], Sequence[int]], n: int) -> bool:
    """Whether the exact hull sums S/h at n fit in one int64 limb on the
    lattice (h, mins/h, maxs/h) of ``MinMaxLaw.lattice``: n * max|v/h|, with
    one to spare for the bounds past the reachable sums, below 2**63 - 1.
    Else they take two (``_limbs``), which hold n * max|v/h| < 2**93 at
    n < 2**32; past that a ValueError names the limit."""
    _, mins, maxs = lattice
    reach = n * max(map(abs, [*mins, *maxs]))
    if reach < 2**63 - 1:
        return True
    if reach < 2**93 and n < 2**32:
        return False
    raise ValueError(f"n * max|v/h| = {reach} at n = {n} is past two int64 limbs, "
                     "which hold n * max|v/h| < 2**93 at n < 2**32")


@dataclass(frozen=True, eq=False)
class _EventCells:
    """The events of a plan, tallied through one joint histogram of ranks.

    Every event compares T_low or T_up with a threshold, so it is decided
    by the ranks of the statistics in two sorted, distinct grids:

    - ``low``, the alphas and pair alpha1s.  The low rank counts the a
      with ``a <= T_low``, so ``T_low >= a_i`` and ``a_i <= T_low`` are
      "low rank > i".
    - ``up``, the alphas and pair alpha2s.  The up rank is
      ``#(a < T_up) + #(a <= T_up)``, so ``T_up < a_j`` is "up rank <= 2j"
      and ``T_up <= a_j`` is "up rank <= 2j + 1".

    A trial's cell is ``low rank * (2 * len(up) + 1) + up rank``.  A block
    reduces to a histogram of cells; histograms merge by addition, and one
    prefix-sum table turns them into event counts.  ``rows`` and ``cols``
    hold each event's position in that table, in plan order.
    """

    low: np.ndarray
    up: np.ndarray
    rows: np.ndarray
    cols: np.ndarray

    @classmethod
    def build(cls, alphas: Sequence[float],
              pairs: Sequence[tuple[float, float]]) -> "_EventCells":
        alphas = np.asarray(alphas, dtype=float).reshape(-1)
        a1, a2 = np.asarray(pairs, dtype=float).reshape(-1, 2).T
        # sorted(set()) rather than np.unique, which imports numpy.ma
        low = np.array(sorted(set(alphas.tolist() + a1.tolist())), dtype=float)
        up = np.array(sorted(set(alphas.tolist() + a2.tolist())), dtype=float)
        rows = (np.searchsorted(low, alphas) + 1, np.zeros(len(alphas), dtype=np.intp),
                np.searchsorted(low, a1) + 1)
        cols = (np.full(len(alphas), 2 * len(up) + 1), 2 * np.searchsorted(up, alphas) + 1,
                2 * np.searchsorted(up, a2) + 2)
        return cls(low, up, np.concatenate(rows), np.concatenate(cols))

    @property
    def size(self) -> int:
        """The number of cells."""
        return (len(self.low) + 1) * (2 * len(self.up) + 1)

    def cell_function(self, low: tuple[np.ndarray, np.ndarray],
                      up: tuple[np.ndarray, np.ndarray]
                      ) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """(x_low, x_up) -> cell of each trial, in the smallest unsigned type
        that holds it; x_low and x_up may be changed in place.  ``low`` and
        ``up`` hold (ge, gt) of the grids ``low`` and ``up``: per alpha, the
        least statistic x with a <= T and with a < T.  The low rank counts
        the a <= T_low, the up rank the a < T_up and the a <= T_up."""
        dtype = np.min_scalar_type(self.size - 1)
        low_rank = _rank_function(low[0], 2 * len(self.up) + 1, dtype)
        up_rank = _rank_function(np.concatenate(up[::-1], axis=-1), 1, dtype)

        def cells(x_low: np.ndarray, x_up: np.ndarray) -> np.ndarray:
            cell = low_rank(x_low)
            cell += up_rank(x_up)
            return cell
        return cells

    def at(self, law: MinMaxLaw, n: int) -> tuple:
        """(sums law, cell of each trial from its hull sums over it,
        thresholds) at n.

        The sums law holds the endpoints as the integers v/h of the law's
        lattice, so its hull sums are the exact integers S/h, and the cells
        compare them with the integer thresholds of S_min/h, then S_max/h,
        from the law's exact means and variances (``_lattice_bounds``).  On
        one limb (``on_lattice``) each is an int64.  Past it each is two
        (``_limbs``): a threshold a column (hi, lo), and an endpoint one of
        shape (2, 1), so that a hull sum is the rows hi and lo, which the
        cells carry before they compare."""
        step, mins, maxs = law.lattice
        limbs = 1 if on_lattice(law.lattice, n) else 2
        low, up = ([_limbs(b, limbs) for b in _lattice_bounds(
                        alphas, mean, var, step, n, (n * min(ends), n * max(ends)))]
                   for alphas, ends, (mean, var) in zip((self.low, self.up), (mins, maxs), law.sides))
        shape = (-1,) if limbs == 1 else (-1, 2, 1)
        sums_law = MinMaxLaw(*(_limbs(ends, limbs).T.reshape(shape) for ends in (mins, maxs)),
                             law.masses)
        return sums_law, self.cell_function(low, up), (low[0], np.concatenate(up, axis=-1))

    def counts(self, histogram: np.ndarray) -> np.ndarray:
        """Event counts in plan order: lower, upper, then two-sided; of a
        cell law, the event probabilities."""
        histogram = histogram.reshape(len(self.low) + 1, 2 * len(self.up) + 1)
        # tail[r, c] = #{low rank >= r and up rank < c}
        tail = np.zeros((histogram.shape[0] + 1, histogram.shape[1] + 1),
                        dtype=np.result_type(histogram, np.int64))
        tail[:-1, 1:] = histogram[::-1].cumsum(axis=0)[::-1].cumsum(axis=1)
        return tail[self.rows, self.cols]


def _tally_run(seed: int, reps: int, events: _EventCells, run: tuple) -> tuple[int, np.ndarray]:
    """(n, cell histogram) of a run of consecutive blocks of an untabled n,
    drawn through the split tree from one generator set to each block's
    stream; ``run`` is (n, sums law, cell function, root window, blocks)."""
    n, law, cell_of, root, blocks = run
    generator = np.random.Generator(np.random.Philox())
    streams = ((_block_stream(seed, n, b, generator), min(BLOCK_SIZE, reps - b * BLOCK_SIZE))
               for b in blocks)
    # generators, so that each block's hull sums stay alive until the next
    # block's draw: freed before it (one closure per block), the 128 KB
    # block arrays met glibc's mmap threshold, and mixed at n = 1024 drew
    # 10% slower with the same draws
    sums = (_hull_sums(_split_counts(law, n, root, rng, size), law) for rng, size in streams)
    histograms = (np.bincount(cell_of(s_min, s_max), minlength=events.size)
                  for s_min, s_max in sums)
    return n, sum(histograms, np.zeros(events.size, dtype=np.intp))


def estimate_events(
    plan: SimPlan, moments: ChoquetMoments, workers: int | None = None
) -> SimResult:
    """Estimate all one- and two-sided event frequencies of the plan.

    With T_low = (S_min - n*lower_mean)/(sqrt(n)*lower_sd) and T_up the
    same for S_max with the upper mean and sd, the events are exactly

    - ``one_sided_lower``: T_low >= alpha1,
    - ``one_sided_upper``: T_up < alpha1,
    - ``two_sided``: alpha1 <= T_low and T_up <= alpha2,

    decided in exact arithmetic at every n: the law, its means and
    variances and each alpha read as the decimals their floats spell, the
    sums as the integers S/h on the law's lattice, in one int64 limb or two
    (``on_lattice``).  An n past two limbs raises ValueError naming the
    limit.  ``moments`` must be ``moments_by_enumeration(plan.model)``; a
    variance of 0 raises DegenerateVariance, and means or sds of another
    model raise ValueError.

    Frequencies are counts over exactly ``plan.reps`` independent trials per
    n, bit-reproducible for a given (seed, plan) at any worker count.  The
    untabled n's runs of blocks go to a pool of up to ``workers`` threads,
    none at one worker; the tabled n are built and drawn on the calling
    thread, in plan order, while the pool draws.  Before any of it, the
    values decided here go to one ``estimate:`` line on the ``beliefclt``
    logger, at INFO.
    """
    if moments.lower_sd == 0.0 or moments.upper_sd == 0.0:
        raise DegenerateVariance(
            f"sigma_low={moments.lower_sd!r}, sigma_up={moments.upper_sd!r}: "
            "cannot normalize sums"
        )
    law = MinMaxLaw.from_model(plan.model)  # lattice, sides cached here; threads only read
    exact = (*(float(mean) for mean, _ in law.sides), *(_sqrt(var) for _, var in law.sides))
    given = (moments.lower_mean, moments.upper_mean, moments.lower_sd, moments.upper_sd)
    if given != exact:
        raise ValueError(f"moments with (means, sds) {given} are not those of the "
                         f"plan's model, {exact}")
    workers = resolve_workers(workers)
    events = _EventCells.build(plan.alpha_one_sided, plan.alpha_two_sided)
    # a ValueError past two limbs comes before any thread
    lattice_n = [n for n in plan.n_values if on_lattice(law.lattice, n)]
    tabled = [n for n in lattice_n if is_tabled(law, n)]
    log.info("estimate: run_id=%s workers=%d block_size=%d table_max_vectors=%d tabled_n=%s "
             "lattice_h=%s lattice_n=%s", plan.digest(), workers, BLOCK_SIZE,
             TABLE_MAX_VECTORS, tabled, law.lattice[0], lattice_n)
    # each untabled n's blocks cut into at most one run per worker
    n_blocks = -(-plan.reps // BLOCK_SIZE)
    parts = min(workers, n_blocks)
    cuts = [p * n_blocks // parts for p in range(parts + 1)]
    untabled = [n for n in plan.n_values if n not in tabled]

    def runs():
        # each n's sums law and root window are built once, on this thread,
        # as the pool takes the runs, so that one n's runs draw while the
        # next n's are built
        for n in untabled:
            sums_law, cell_of, _ = events.at(law, n)
            root = _root_window(sums_law, n, TABLE_MAX_VECTORS)
            for lo, hi in zip(cuts, cuts[1:]):
                yield n, sums_law, cell_of, root, range(lo, hi)

    # no more threads than runs, and none at one worker or with no run
    threads = min(workers, parts * len(untabled)) if workers > 1 else 0
    with ThreadPoolExecutor(threads) if threads else nullcontext() as pool:
        partials = (pool.map if pool else map)(partial(_tally_run, plan.seed, plan.reps, events),
                                               runs())
        # while the pool draws: a tabled n's reps are one multinomial over its
        # cell law, from the stream of its block 0
        histograms = {}
        for n in tabled:
            sums_law, _, bounds = events.at(law, n)
            p_cell = _cell_law(sums_law, n, bounds)
            histograms[n] = _block_stream(plan.seed, n, 0).multinomial(plan.reps, p_cell)
        for n, histogram in partials:
            histograms[n] = histograms.get(n, 0) + histogram

    # (kind, alpha1, alpha2) of each event, in the order of events.counts
    keys = ([(ONE_SIDED_LOWER, a, math.nan) for a in plan.alpha_one_sided]
            + [(ONE_SIDED_UPPER, a, math.nan) for a in plan.alpha_one_sided]
            + [(TWO_SIDED, a1, a2) for a1, a2 in plan.alpha_two_sided])
    rows = [EventResult(n, kind, a1, a2, int(count), plan.reps)
            for n in plan.n_values
            for (kind, a1, a2), count in zip(keys, events.counts(histograms[n]))]
    return SimResult(plan.digest(), plan.seed, plan.reps, tuple(rows))
