"""The binary tree of binomial splits over the hulls of a (min, max) law.

A node splits its count of hulls [lo, hi) into [lo, mid) and [mid, hi),
mid = (lo + hi) // 2, the left count binomial with the left share of the
node's mass (Devroye 1986, ch. XI).  The tree draws the hull counts of a
block's trials (``_split_counts``), and its windowed binomial pmfs
(``_window``, ``_window_pmfs``) give the exact law of one trial's event
cell (``_cell_law``): the count vectors of every split but the last
(``_prefixes``), each a product of windowed pmfs, with the last split
summed in closed form, telescoped out of its mode over the thresholds it
crosses (``_crossings``).  ``_table_sizes`` counts what that build walks
from the window bounds alone, and ``_root_window`` is the root's window,
over which the tree draws its first split.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

from .moments import MinMaxLaw

BLOCK_SIZE = 1 << 14  # trials per block; no array of a build holds more


def _hull_sums(columns: Sequence[np.ndarray], law: MinMaxLaw) -> tuple[np.ndarray, np.ndarray]:
    """(S_min, S_max) of count vectors given as one column per hull.

    A multiply-accumulate in hull order; both sampling paths use it, so
    equal counts give equal bits: exact int64 sums on a lattice law of
    integer endpoints, as two rows of limbs where its endpoints have the
    shape (2, 1).  A matrix product would hand float sums to BLAS,
    whose own threads would compete with the pool's threads for the cores.
    """
    s_min = columns[0] * law.mins[0]
    s_max = columns[0] * law.maxs[0]
    for k in range(1, len(law.masses)):
        s_min += columns[k] * law.mins[k]
        s_max += columns[k] * law.maxs[k]
    return s_min, s_max


def _window(n, p: float, q: float):
    """(lo, mode, hi) of the Bin(n, p) window, q = 1 - p, for an int or an
    int64 array n: the mode +- (10 sd + 32), cut to [0, n]; by Bernstein's
    inequality each side of it holds less than exp(-46) of the mass."""
    mode = np.minimum(n, np.floor((n + 1) * p).astype(np.int64))
    half = np.ceil(10.0 * np.sqrt(n * p * q)).astype(np.int64) + 32
    return np.maximum(0, mode - half), mode, np.minimum(n, mode + half)


def _window_pmfs(n: np.ndarray, p: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """(first, pmf): row r holds the Bin(n_r, p) pmf at first_r, first_r + 1,
    ..., zero off its window, by the ratio recurrence out of the mode,
    pmf(k + 1) / pmf(k) = (n - k) / (k + 1) * p / q, and normalized."""
    lo, mode, hi, n = (column[:, None] for column in (*_window(n, p, q), n))
    below, above = int((mode - lo).max()), int((hi - mode).max())
    down, up = mode - np.arange(below, dtype=float), mode + np.arange(above, dtype=float)
    left, right = n + 1 - down, up + 1
    np.divide(down, left, out=left)
    left *= q / p
    np.divide(n - up, right, out=right)
    right *= p / q
    for ratio, outside in ((left, down <= lo), (right, up >= hi)):
        ratio[outside] = 1.0
        ratio.cumprod(axis=1, out=ratio)
        ratio[outside] = 0.0
    pmf = np.hstack([left[:, ::-1], np.ones((len(n), 1)), right])
    pmf /= pmf.sum(axis=1, keepdims=True)
    return (mode - below)[:, 0], pmf


def _spread(start: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, value): each row r width_r times, with start_r, start_r + 1, ..."""
    row = np.repeat(np.arange(len(width)), width)
    return row, np.arange(len(row)) + np.repeat(start + width - np.cumsum(width), width)


def _shares(masses: np.ndarray, lo: int, hi: int) -> tuple[float, float]:
    """The shares of hulls [lo, mid) and [mid, hi) in the mass of [lo, hi),
    mid = (lo + hi) // 2."""
    mid = (lo + hi) // 2
    left, right = math.fsum(masses[lo:mid]), math.fsum(masses[mid:hi])
    return left / (left + right), right / (left + right)


def _split_counts(law: MinMaxLaw, n: int, root: tuple[int, np.ndarray] | None,
                  rng: np.random.Generator, size: int) -> list[np.ndarray]:
    """Hull counts of ``size`` trials of (law, n), one int64 column per
    hull, by a binary tree of binomial splits.

    A node splits its count of hulls [lo, hi) into [lo, mid) and [mid, hi),
    mid = (lo + hi) // 2; the left count is binomial with the left share
    of the node's mass (Devroye 1986, ch. XI), and the leaves give the
    columns in hull order.  The root's left counts are one multinomial
    over ``root``, the (lo, pmf) of ``_root_window``: each count value
    repeated as often as it is drawn, so the column comes out sorted and
    numpy reuses its binomial setup across equal counts at the second
    level.  Every other split, and the root where ``root`` is None, takes
    ``rng.binomial``, depth first and left before right.
    """
    k = len(law.masses)
    columns: list[np.ndarray] = [None] * k
    pending = [(0, k, np.full(size, n, dtype=np.int64))]
    while pending:
        lo, hi, count = pending.pop()
        if hi - lo == 1:
            columns[lo] = count
            continue
        if hi - lo == k and root is not None:
            lo_count, pmf = root
            left = np.repeat(np.arange(lo_count, lo_count + len(pmf)),
                             rng.multinomial(size, pmf))
        else:
            left = rng.binomial(count, _shares(law.masses, lo, hi)[0])
        count -= left
        mid = (lo + hi) // 2
        pending += [(mid, hi, count), (lo, mid, left)]
    return columns


def _binomial_window(n: int, p: float, q: float, limit: int) -> tuple[int, np.ndarray] | None:
    """(lo, pmf) of the Bin(n, p) window, or None past ``limit`` entries."""
    lo, _, hi = _window(n, p, q)
    return (int(lo), _window_pmfs(np.array([n]), p, q)[1][0]) if hi - lo < limit else None


def _root_window(law: MinMaxLaw, n: int, limit: int) -> tuple[int, np.ndarray] | None:
    """The ``_binomial_window`` of the root split's left count."""
    return _binomial_window(n, *_shares(law.masses, 0, len(law.masses)), limit)


def _last_totals(law: MinMaxLaw, n: int, limit: int) -> np.ndarray | None:
    """The totals that the tree's last split, of hulls k - 2 and k - 1, can
    get: the right-most nodes [lo, k) pass a range of totals down to it,
    each node's the windows of its parent's; None past ``limit`` totals."""
    k, lo, first, last = len(law.masses), 0, n, n
    while k - lo > 2 and last - first < limit:
        totals = np.arange(first, last + 1)
        start, _, stop = _window(totals, *_shares(law.masses, lo, k))
        first, last, lo = (totals - stop).min(), (totals - start).max(), (lo + k) // 2
    return np.arange(first, last + 1) if last - first < limit else None


def _table_sizes(law: MinMaxLaw, n: int, limit: int) -> tuple[int, int]:
    """(prefixes, entries) that the cell law of (law, n) walks
    (``_cell_law``), counted from the window bounds alone, each
    ``limit + 1`` where it is larger: the vectors of every split but the
    last inside its window, a node counting those below its totals a
    quarter block of window entries at a time, each count capped at
    ``limit + 1`` before it is summed, and the window entries of the last
    split's totals (``_last_totals``)."""
    k, totals = len(law.masses), _last_totals(law, n, limit)

    def count(lo: int, hi: int, totals: np.ndarray) -> np.ndarray:
        if hi - lo == 1 or lo == k - 2:
            return np.ones(len(totals), dtype=np.int64)
        start, _, stop = _window(totals, *_shares(law.masses, lo, hi))
        vectors, mid = stop - start + 1, (lo + hi) // 2
        rows = max(1, len(totals) * (BLOCK_SIZE // 4) // int(vectors.sum()))
        for first in range(0, len(totals) if hi - lo > 2 else 0, rows):
            if vectors.sum() > limit:
                break
            part = slice(first, first + rows)
            row, left = _spread(start[part], vectors[part])
            products = np.multiply(count(lo, mid, left), count(mid, hi, totals[part][row] - left),
                                   dtype=float)
            vectors[part] = np.bincount(row, np.minimum(products, limit + 1))
        return np.full(len(totals), limit + 1) if vectors.sum() > limit else vectors

    if totals is None:  # each total has a prefix
        return limit + 1, limit + 1
    start, _, stop = _window(totals, *_shares(law.masses, k - 2, k))
    return (min(int(count(0, k, np.array([n]))[0]), limit + 1),
            min(int((stop - start + 1).sum()), limit + 1))


def _prefixes(law: MinMaxLaw, n: int, spans: Sequence[np.ndarray]) -> Iterator[Iterable[tuple]]:
    """Per span of the last split's totals, the (counts, pmf) slices of the
    prefixes ``_table_sizes`` counts whose last split's total is in
    [span[0], span[-1]]: ``counts`` maps each leaf, and the last split's
    node [k - 2, k), to its counts, each probability the product of its
    splits' windowed pmfs.  The splits down to the last split's parent,
    the node [lo, k) with (lo + k) // 2 = k - 2, are made once, and so are
    that parent's window pmfs; only its split is cut to each span.  A node
    splits a slice at once, after cutting it where it would pass a quarter
    block of window entries."""
    k = len(law.masses)

    def split(counts: dict, pmf: np.ndarray, node: tuple[int, int], start: np.ndarray,
              stop: np.ndarray, pmfs: tuple[np.ndarray, np.ndarray], todo: list):
        """``expand`` of the slice with ``node`` split, its left count in
        [start, stop] and of the window pmfs (first, window)."""
        (lo, hi), (first, window), totals = node, pmfs, counts[node]
        mid = (lo + hi) // 2
        row, left = _spread(start, np.maximum(stop - start + 1, 0))
        counts = {c: v[row] for c, v in counts.items() if c != node}
        counts[lo, mid], counts[mid, hi] = left, totals[row] - left
        todo = todo + [(a, b) for a, b in ((lo, mid), (mid, hi)) if b - a > 1 and a < k - 2]
        return expand(counts, pmf[row] * window[row, left - first[row]], todo)

    def expand(counts: dict, pmf: np.ndarray, todo: list):
        """The (counts, pmf) slices with every node on ``todo`` split, last
        first; a slice that reaches the last split's parent stops there, as
        (counts, pmf, (parent, start, stop, its window pmfs), nodes left)."""
        if not todo:
            yield counts, pmf
            return
        node, rest = todo[-1], todo[:-1]
        totals, (p, q) = counts[node], _shares(law.masses, *node)
        start, _, stop = _window(totals, p, q)
        if len(totals) > 1 and (stop - start + 1).sum() > BLOCK_SIZE // 4:
            for part in (slice(0, len(totals) // 2), slice(len(totals) // 2, None)):
                yield from expand({c: v[part] for c, v in counts.items()}, pmf[part], todo)
            return
        pmfs = _window_pmfs(totals, p, q)
        if sum(node) // 2 == k - 2:
            yield counts, pmf, (node, start, stop, pmfs), rest
        else:
            yield from split(counts, pmf, node, start, stop, pmfs, rest)

    def cut(span: np.ndarray):
        for counts, pmf, (node, start, stop, pmfs), rest in parents:
            totals = counts[node]
            yield from split(counts, pmf, node, np.maximum(start, totals - span[-1]),
                             np.minimum(stop, totals - span[0]), pmfs, rest)

    if k == 2:  # the root is the last split
        return ([({(0, 2): np.array([n])}, np.ones(1))] for _ in spans)
    parents = list(expand({(0, k): np.array([n])}, np.ones(1), [(0, k)]))
    return map(cut, spans)


def _crossings(bounds: np.ndarray, step: int, weight: int) -> tuple[np.ndarray, np.ndarray]:
    """(numerators, ranks) of one statistic x + b * step as b grows, step
    != 0: where the weighted rank weight * #(g <= x + b * step, g in
    ``bounds``) moves, and its value on each run of b in between, first to
    last.  The rank moves at b = (numerator - x) // step: the least b with
    g <= x + b * step (step > 0) or x + b * step < g (step < 0), for each
    distinct g in the order x crosses them."""
    bounds = np.sort(bounds)
    distinct = np.array(sorted(set(bounds.tolist())), dtype=np.int64)
    ranks = weight * np.concatenate([[0], np.searchsorted(bounds, distinct, side="right")])
    if step < 0:
        distinct, ranks = distinct[::-1], ranks[::-1]
    return distinct + step - (step > 0), ranks


def _cell_law(law: MinMaxLaw, n: int, cell_of: Callable[..., np.ndarray],
              bounds: tuple[np.ndarray, np.ndarray], length: int) -> np.ndarray:
    """The law of one trial's event cell at a tabled (law, n), ``law`` on
    its lattice with twice its sums in int64 (``montecarlo.is_tabled``):
    ``cell_of`` maps the integer hull sums S/h to cells, of which there are
    ``length``, by the thresholds ``bounds`` of S_min/h and S_max/h
    (``montecarlo._EventCells.at``): cell = (len(bounds[1]) + 1) * (low
    rank) + (up rank), each rank the thresholds at or below its sum.

    The last split of the tree gives b of its total t to hull k - 2 and
    t - b to hull k - 1, so on each prefix (``_prefixes``) S/h moves by
    the fixed integer v_{k-2} - v_{k-1} per unit of b, and a side's rank
    moves only where b crosses one of its thresholds (``_crossings``).  The
    sum over b of the window pmf of t times the cell of b telescopes out of
    the mode: the prefix's pmf times the window's mass goes to the cell at
    the mode, and each crossing at b moves the window's mass beyond it, the
    mass at and above b (b above the mode) or minus the mass below b (at or
    below it), from the cell at b - 1 to the cell at b.  Each of those sums
    is accumulated out of its own tail, so none loses a tail mass to
    cancellation, and the window's mass is the sum of its two tails at the
    mode, so the run that holds the mode gets the same sums too.  Along
    one side, the crossings that bound a run of b go to that run's cell as
    one difference, so a run of no b adds exactly 0.  Where the other side
    is fixed, that cell is the mode's with the side's rank changed, and
    where both move, the cells at b - 1 and b are looked up; a crossing of
    both sides at one b is moved once, with the low side's.  The totals go
    half a block of window entries at a time, and no array of crossings
    passes a quarter block.  The sum is divided by its total.
    """
    k = len(law.masses)
    p, q = _shares(law.masses, k - 2, k)
    totals = _last_totals(law, n, n + 1)
    lo, mode, hi = _window(totals, p, q)
    chunk = max(1, BLOCK_SIZE // 2 // int((mode - lo).max() + (hi - mode).max() + 3))
    spans = [totals[c:c + chunk] for c in range(0, len(totals), chunk)]
    steps = int(law.mins[k - 2] - law.mins[k - 1]), int(law.maxs[k - 2] - law.maxs[k - 1])
    scale = len(bounds[1]) + 1  # the low rank's weight in a cell
    sides = [(side, step, *_crossings(b, step, weight))
             for side, (b, step, weight) in enumerate(zip(bounds, steps, (scale, 1))) if step]
    p_cell = np.zeros(length)
    for span, prefixes in zip(spans, _prefixes(law, n, spans)):
        first, table = _window_pmfs(span, p, q)
        m, width = int(mode[span[0] - totals[0]] - first[0]), table.shape[1]
        for tail in (table[:, :m], table[:, m:][:, ::-1]):
            tail.cumsum(1, out=tail)
        # each row's mass as the sum of its two tails at the mode, 1 up to
        # rounding: what a prefix puts in its cell at the mode, so that each
        # run gets a difference of the same sums
        mode_mass = table[:, m] + (table[:, m - 1] if m else 0.0)
        zero = np.zeros((len(table), 1))
        # row r, column i, b = first_r + i: how much mass a crossing at b
        # moves, minus the mass below b up to the mode, then the mass at and
        # above b; 0 at both ends.  Negated out of place: with numpy 2.4.6,
        # np.negative(v, out=v) on a one-column view v of an 8-column array
        # negates the array's first row instead
        table = np.hstack([zero, -table[:, :m], table[:, m + 1:], zero]).ravel()
        for counts, weight in prefixes:
            t = counts.pop((k - 2, k))
            x = _hull_sums([counts[h, h + 1] for h in range(k - 2)] + [0 * t, t], law)
            low, peak, high = (ends[t - totals[0]] for ends in (lo, mode, hi))
            # the sums at the mode, the b - mode of the window's ends, and
            # the column of the mode in the table
            for x0, step in zip(x, steps):
                x0 += peak * step
            low -= peak
            high -= peak - 1
            row = (t - span[0]) * (width + 1) + m
            cell = cell_of(*(x0.copy() for x0 in x))
            p_cell += np.bincount(cell, weight * mode_mass[t - span[0]], minlength=length)
            for side, step, numerators, ranks in sides:
                rows = max(1, BLOCK_SIZE // 4 // (len(numerators) + 2))
                for part in range(0, len(t), rows):
                    at = slice(part, part + rows)
                    # column i: the b - mode of the i-th crossing, cut to the
                    # table, with the table's two ends around them
                    b = np.empty((len(t[at]), len(numerators) + 2), dtype=np.int64)
                    b[:, 0], b[:, -1] = -m, width - m
                    crossed = b[:, 1:-1]
                    np.subtract(numerators, x[side][at, None], out=crossed)
                    crossed //= step
                    np.clip(crossed, -m, width - m, out=crossed)
                    b += row[at, None]
                    mass = table.take(b)
                    mass *= weight[at, None]
                    if not steps[1 - side]:
                        other = cell[at] % scale if side == 0 else cell[at] - cell[at] % scale
                        p_cell += np.bincount((other[:, None] + ranks.astype(other.dtype)).ravel(),
                                              (mass[:, :-1] - mass[:, 1:]).ravel(),
                                              minlength=length)
                        continue
                    b -= row[at, None]
                    np.clip(b, low[at, None], high[at, None], out=b)
                    after, before = (cell_of(*(x0[at, None] + (b - d) * s
                                               for x0, s in zip(x, steps))) for d in (0, 1))
                    if side == 1:  # where the low rank moves too, the low side moved it
                        mass *= after // scale == before // scale
                    runs = b[:, :-1] < b[:, 1:]  # the runs of some b
                    p_cell += np.bincount(after[:, :-1].ravel(), (mass[:, :-1] * runs).ravel(),
                                          minlength=length)
                    p_cell -= np.bincount(before[:, 1:].ravel(), (mass[:, 1:] * runs).ravel(),
                                          minlength=length)
    return p_cell / p_cell.sum()
