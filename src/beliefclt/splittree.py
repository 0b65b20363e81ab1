"""The binary tree of binomial splits over the hulls of a (min, max) law.

A node splits its count of hulls [lo, hi) into [lo, mid) and [mid, hi),
mid = (lo + hi) // 2, the left count binomial with the left share of the
node's mass (Devroye 1986, ch. XI).  The tree draws the hull counts of a
block's trials (``_split_counts``), and its windowed binomial pmfs
(``_window``, ``_window_pmfs``) give the exact law of one trial's event
cell (``_cell_law``): the count vectors of every split but the last, each
a product of windowed pmfs, with the last split summed in closed form
between the thresholds it crosses (``_runs``).  ``_table_sizes`` counts
what that build walks from the window bounds alone, and ``_root_window``
is the root's window, over which the tree draws its first split.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

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
    quarter block of window entries at a time, and the window entries of
    the last split's totals (``_last_totals``)."""
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
            vectors[part] = np.bincount(row, count(lo, mid, left)
                                        * count(mid, hi, totals[part][row] - left))
        return np.full(len(totals), limit + 1) if vectors.sum() > limit else vectors

    if totals is None:  # each total has a prefix
        return limit + 1, limit + 1
    start, _, stop = _window(totals, *_shares(law.masses, k - 2, k))
    return (min(int(count(0, k, np.array([n]))[0]), limit + 1),
            min(int((stop - start + 1).sum()), limit + 1))


def _prefixes(law: MinMaxLaw, n: int, span: np.ndarray):
    """(counts, pmf) slices of the prefixes ``_table_sizes`` counts whose
    last split's total is in [span[0], span[-1]]: ``counts`` maps each
    leaf, and the last split's node [k - 2, k), to its counts, each
    probability the product of its splits' windowed pmfs.  A node splits a
    slice at once, after cutting it where it would pass a quarter block."""
    k = len(law.masses)

    def expand(counts: dict, pmf: np.ndarray, todo: list):
        if not todo:
            yield counts, pmf
            return
        (lo, hi), rest = todo[-1], todo[:-1]
        mid, totals, (p, q) = (lo + hi) // 2, counts[lo, hi], _shares(law.masses, lo, hi)
        start, _, stop = _window(totals, p, q)
        if mid == k - 2:
            start, stop = np.maximum(start, totals - span[-1]), np.minimum(stop, totals - span[0])
        width = np.maximum(stop - start + 1, 0)
        if len(totals) > 1 and width.sum() > BLOCK_SIZE // 4:
            for part in (slice(0, len(totals) // 2), slice(len(totals) // 2, None)):
                yield from expand({node: c[part] for node, c in counts.items()}, pmf[part], todo)
            return
        row, left = _spread(start, width)
        first, window = _window_pmfs(totals, p, q)
        counts = {node: c[row] for node, c in counts.items() if node != (lo, hi)}
        counts[lo, mid], counts[mid, hi] = left, totals[row] - left
        rest += [(a, b) for a, b in ((lo, mid), (mid, hi)) if b - a > 1 and a < k - 2]
        yield from expand(counts, pmf[row] * window[row, left - first[row]], rest)

    return expand({(0, k): np.array([n])}, np.ones(1), [(0, k)] if k > 2 else [])


def _runs(x: Sequence[np.ndarray], steps: Sequence[int], bounds: Sequence[np.ndarray],
          start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Per row, the edges of the runs of b in [start, stop] on which the
    sums x + b * step of both statistics cross none of their thresholds
    ``bounds``: sorted, start first and stop + 1 last, with the b where
    g <= x + b * step starts (step > 0) or stops (step < 0) to hold."""
    edges = np.hstack([start, stop + 1] + [
        (g - x0 + step - (step > 0)) // step for x0, step, g in zip(x, steps, bounds) if step])
    np.clip(edges, start, stop + 1, out=edges)
    edges.sort(axis=1)
    return edges


def _cell_law(law: MinMaxLaw, n: int, cell_of: Callable[..., np.ndarray],
              bounds: tuple[np.ndarray, np.ndarray], length: int) -> np.ndarray:
    """The law of one trial's event cell at a tabled (law, n), ``law`` on
    its lattice with twice its sums in int64 (``montecarlo.is_tabled``):
    ``cell_of`` maps the integer hull sums S/h to cells, of which there are
    ``length``, by the thresholds ``bounds`` of S_min/h and S_max/h
    (``montecarlo._EventCells.at``).

    The last split of the tree gives b of its total t to hull k - 2 and
    t - b to hull k - 1, so on each prefix (``_prefixes``) S/h moves by
    the fixed integer v_{k-2} - v_{k-1} per unit of b, and the cell changes
    only where b crosses a threshold.  Each run of b between those adds the
    prefix's pmf times the run's mass under the window pmf of t to the cell
    of its first b.  That mass is a difference of two sums of the pmf, both
    accumulated out of the tail nearer to the run, so no cancellation
    loses it.  The totals go half a block of window entries at a time,
    and a chunk of prefixes holds at most a block of runs.  The sum is
    divided by its total.
    """
    k = len(law.masses)
    p, q = _shares(law.masses, k - 2, k)
    totals = _last_totals(law, n, n + 1)
    lo, mode, hi = _window(totals, p, q)
    chunk = max(1, BLOCK_SIZE // 2 // int((mode - lo).max() + (hi - mode).max() + 3))
    steps = law.mins[k - 2] - law.mins[k - 1], law.maxs[k - 2] - law.maxs[k - 1]
    bounds = [np.array(sorted(set(b.tolist())), dtype=np.int64) for b in bounds]
    rows = max(1, BLOCK_SIZE // (2 + len(bounds[0]) + len(bounds[1])))
    p_cell = np.zeros(length)
    for c in range(0, len(totals), chunk):
        first, sums = _window_pmfs(totals[c:c + chunk], p, q)
        m, zero = mode[c] - first[0], np.zeros((len(sums), 1))
        for side in (sums[:, :m], sums[:, m:][:, ::-1]):
            side.cumsum(1, out=side)
        # row r: 0, then the pmf's mass below first_r + 1, ..., mode_r, then
        # its mass at and above mode_r, ..., the window's last count, then 0
        sums = np.hstack([zero, sums, zero])
        width, sums = sums.shape[1], sums.ravel()
        for counts, weight in _prefixes(law, n, totals[c:c + chunk]):
            t = counts.pop((k - 2, k))
            sides = _hull_sums([counts[h, h + 1] for h in range(k - 2)] + [0 * t, t], law)
            for part in range(0, len(t), rows):
                x = [side[part:part + rows, None] for side in sides]
                total = t[part:part + rows, None]
                start, _, stop = _window(total, p, q)
                edges = _runs(x, steps, bounds, start, stop)
                cells = cell_of(*(x0 + edges[:, :-1] * step for x0, step in zip(x, steps)))
                r = total - totals[c]
                edges -= first[r]
                r *= width
                mass = np.diff(sums.take(r + np.minimum(edges, m)))
                np.maximum(edges, m, out=edges)
                edges += r + 1
                mass -= np.diff(sums.take(edges))
                mass *= weight[part:part + rows, None]
                p_cell += np.bincount(cells.ravel(), mass.ravel(), minlength=length)
    return p_cell / p_cell.sum()
