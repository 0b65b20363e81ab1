"""The binary tree of binomial splits over the hulls of a (min, max) law.

A node splits its count of hulls [lo, hi) into [lo, mid) and [mid, hi),
mid = (lo + hi) // 2, the left count binomial with the left share of the
node's mass (Devroye 1986, ch. XI).  The tree draws the hull counts of a
block's trials (``_split_counts``), and on a law of at most four hulls
its windowed binomial pmfs (``_window``, ``_window_pmfs``) give the exact
law of one trial's event cell (``_cell_law``): the count vectors of the
splits above the last (``_prefixes``: the counts of the hulls below the
last split with its total, on four hulls each root count with the pair's
counts below it, or the pair's total where the pair is closed), each a
product of windowed pmfs, with the last split summed in closed form over
the runs between the thresholds it crosses (``_crossings``), each run's
mass out of the nearer tail of its window (``_tails``).  Where the leaf
pair beside the last split has a closed form too (``_sibling``), its
split is summed the same way; any other law reads each run's cell from
the thresholds.  ``_table_sizes`` counts what that build walks in
closed form from the window bounds, and past four hulls counts more than
any limit, so such a law is never tabled.  ``_root_window`` is the
root's window, over which the tree draws its first split.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence

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
    pmf(k + 1) / pmf(k) = (n - k) / (k + 1) * p / q, and normalized.  The
    modes share one column, with as many columns before and after it as
    the rows' windows reach; a row's bits depend on the other rows only
    through those two reaches."""
    lo, mode, hi, n = (column[:, None] for column in (*_window(n, p, q), n))
    below, above = int((mode - lo).max()), int((hi - mode).max())
    first = (mode - below)[:, 0]
    lo, mode, hi, n = (v.astype(float) for v in (lo, mode, hi, n))
    down, up = mode - np.arange(below, dtype=float), mode + np.arange(above, dtype=float)
    left, right = n + 1 - down, up + 1
    np.divide(down, left, out=left)
    left *= q / p
    np.divide(n - up, right, out=right)
    right *= p / q
    # past a window's end the products stay finite, and are set to 0
    for ratio, outside in ((left, down <= lo), (right, up >= hi)):
        ratio.cumprod(axis=1, out=ratio)
        ratio[outside] = 0.0
    pmf = np.empty((len(n), below + 1 + above))
    pmf[:, :below] = left[:, ::-1]
    pmf[:, below] = 1.0
    pmf[:, below + 1:] = right
    pmf /= pmf.sum(axis=1, keepdims=True)
    return first, pmf


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
    get on a law of at most four hulls: n where it is the root, else n less
    each left count of the root's window; None past ``limit`` totals."""
    k = len(law.masses)
    lo, _, hi = _window(n, *_shares(law.masses, 0, k)) if k > 2 else (0, 0, 0)
    return np.arange(n - hi, n - lo + 1) if hi - lo < limit else None


def _sibling(law: MinMaxLaw) -> bool:
    """Whether the cell law sums the split of the leaf pair [0, 2) beside
    the last split [2, 4) of a four-hull law in closed form (``_cell_law``):
    where the last split moves one side of the sums on the lattice, by s
    per unit of its left count b, and a unit of the pair's left count c
    moves that side by d, |d| < |s|, so each of that side's crossings stays
    put over runs of the pair's counts.  Else a four-hull law's pair is
    enumerated with the root's split (``_prefixes``)."""
    if len(law.masses) != 4:
        return False
    _, mins, maxs = law.lattice
    moving = [(ends[2] - ends[3], ends[0] - ends[1])
              for ends in (mins, maxs) if ends[2] != ends[3]]
    return len(moving) == 1 and abs(moving[0][1]) < abs(moving[0][0])


def _table_sizes(law: MinMaxLaw, n: int, limit: int) -> tuple[int, int]:
    """(prefixes, entries) that the cell law of (law, n) walks
    (``_cell_law``), each ``limit + 1`` where it is larger, and both past
    four hulls, whose laws are never tabled.  The prefixes are the root's
    left counts in its window, and on four hulls with no closed pair
    (``_sibling``) the pair's left counts in their windows below each.  The
    entries are those of the windows built: the last split's, once per
    total (``_last_totals``), and the closed pair's, once per prefix."""
    k = len(law.masses)
    totals = _last_totals(law, n, limit) if k <= 4 else None
    if totals is None:
        return limit + 1, limit + 1
    start, _, stop = _window(totals, *_shares(law.masses, k - 2, k))
    prefixes, entries = len(totals) if k > 2 else 1, int((stop - start + 1).sum())
    if k == 4:
        start, _, stop = _window(n - totals, *_shares(law.masses, 0, 2))
        pair = int((stop - start + 1).sum())
        prefixes, entries = (prefixes, entries + pair) if _sibling(law) else (pair, entries)
    return min(prefixes, limit + 1), min(entries, limit + 1)


def _prefixes(law: MinMaxLaw, n: int, spans: Sequence[np.ndarray]) -> Iterator[Iterable[tuple]]:
    """Per span of the last split's totals, the (leaves, t, pmf) slices of
    the prefixes ``_table_sizes`` counts whose last split's total t is in
    [span[0], span[-1]], ``leaves`` the counts of the hulls below the last
    split (the pair's total where the pair is closed, ``_sibling``), each
    probability the product of the root's windowed pmf and, on four hulls
    with no closed pair, the pair's.  The root's window pmf is built once.
    A span is one slice, but on four hulls with no closed pair it is cut,
    one part at a time, where the pair's windows would pass a quarter block
    of entries; a part's windows are built as one array, a row per prefix
    as wide as its widest reach below and above the mode; each reach grows
    by at most one per unit of the count, so the array holds less than
    twice the part's entries."""
    k = len(law.masses)
    if k == 2:  # the root is the last split
        return ([([], np.array([n]), np.ones(1))] for _ in spans)
    r_first, root = _window_pmfs(np.array([n]), *_shares(law.masses, 0, k))
    shares, whole = _shares(law.masses, 0, 2), k == 3 or _sibling(law)

    def cut(totals: np.ndarray) -> Iterator[slice]:
        """The pair's ``totals``, cut in order into the fewest parts whose
        windows hold at most a quarter block of entries, or one prefix."""
        start, _, stop = _window(totals, *shares)
        before, cuts = np.concatenate([[0], np.cumsum(stop - start + 1)]), [0]
        while cuts[-1] < len(totals):
            end = int(before.searchsorted(before[cuts[-1]] + BLOCK_SIZE // 4, side="right") - 1)
            cuts.append(max(cuts[-1] + 1, end))
        return map(slice, cuts, cuts[1:])

    def enumerated(r: np.ndarray, pmf: np.ndarray) -> tuple:
        """The prefixes of the pair's totals r: each with each count c of
        the pair's first leaf in its window."""
        start, _, stop = _window(r, *shares)
        c_first, window = _window_pmfs(r, *shares)
        row, c = _spread(start, stop - start + 1)
        return [c, r[row] - c], n - r[row], pmf[row] * window[row, c - c_first[row]]

    def prefixes(span: np.ndarray) -> Iterable[tuple]:
        r = np.arange(n - span[-1], n - span[0] + 1)
        pmf = root[0, r - r_first[0]]
        return [([r], n - r, pmf)] if whole else (enumerated(r[p], pmf[p]) for p in cut(r))

    return map(prefixes, spans)


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


def _tails(pmf: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(table, mass) of rows of window pmfs whose mode is in column m, the
    pmf accumulated in place from each end of the window.  ``mass`` is each
    row's mass as the sum of its two tails at the mode, 1 up to rounding;
    ``table`` has a column more than ``pmf``, 0 at both ends, and in column
    i, 0 < i < width, minus the mass below column i up to the mode, then
    the mass at and above it.  The mass of the columns [i, j), i <= j, is
    table[i] - table[j], plus ``mass`` where i <= m < j: a difference of
    two sums of one tail where the columns lie on one side of the mode, so
    no tail mass is lost to cancellation."""
    rows, width = pmf.shape
    table = np.empty((rows, width + 1))
    table[:, 0] = table[:, width] = 0.0
    pmf[:, :m].cumsum(1, out=pmf[:, :m])
    # negated by a product: with numpy 2.4.6, np.negative of a one-column
    # view of an 8-column array negates the wrong entries
    np.multiply(pmf[:, :m], -1.0, out=table[:, 1:m + 1])
    np.cumsum(pmf[:, :m:-1], axis=1, out=table[:, width - 1:m:-1])
    return table, pmf[:, m] + table[:, m + 1] - table[:, m]


def _cell_law(law: MinMaxLaw, n: int, bounds: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The law of one trial's event cell at a tabled (law, n), ``law`` of
    at most four hulls, on its lattice with twice its sums in int64
    (``montecarlo.is_tabled``), by the thresholds ``bounds`` of S_min/h
    and S_max/h (``montecarlo._EventCells.at``): cell = (len(bounds[1]) +
    1) * (low rank) + (up rank), each rank the thresholds at or below its
    sum.

    The last split of the tree gives b of its total t to hull k - 2 and
    t - b to hull k - 1, so on each prefix (``_prefixes``) S/h moves by
    the fixed integer s per unit of b, and a side's rank moves only where
    b crosses one of its thresholds (``_crossings``).  The mass of the b at
    or past a column is a sum out of the nearer tail of t's window
    (``_tails``), so each run of b gets the difference of that mass at its
    two ends.  With no closed pair beside the last split (``_sibling``),
    the runs lie between the merged crossings of every moving side and the
    two ends of t's window, and each run's cell is read from ``bounds`` at
    its first b.  With one, one side moves with b, and the pair's split, c
    of its total to its first leaf, is summed in closed form too: a unit of
    c moves the sums by a fixed d, so each crossing's b is floor-linear in
    c and stays put over runs of about |s / d| counts, and the other side's
    rank moves only where c crosses one of its thresholds, which cut the
    pair's window into pieces.  Per piece and crossing, ``beyond`` sums the
    table of t's window at the crossing's b, and ``below`` the pair's mass
    whose b is at or below the mode, over the runs of c, each weighted by
    the pair's mass on it, also a difference out of the nearer tail; the
    run of b between two crossings gets the difference of their sums.
    Where two crossings have the same b at every c of a piece, their sums
    are equal bit for bit, so a cell no count reaches stays exactly 0.  The
    runs of c at or below the mode are a first or last stretch of a
    piece's runs, and ``below`` takes their mass as one difference.  The
    totals go a block of window entries at a time; with a closed pair, a
    span also holds at most a block of the pair's window entries, whose
    prefixes are one part: their pair windows are built as one array and
    summed at once, half a block of runs at a time.  The sum is divided by
    its total.
    """
    k = len(law.masses)
    p, q = _shares(law.masses, k - 2, k)
    totals = _last_totals(law, n, n + 1)
    lo, mode, hi = _window(totals, p, q)
    width = int((mode - lo).max() + (hi - mode).max())
    chunk = max(1, BLOCK_SIZE // (width + 3))
    sibling = _sibling(law)
    steps = [int(ends[k - 2] - ends[k - 1]) for ends in (law.mins, law.maxs)]
    weights = (len(bounds[1]) + 1, 1)  # of the low rank and the up rank in a cell
    ordered = [np.sort(side) for side in bounds]

    def rank(side: int, x: np.ndarray) -> np.ndarray:
        return weights[side] * ordered[side].searchsorted(x, side="right")

    moving = [side for side in (0, 1) if steps[side]]
    crossings = [_crossings(bounds[side], steps[side], weights[side]) for side in moving]
    pieces, runs = 1, sum(len(numerators) for numerators, _ in crossings)
    if sibling:
        (side,), ((numerators, ranks),) = moving, crossings
        other, shares = 1 - side, _shares(law.masses, 0, 2)
        slopes = [int(ends[0] - ends[1]) for ends in (law.mins, law.maxs)]
        cuts = (_crossings(bounds[other], slopes[other], 1)[0] if slopes[other]
                else np.zeros(0, dtype=np.int64))
        pieces, step, slope = len(cuts) + 1, steps[side], slopes[side]
        # where d = 0 each run of c is its piece's first, whose start y is not read
        rising, sign, reach = step * slope < 0, (1 if step > 0 else -1), abs(slope) or 1
        # the move of b, and of the start's numerator y, from one run to the next
        turn = 1 if rising else -1
        advance, retreat = (np.add, np.subtract) if rising else (np.subtract, np.add)
        index = np.arange(max(BLOCK_SIZE // 2, width + 3))
        # a span's prefixes are summed at once (``pair_sums``), with at most
        # a block of the pair's table entries and of sums per piece and
        # crossing; ``chunk`` holds each term of ``rows``, so a span is one
        # part and its pair windows are built as one array
        start, middle, stop = _window(n - totals, *shares)
        g_width = int((middle - start).max() + (stop - middle).max()) + 2
        chunk = max(1, min(chunk, BLOCK_SIZE // g_width, BLOCK_SIZE // (pieces * (runs + 2))))
    spans = [totals[c:c + chunk] for c in range(0, len(totals), chunk)]

    def pair_sums(xm, low, high, rows, g_table, g_mass, c_lo, c_hi):
        """(cells, beyond, below, r) of the closed pair at a part of the
        prefixes: per live piece of a pair window, its row r in the part,
        its cells and the sums at its bounds of runs of b."""
        g_width, g_table = g_table.shape[1], g_table.ravel()
        # the pieces of the pair window on which the other side's rank holds
        cut = m_c + (cuts - xm[other][:, None]) // slopes[other]
        a = np.concatenate([c_lo, np.minimum(np.maximum(cut, c_lo), c_hi)], axis=1)
        e = np.concatenate([a[:, 1:], c_hi], axis=1)
        live = (a < e).ravel().nonzero()[0]  # the pieces that hold a count
        r, a, e = live // pieces, a.ravel()[live], e.ravel()[live]
        holds, g_rows = (a <= m_c) & (m_c < e), r * g_width
        cells = rank(other, xm[other][r] + slopes[other] * (a - m_c))[:, None] + ranks
        base = numerators - xm[side][r, None]
        # each crossing's b column at the pair's mode, per prefix, and at the
        # first and last c of each piece: m + (base - slope * (c - m_c)) //
        # step, in t's window
        b_mode = np.minimum(np.maximum(m + (numerators - xm[side][:, None]) // step, low), high)
        b_a, b_e = (np.minimum(np.maximum(m + (base - slope * c) // step, low[r]), high[r])
                    for c in ((a - m_c)[:, None], (e - 1 - m_c)[:, None]))
        # per group, a piece and a crossing: its runs of c, one per b; the
        # pair table's columns of its piece's ends and of the pair's mode (+ 1
        # where b falls), b - m at its first run and at the mode, and t's
        # table row at the mode
        widths = (np.abs(b_e - b_a) + 1).ravel()
        ends = widths.cumsum()
        g_first, g_end, c_rows, f_rows, pair_mass = (np.repeat(v, runs) for v in (
            g_rows + a, g_rows + e, g_rows + m_c + (not rising), rows[r] * f_width + m,
            g_mass[r] * holds))
        b_first, b_pair = b_a.ravel() - m, (b_mode[r] - m).ravel()
        y_first = sign * (base.ravel() - (not rising) * step)
        beyond, below = pair_mass * f_table[f_rows + b_pair], pair_mass * (b_pair <= 0)
        # the groups a part at a time, no part past half a block of runs;
        # each array of runs is dropped once read, so that at most three are
        # held
        cap = max(1, BLOCK_SIZE // 2 + 1 - int(widths.max(initial=0)))
        parts = np.unique([0, *ends.searchsorted(np.arange(cap, widths.sum(), cap), side="right"),
                           len(widths)])
        for at in map(slice, parts[:-1], parts[1:]):
            width, heads = widths[at], ends[at] - widths[at] - (ends[at][0] - widths[at][0])
            size = int(heads[-1] + width[-1])
            # entry i of group g is its run of b - m = b0[g] + turn * i; a run
            # of c after a piece's first starts where its crossing reaches b
            b0 = b_first[at] - turn * heads
            y = np.repeat(y_first[at] - b0 * (sign * step), width)
            y -= index[:size] * (turn * sign * step)
            if reach > 1:
                y //= reach
            starts = np.repeat(c_rows[at], width)
            retreat(starts, y, out=starts)
            del y
            starts[heads] = g_first[at]
            # each run's pair mass: its start's table value less the next's
            at_start = np.zeros(size + 1)
            g_table.take(starts, out=at_start[:size])
            del starts
            last, tail = heads + width - 1, g_table[g_end[at]]
            share = at_start[:-1] - at_start[1:]
            share[last] = at_start[last] - tail
            # the runs whose b is at or below the mode, a first (rising) or
            # last (falling) stretch of each group, summed as one difference
            edge = np.minimum(np.maximum(b_first[at] * -turn + rising, 0), width)
            inner = np.where(edge < width, at_start[heads + edge], tail)
            below[at] += g_table[g_first[at]] - inner if rising else inner - tail
            del at_start
            f_at = np.repeat(f_rows[at] + b0, width)
            advance(f_at, index[:size], out=f_at)
            share *= f_table[f_at]
            del f_at
            beyond[at] += np.add.reduceat(share, heads)
            del share
        sums = [np.zeros((len(r), runs + 2)) for _ in (0, 1)]
        for side_sums, values in zip(sums, (beyond, below)):
            side_sums[:, 1:-1] = values.reshape(len(r), runs)
        sums[1][:, 0] = g_table[g_rows + a] - g_table[g_rows + e] + g_mass[r] * holds
        return cells, *sums, r

    rows = max(1, BLOCK_SIZE // (pieces * (runs + 2)))  # the prefixes of a part
    p_cell = np.zeros((len(bounds[0]) + 1) * weights[0])
    for span, prefixes in zip(spans, _prefixes(law, n, spans)):
        first, f_table = _window_pmfs(span, p, q)
        m = int(mode[span[0] - totals[0]] - first[0])
        f_table, f_mass = _tails(f_table, m)
        f_width = f_table.shape[1]
        f_table = f_table.ravel()
        for leaves, t, weight in prefixes:
            row = t - span[0]
            b_lo, b_hi = lo[t - totals[0]] - first[row], hi[t - totals[0]] - first[row] + 1
            if sibling:  # the pair's total, split at the modes of its windows
                (size,) = leaves
                c_lo, c_mode, c_hi = _window(size, *shares)
                m_c = int((c_mode - c_lo).max())
                c_lo, c_hi = c_lo - c_mode + m_c, c_hi - c_mode + m_c + 1
                leaves = [c_mode, size - c_mode]
            # the sums at the modes of the windows, a count vector of the law
            x = _hull_sums(leaves + [mode[t - totals[0]], t - mode[t - totals[0]]], law)
            for part in range(0, len(t), rows):
                at = slice(part, part + rows)
                xm = [x0[at] for x0 in x]
                low, high = b_lo[at, None], b_hi[at, None]
                if not sibling:
                    # the bounds of the runs of b, as columns of t's window
                    bound = np.concatenate([low, high] + [
                        m + (numerators - xm[s][:, None]) // steps[s]
                        for s, (numerators, _) in zip(moving, crossings)], axis=1)
                    bound = np.sort(np.minimum(np.maximum(bound, low), high), axis=1)
                    cells = sum(rank(s, xm[s][:, None] + steps[s] * (bound[:, :-1] - m))
                                for s in (0, 1))
                    beyond = f_table[(row[at] * f_width)[:, None] + bound]
                    below = 1.0 * (bound <= m)
                    r = np.arange(len(bound))
                else:
                    g_table = _tails(_window_pmfs(size[at], *shares)[1], m_c)
                    cells, beyond, below, r = pair_sums(xm, low, high, row[at], *g_table,
                                                        c_lo[at, None], c_hi[at, None])
                # a run of b between two bounds: the difference of the mass at
                # or past them, the window's mass where the run holds its mode
                mass = ((beyond[:, :-1] - beyond[:, 1:])
                        + f_mass[row[at][r], None] * (below[:, :-1] - below[:, 1:]))
                mass *= weight[at][r, None]
                p_cell += np.bincount(cells.ravel(), mass.ravel(), minlength=len(p_cell))
    return p_cell / p_cell.sum()
