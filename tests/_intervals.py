"""Boolean algebra of interval events: a test oracle.

The package needs only the events' constructors and the two closed-interval
predicates that belief and plausibility use.  The tests also take
complements, unions and intersections, and test membership of points; those
operations live here.
"""

from __future__ import annotations

import math

from beliefclt.intervals import IntervalEvent, Piece


def empty() -> IntervalEvent:
    return IntervalEvent(())


def real_line() -> IntervalEvent:
    return IntervalEvent((Piece(-math.inf, math.inf, False, False),))


def interval(lo: float, hi: float, lo_closed: bool = True, hi_closed: bool = True) -> IntervalEvent:
    return IntervalEvent((Piece(lo, hi, lo_closed, hi_closed),))


def is_empty(ev: IntervalEvent) -> bool:
    return not ev.pieces


def contains_point(ev: IntervalEvent, x: float) -> bool:
    return any(p.contains_point(x) for p in ev.pieces)


def union(a: IntervalEvent, b: IntervalEvent) -> IntervalEvent:
    return IntervalEvent(a.pieces + b.pieces)


def complement(ev: IntervalEvent) -> IntervalEvent:
    """The complement within the whole real line."""
    out: list[Piece] = []
    cursor = -math.inf
    cursor_closed = False  # openness of the *lower* end of the gap
    for p in ev.pieces:
        gap = Piece(cursor, p.lo, cursor_closed, not p.lo_closed)
        if not gap.is_empty():
            out.append(gap)
        cursor = p.hi
        cursor_closed = not p.hi_closed
    tail = Piece(cursor, math.inf, cursor_closed, False)
    if not tail.is_empty():
        out.append(tail)
    return IntervalEvent(out)


def intersect(a: IntervalEvent, b: IntervalEvent) -> IntervalEvent:
    out: list[Piece] = []
    for p in a.pieces:
        for q in b.pieces:
            # tighter bound wins; on tie, open beats closed
            if p.lo > q.lo:
                lo, lo_c = p.lo, p.lo_closed
            elif q.lo > p.lo:
                lo, lo_c = q.lo, q.lo_closed
            else:
                lo, lo_c = p.lo, p.lo_closed and q.lo_closed
            if p.hi < q.hi:
                hi, hi_c = p.hi, p.hi_closed
            elif q.hi < p.hi:
                hi, hi_c = q.hi, q.hi_closed
            else:
                hi, hi_c = p.hi, p.hi_closed and q.hi_closed
            cand = Piece(lo, hi, lo_c, hi_c)
            if not cand.is_empty():
                out.append(cand)
    return IntervalEvent(out)
