"""Interval events on the real line with open/closed/infinite endpoints.

An :class:`IntervalEvent` is a finite union of intervals in canonical form:
pieces are nonempty, pairwise disjoint, non-touching, and sorted.  Endpoint
openness is tracked symbolically (boolean flags), never by epsilon nudging,
so containment and intersection tests against closed intervals are exact.
Infinite endpoints are represented by ``math.inf`` and are always open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import as_real


@dataclass(frozen=True)
class Piece:
    """One interval of an event: lo/hi bounds plus closedness flags.

    ``lo`` and ``hi`` are converted by :func:`as_real`, which rejects a
    bool, a string or NaN with a ValueError naming the endpoint.
    """

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        object.__setattr__(self, "lo", as_real("lo", self.lo))
        object.__setattr__(self, "hi", as_real("hi", self.hi))
        if math.isinf(self.lo) and self.lo_closed:
            object.__setattr__(self, "lo_closed", False)
        if math.isinf(self.hi) and self.hi_closed:
            object.__setattr__(self, "hi_closed", False)

    def is_empty(self) -> bool:
        if self.lo > self.hi:
            return True
        if self.lo == self.hi:
            return not (self.lo_closed and self.hi_closed)
        return False

    def contains_point(self, x: float) -> bool:
        above = self.lo < x or (self.lo == x and self.lo_closed)
        below = self.hi > x or (self.hi == x and self.hi_closed)
        return above and below


def _merges_with(cur: Piece, nxt: Piece) -> bool:
    # pieces are pre-sorted; merge on overlap or closed touch
    if nxt.lo < cur.hi:
        return True
    if nxt.lo == cur.hi and (nxt.lo_closed or cur.hi_closed):
        return True
    return False


def _hi_key(p: Piece):
    return (p.hi, p.hi_closed)


@dataclass(frozen=True)
class IntervalEvent:
    """A finite union of real intervals.

    ``pieces`` may be any iterable of :class:`Piece`; the constructor drops
    the empty ones, sorts the rest and merges those that overlap or touch
    at a closed end.
    """

    pieces: tuple[Piece, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "pieces", _canonicalize(self.pieces))

    @staticmethod
    def closed(lo: float, hi: float) -> "IntervalEvent":
        return IntervalEvent((Piece(lo, hi, True, True),))

    @staticmethod
    def open(lo: float, hi: float) -> "IntervalEvent":
        return IntervalEvent((Piece(lo, hi, False, False),))

    @staticmethod
    def point(x: float) -> "IntervalEvent":
        return IntervalEvent.closed(x, x)

    @staticmethod
    def at_least(t: float) -> "IntervalEvent":
        """The closed half-line [t, +inf)."""
        return IntervalEvent((Piece(t, math.inf, True, False),))

    @staticmethod
    def less_than(t: float) -> "IntervalEvent":
        """The open half-line (-inf, t)."""
        return IntervalEvent((Piece(-math.inf, t, False, False),))

    def contains_closed_interval(self, a: float, b: float) -> bool:
        """Whether [a, b] (a <= b, both finite) lies inside the event.

        Pieces are disjoint and [a, b] is connected, so containment can only
        happen within a single piece.
        """
        for p in self.pieces:
            if p.contains_point(a):
                return p.contains_point(b)
        return False

    def intersects_closed_interval(self, a: float, b: float) -> bool:
        """Whether [a, b] meets the event."""
        for p in self.pieces:
            lo_ok = p.lo < b or (p.lo == b and p.lo_closed)
            hi_ok = p.hi > a or (p.hi == a and p.hi_closed)
            if lo_ok and hi_ok:
                return True
        return False


def _canonicalize(pieces: Iterable[Piece]) -> tuple[Piece, ...]:
    live = [p for p in pieces if not p.is_empty()]
    if not live:
        return ()
    # closed lower endpoint sorts before open at the same coordinate
    live.sort(key=lambda p: (p.lo, not p.lo_closed))
    merged: list[Piece] = [live[0]]
    for nxt in live[1:]:
        cur = merged[-1]
        if _merges_with(cur, nxt):
            if _hi_key(nxt) > _hi_key(cur):
                merged[-1] = Piece(cur.lo, nxt.hi, cur.lo_closed, nxt.hi_closed)
        else:
            merged.append(nxt)
    return tuple(merged)
