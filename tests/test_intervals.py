import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefclt.intervals import IntervalEvent, Piece

from _intervals import (
    complement,
    contains_point,
    empty,
    interval,
    intersect,
    is_empty,
    real_line,
    union,
)


def test_closed_touching_pieces_merge():
    ev = union(IntervalEvent.closed(0, 1), IntervalEvent.closed(1, 2))
    assert ev == IntervalEvent.closed(0, 2)
    assert len(ev.pieces) == 1


def test_open_touching_pieces_stay_apart():
    ev = union(IntervalEvent.open(0, 1), IntervalEvent.open(1, 2))
    assert len(ev.pieces) == 2
    assert not contains_point(ev, 1.0)
    plugged = union(ev, IntervalEvent.point(1.0))
    assert plugged == IntervalEvent.open(0, 2)


def test_overlapping_pieces_merge():
    ev = union(IntervalEvent.closed(0, 2), IntervalEvent.closed(1, 3))
    assert ev == IntervalEvent.closed(0, 3)


def test_empty_and_degenerate():
    assert is_empty(empty())
    assert is_empty(IntervalEvent.open(1, 1))
    assert is_empty(interval(1, 1, True, False))
    assert not is_empty(IntervalEvent.point(1))


def test_complement_of_closed_interval():
    ev = complement(IntervalEvent.closed(0, 1))
    assert contains_point(ev, -0.001)
    assert not contains_point(ev, 0.0)
    assert not contains_point(ev, 1.0)
    assert contains_point(ev, 1.001)
    assert ev == union(interval(-math.inf, 0, False, False),
                       interval(1, math.inf, False, False))


def test_complement_edges():
    assert complement(real_line()) == empty()
    assert complement(empty()) == real_line()
    # removing a point leaves two open rays
    holed = complement(IntervalEvent.point(2.0))
    assert len(holed.pieces) == 2
    assert not contains_point(holed, 2.0)


def test_halfline_constructors():
    ge = IntervalEvent.at_least(1.5)
    lt = IntervalEvent.less_than(1.5)
    assert contains_point(ge, 1.5) and not contains_point(lt, 1.5)
    assert is_empty(intersect(ge, lt))
    assert union(ge, lt) == real_line()


def test_intersect_halflines_gives_halfopen():
    ev = intersect(IntervalEvent.at_least(0), IntervalEvent.less_than(1))
    assert ev == interval(0, 1, True, False)
    assert contains_point(ev, 0) and not contains_point(ev, 1)


def test_contains_closed_interval():
    ev = IntervalEvent.closed(-1, 2)
    assert ev.contains_closed_interval(-1, 2)
    assert ev.contains_closed_interval(0, 0)
    assert not ev.contains_closed_interval(-1.5, 0)
    assert not IntervalEvent.open(0, 2).contains_closed_interval(0, 1)
    # a connected interval cannot sit inside a union with a gap
    gap = union(IntervalEvent.closed(0, 1), IntervalEvent.closed(2, 3))
    assert gap.contains_closed_interval(2, 3)
    assert not gap.contains_closed_interval(0.5, 2.5)


def test_intersects_closed_interval_respects_openness():
    assert IntervalEvent.closed(1, 2).intersects_closed_interval(0, 1)
    assert not IntervalEvent.open(1, 2).intersects_closed_interval(0, 1)
    assert IntervalEvent.open(1, 2).intersects_closed_interval(0, 1.5)
    assert not empty().intersects_closed_interval(0, 1)


def test_piece_validation():
    assert Piece(2.0, 1.0, True, True).is_empty()
    assert IntervalEvent([Piece(2.0, 1.0, True, True)]) == empty()
    with pytest.raises(ValueError):
        Piece(0.0, math.nan, True, True)
    # endpoints are checked as model values are: a bool or a string is no number
    with pytest.raises(ValueError, match="^lo must be a real number"):
        IntervalEvent.closed(True, 2)
    with pytest.raises(ValueError, match="^lo must be a real number"):
        IntervalEvent.closed("0", 1)
    with pytest.raises(ValueError, match="^hi must be a real number"):
        IntervalEvent.closed(0, math.nan)
    # infinite endpoints are forced open
    p = Piece(-math.inf, 0.0, True, True)
    assert not p.lo_closed


_finite = st.floats(min_value=-10, max_value=10,
                    allow_nan=False, allow_infinity=False)


@st.composite
def events(draw):
    n = draw(st.integers(0, 4))
    pieces = []
    for _ in range(n):
        a, b = sorted((draw(_finite), draw(_finite)))
        pieces.append(Piece(a, b, draw(st.booleans()), draw(st.booleans())))
    return IntervalEvent(pieces)


@given(events())
@settings(max_examples=200)
def test_complement_is_involution(ev):
    assert complement(complement(ev)) == ev


@given(events(), events())
@settings(max_examples=200)
def test_de_morgan(a, b):
    assert complement(union(a, b)) == intersect(complement(a), complement(b))
    assert complement(intersect(a, b)) == union(complement(a), complement(b))


@given(events(), events(), _finite)
@settings(max_examples=200)
def test_pointwise_semantics(a, b, x):
    assert contains_point(union(a, b), x) == (contains_point(a, x) or contains_point(b, x))
    assert contains_point(intersect(a, b), x) == (contains_point(a, x) and contains_point(b, x))
    assert contains_point(complement(a), x) != contains_point(a, x)


@given(events(), _finite, _finite)
@settings(max_examples=200)
def test_containment_vs_intersection(ev, x, y):
    a, b = min(x, y), max(x, y)
    if ev.contains_closed_interval(a, b):
        assert ev.intersects_closed_interval(a, b)
    if not ev.intersects_closed_interval(a, b):
        assert not ev.contains_closed_interval(a, b)
    # complement semantics: [a,b] subset of ev iff it misses the complement
    assert ev.contains_closed_interval(a, b) == (
        not complement(ev).intersects_closed_interval(a, b))
