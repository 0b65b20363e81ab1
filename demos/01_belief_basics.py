"""Belief and plausibility of interval events.

A model assigns probability mass to focal elements (finite unions of
closed intervals).  The belief of an event is the mass of focal elements
contained in it; the plausibility is the mass of those merely touching it.
"""

import math

from beliefclt import (
    BeliefModel,
    FocalElement,
    IntervalEvent,
    belief,
    plausibility,
)
from beliefclt.intervals import Piece

# A coin whose probability of heads is only known to lie in [0.3, 0.7]:
# mass 0.3 says "heads", mass 0.3 says "tails", and mass 0.4 stays
# undecided on the whole outcome set {0, 1}.
model = BeliefModel(
    [(FocalElement([(1.0, 1.0)]), 0.3),
     (FocalElement([(0.0, 0.0)]), 0.3),
     (FocalElement([(0.0, 1.0)]), 0.4)],
    bound=1.0,
)

# The constructor checks every value: masses must be positive and sum to
# one, and focal elements must lie inside [-M, M].  A bad value raises a
# ValueError that names the field.
try:
    BeliefModel([(FocalElement([(0.0, 2.0)]), 1.0)], bound=1.0)
except ValueError as exc:
    print("rejected:", exc)

heads = IntervalEvent.point(1.0)
print("\nbelief(heads)       =", belief(model, heads))
print("plausibility(heads) =", plausibility(model, heads))
print("the gap is the undecided mass:", plausibility(model, heads) - belief(model, heads))

# Conjugation: plausibility is one minus the belief of the complement.
# An event is a union of pieces, each with its own open or closed ends;
# "not heads" is the line with the point 1 cut out.
not_heads = IntervalEvent((Piece(-math.inf, 1.0, False, False),
                           Piece(1.0, math.inf, False, False)))
print("\n1 - belief(not heads) =", 1.0 - belief(model, not_heads))

# Half-lines split the outcomes at a threshold.
at_most_half = IntervalEvent.less_than(0.5)
print("\nbelief(X < 0.5)  =", belief(model, at_most_half))
print("belief(X >= 0.5) =", belief(model, IntervalEvent.at_least(0.5)))
print("the two beliefs need not sum to 1 under imprecision")

# Focal elements may be unions with gaps; containment needs the whole set.
split = BeliefModel(
    [(FocalElement([(0.0, 1.0), (2.0, 3.0)]), 0.6),
     (FocalElement([(-2.0, -1.0)]), 0.4)],
    bound=3.0,
)
covering = IntervalEvent((Piece(0, 1, True, True), Piece(2, 3, True, True)))
print("\nsplit focal element is contained in the matching union:",
      belief(split, covering))
print("but not in the hull's interior gaps:",
      belief(split, IntervalEvent.closed(0.5, 2.5)))
