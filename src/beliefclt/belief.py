"""Finitely-supported belief measures over bounded interval-union focal sets.

A model is a finite list of focal elements (disjoint unions of closed
intervals inside [-M, M]) with positive masses summing to one.  The
``FocalElement`` constructor sorts and merges the parts of each focal
element, and the ``BeliefModel`` constructor checks the rest, for model
files and library callers alike.  The induced set function

    belief(A)       = sum of masses of focal elements contained in A
    plausibility(A) = sum of masses of focal elements meeting A

is always totally monotone because it comes from a mass function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import as_real, as_real_pair
from .intervals import IntervalEvent

MASS_SUM_TOL = 1e-12


@dataclass(frozen=True)
class FocalElement:
    """A nonempty finite union of closed intervals, sorted and disjoint.

    ``parts`` may be any iterable of (a, b) pairs with a <= b, each
    converted to floats by :func:`as_real_pair`.  The constructor sorts
    them and merges parts that overlap or touch, so ``parts`` is stored as
    a tuple of pairs with b_i < a_{i+1}.
    """

    parts: tuple[tuple[float, float], ...]

    def __post_init__(self):
        merged: list[tuple[float, float]] = []
        for a, b in sorted(as_real_pair("focal part", part) for part in self.parts):
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError("focal parts must have finite endpoints")
            if a > b:
                raise ValueError(f"focal part [{a}, {b}] has a > b")
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        if not merged:
            raise ValueError("focal element must be nonempty")
        object.__setattr__(self, "parts", tuple(merged))

    @property
    def min(self) -> float:
        return self.parts[0][0]

    @property
    def max(self) -> float:
        return self.parts[-1][1]

    def contained_in(self, event: IntervalEvent) -> bool:
        return all(event.contains_closed_interval(a, b) for a, b in self.parts)

    def intersects(self, event: IntervalEvent) -> bool:
        return any(event.intersects_closed_interval(a, b) for a, b in self.parts)


@dataclass(frozen=True)
class BeliefModel:
    """Marginal law of one coordinate: focal elements, masses, and bound M.

    The one checker of model values (rules in README, "Model values").
    ``focal`` may be any iterable of (FocalElement, mass) pairs; it is
    stored as a tuple of tuples with float masses.  A bad value raises
    ``ValueError`` whose message starts with the field it rejects, then
    ``#i`` when it belongs to the i-th focal element.
    """

    focal: tuple[tuple[FocalElement, float], ...]
    bound: float

    def __post_init__(self):
        bound = as_real("bound", self.bound)
        if not (bound > 0 and math.isfinite(4 * bound * bound)):
            raise ValueError(
                f"bound must be > 0 with 4*M*M finite (M < 6.7e153), got {bound!r}")
        focal = []
        for i, entry in enumerate(self.focal):
            if not (isinstance(entry, (tuple, list)) and len(entry) == 2
                    and isinstance(entry[0], FocalElement)):
                raise ValueError(f"focal #{i} must be a (FocalElement, mass) pair, got {entry!r}")
            f, m = entry[0], as_real(f"mass #{i}", entry[1])
            if not m > 0:
                raise ValueError(f"mass #{i} must be > 0, got {m!r}")
            if f.min < -bound or f.max > bound:
                raise ValueError(f"focal #{i} spans [{f.min!r}, {f.max!r}], "
                                 f"outside [-M, M] = [{-bound!r}, {bound!r}]")
            focal.append((f, m))
        if not focal:
            raise ValueError("focal must hold at least one focal element")
        total = math.fsum(m for _, m in focal)
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise ValueError(f"mass sum must be within {MASS_SUM_TOL} of 1, got {total!r}")
        object.__setattr__(self, "focal", tuple(focal))
        object.__setattr__(self, "bound", bound)

    def shifted(self, c: float) -> "BeliefModel":
        focal = tuple(
            (FocalElement((a + c, b + c) for a, b in f.parts), m) for f, m in self.focal
        )
        return BeliefModel(focal, self.bound + abs(c))

    def scaled(self, s: float) -> "BeliefModel":
        focal = tuple(
            (FocalElement((a * s, b * s) for a, b in f.parts), m) for f, m in self.focal
        )
        return BeliefModel(focal, self.bound * s)


def belief(model: BeliefModel, event: IntervalEvent) -> float:
    """nu(event): total mass of focal elements contained in the event."""
    return math.fsum(m for f, m in model.focal if f.contained_in(event))


def plausibility(model: BeliefModel, event: IntervalEvent) -> float:
    """V(event) = 1 - nu(complement): mass of focal elements meeting the event.

    Computed by direct intersection, which equals the conjugate form exactly
    (a focal element misses the event iff it sits inside the complement).
    """
    return math.fsum(m for f, m in model.focal if f.intersects(event))
