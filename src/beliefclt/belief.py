"""Finitely-supported belief measures over bounded interval-union focal sets.

A model is a finite list of focal elements (disjoint unions of closed
intervals inside [-M, M]) with positive masses summing to one.  The induced
set function

    belief(A)       = sum of masses of focal elements contained in A
    plausibility(A) = sum of masses of focal elements meeting A

is always totally monotone because it comes from a mass function.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

from .intervals import IntervalEvent

MASS_SUM_TOL = 1e-12


def as_real(name: str, value) -> float:
    """``value`` as a float; a bool, a string or NaN is not a real number."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and value == value:
        with contextlib.suppress(OverflowError):
            return float(value)
    raise ValueError(f"{name} must be a real number, not NaN, got {value!r}")


def as_real_pair(name: str, value) -> tuple[float, float]:
    """``value`` as a pair of floats, each checked by :func:`as_real`."""
    try:
        a, b = value
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a pair [a, b], got {value!r}") from None
    return as_real(name, a), as_real(name, b)


@dataclass(frozen=True)
class FocalElement:
    """A nonempty finite union of closed intervals, sorted and disjoint.

    ``parts`` is a tuple of (a, b) pairs with a <= b; consecutive parts must
    satisfy b_i < a_{i+1} (touching parts are merged by :meth:`make`).
    """

    parts: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("focal element must be nonempty")
        prev_hi = -math.inf
        first = True
        for a, b in self.parts:
            if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
                raise ValueError("focal parts must have finite endpoints")
            if a > b:
                raise ValueError(f"focal part [{a}, {b}] has a > b")
            if not first and a <= prev_hi:
                raise ValueError("focal parts must be disjoint and strictly increasing")
            prev_hi = b
            first = False

    @staticmethod
    def make(parts: Iterable[Sequence[float]]) -> "FocalElement":
        """Build a focal element, sorting parts and merging touching ones."""
        norm = sorted(as_real_pair("focal part", part) for part in parts)
        merged: list[tuple[float, float]] = []
        for a, b in norm:
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        return FocalElement(tuple(merged))

    @property
    def min(self) -> float:
        return self.parts[0][0]

    @property
    def max(self) -> float:
        return self.parts[-1][1]

    def is_singleton(self) -> bool:
        return len(self.parts) == 1 and self.parts[0][0] == self.parts[0][1]

    def contained_in(self, event: IntervalEvent) -> bool:
        return all(event.contains_closed_interval(a, b) for a, b in self.parts)

    def intersects(self, event: IntervalEvent) -> bool:
        return any(event.intersects_closed_interval(a, b) for a, b in self.parts)


@dataclass(frozen=True)
class BeliefModel:
    """Marginal law of one coordinate: focal elements, masses, and bound M."""

    focal: tuple[tuple[FocalElement, float], ...]
    bound: float

    @staticmethod
    def make(focal: Iterable[tuple[FocalElement, float]], bound: float) -> "BeliefModel":
        """A model with each mass and the bound checked by :func:`as_real`."""
        return BeliefModel(tuple((f, as_real("mass", m)) for f, m in focal),
                           as_real("bound", bound))

    def normalized(self) -> "BeliefModel":
        """Rescale masses to sum to exactly one (done once at model load).

        Idempotent: a residual of a few ulps after division is folded into
        the largest mass so the sum is exactly 1.0 and a second call is a
        no-op, which makes save/load round-trips bit-identical.
        """
        total = math.fsum(m for _, m in self.focal)
        if total <= 0 or total == 1.0:
            return self
        masses = [m / total for _, m in self.focal]
        top = max(range(len(masses)), key=masses.__getitem__)
        for _ in range(5):
            residual = 1.0 - math.fsum(masses)
            if residual == 0.0:
                break
            masses[top] += residual
        return BeliefModel(
            tuple((f, m) for (f, _), m in zip(self.focal, masses)), self.bound
        )

    def mass_sum(self) -> float:
        return math.fsum(m for _, m in self.focal)

    def shifted(self, c: float) -> "BeliefModel":
        focal = tuple(
            (FocalElement(tuple((a + c, b + c) for a, b in f.parts)), m)
            for f, m in self.focal
        )
        return BeliefModel(focal, self.bound + abs(c))

    def scaled(self, s: float) -> "BeliefModel":
        if s <= 0:
            raise ValueError("scale factor must be positive")
        focal = tuple(
            (FocalElement(tuple((a * s, b * s) for a, b in f.parts)), m)
            for f, m in self.focal
        )
        return BeliefModel(focal, self.bound * s)

    def with_bound(self, bound: float) -> "BeliefModel":
        return BeliefModel(self.focal, float(bound))


@dataclass(frozen=True)
class Violation:
    """One violated structural invariant, with a machine-readable code."""

    code: str
    detail: str


def validate_model(model: BeliefModel) -> list[Violation]:
    """Check every structural invariant; an empty list certifies the model.

    Violations are data, not failures: all of them are collected and
    returned.  A model passing this check induces a belief measure (mass
    functions with nonnegative masses are always totally monotone).
    """
    out: list[Violation] = []
    if not model.focal:
        out.append(Violation("EmptyModel", "model has no focal elements"))
        return out
    if not (model.bound > 0) or math.isinf(model.bound):
        out.append(Violation("BoundViolation", f"M = {model.bound} is not a positive real"))
    for i, (f, m) in enumerate(model.focal):
        if not (m > 0):
            out.append(Violation("MassPositivity", f"focal #{i} has mass {m} <= 0"))
        if f.min < -model.bound or f.max > model.bound:
            out.append(
                Violation(
                    "BoundViolation",
                    f"focal #{i} spans [{f.min}, {f.max}] outside [-{model.bound}, {model.bound}]",
                )
            )
    total = model.mass_sum()
    if abs(total - 1.0) > MASS_SUM_TOL:
        out.append(Violation("MassSumViolation", f"masses sum to {total!r}"))
    return out


def belief(model: BeliefModel, event: IntervalEvent) -> float:
    """nu(event): total mass of focal elements contained in the event."""
    return math.fsum(m for f, m in model.focal if f.contained_in(event))


def plausibility(model: BeliefModel, event: IntervalEvent) -> float:
    """V(event) = 1 - nu(complement): mass of focal elements meeting the event.

    Computed by direct intersection, which equals the conjugate form exactly
    (a focal element misses the event iff it sits inside the complement).
    """
    return math.fsum(m for f, m in model.focal if f.intersects(event))
