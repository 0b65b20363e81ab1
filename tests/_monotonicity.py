"""Total-monotonicity enumeration: a test oracle for set functions.

A belief induced by a mass function is totally monotone by construction;
this exhaustive order-2/3 inclusion-exclusion check over the cell algebra
of a finite grid confirms it numerically, and catches set functions that
are not beliefs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

from beliefclt import BeliefModel, IntervalEvent, belief

from _intervals import empty, interval, real_line, union


class GridTooLarge(Exception):
    """The event algebra induced by a grid exceeds the enumeration budget."""


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of the inclusion-exclusion enumeration check.

    On failure, ``witness_masks`` identifies the first violating family as
    event bitmasks over the cell algebra; ``witness`` carries the same family
    as interval events when the check ran against a model.
    """

    passed: bool
    witness_masks: tuple[int, ...] | None = None
    witness: tuple[IntervalEvent, ...] | None = None
    lhs: float | None = None
    rhs: float | None = None


def grid_cells(grid: Sequence[float]) -> list[IntervalEvent]:
    """Partition the line into cells induced by distinct grid points.

    Points g1 < ... < gm yield cells (-inf, g1), [g1, g2), ..., [gm, +inf).
    """
    pts = sorted(set(float(g) for g in grid))
    if not pts:
        return [real_line()]
    cells = [IntervalEvent.less_than(pts[0])]
    for a, b in zip(pts, pts[1:]):
        cells.append(interval(a, b, lo_closed=True, hi_closed=False))
    cells.append(IntervalEvent.at_least(pts[-1]))
    return cells


def _family_count(n_events: int, order: int) -> int:
    total = 0
    for k in range(2, order + 1):
        total += math.comb(n_events, k)
    return total


def check_capacity_monotonicity(
    capacity: Callable[[int], float],
    n_cells: int,
    order: int = 2,
    max_families: int = 2_000_000,
    tol: float = 1e-12,
) -> MonotonicityReport:
    """Exhaustively check order-2/3 inclusion-exclusion over a cell algebra.

    ``capacity`` maps an event bitmask (bit i set = cell i included) to its
    value.  This is the test hook: any set function can be injected, not just
    beliefs of a model.  Families with repeated events reduce to lower-order
    inequalities and are skipped.
    """
    if order not in (2, 3):
        raise ValueError("order must be 2 or 3")
    n_events = 1 << n_cells
    if n_events > 4096 or _family_count(n_events, order) > max_families:
        raise GridTooLarge(
            f"{n_cells} cells induce {n_events} events "
            f"({_family_count(n_events, order)} families at order {order})"
        )
    values = [capacity(mask) for mask in range(n_events)]
    masks = range(n_events)

    for k in range(2, order + 1):
        for family in combinations(masks, k):
            joined = 0
            for m in family:
                joined |= m
            lhs = values[joined]
            rhs = 0.0
            for j in range(1, k + 1):
                sign = 1.0 if j % 2 == 1 else -1.0
                for sub in combinations(family, j):
                    inter = ~0
                    for m in sub:
                        inter &= m
                    rhs += sign * values[inter & (n_events - 1)]
            if lhs < rhs - tol:
                return MonotonicityReport(False, witness_masks=family, lhs=lhs, rhs=rhs)
    return MonotonicityReport(True)


def total_monotonicity_check(
    model: BeliefModel,
    grid: Sequence[float],
    order: int = 2,
    max_families: int = 2_000_000,
) -> MonotonicityReport:
    """Run the enumeration check on the belief induced by ``model``.

    Always passes for a valid model; exists to exercise the inequality and,
    via :func:`check_capacity_monotonicity`, to probe external capacities.
    """
    cells = grid_cells(grid)
    cache: dict[int, float] = {}

    def capacity(mask: int) -> float:
        if mask not in cache:
            cache[mask] = belief(model, _mask_to_event(mask, cells))
        return cache[mask]

    report = check_capacity_monotonicity(capacity, len(cells), order, max_families)
    if report.witness_masks is None:
        return report
    witness = tuple(_mask_to_event(m, cells) for m in report.witness_masks)
    return MonotonicityReport(
        report.passed, witness_masks=report.witness_masks, witness=witness,
        lhs=report.lhs, rhs=report.rhs,
    )


def _mask_to_event(mask: int, cells: Sequence[IntervalEvent]) -> IntervalEvent:
    ev = empty()
    for i, cell in enumerate(cells):
        if mask & (1 << i):
            ev = union(ev, cell)
    return ev
