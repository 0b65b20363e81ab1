"""In-memory spans recorded from outside the package.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for a root).  Spans are recorded by replacing a public
function's name in the namespace that calls it with a timing wrapper, so
the package itself is not modified; the untraced run never installs them.
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        return self.wrap(fn, name)(*args, **kwargs)

    def patch(self, namespace, attr: str, name: str) -> bool:
        """Replace ``namespace.attr`` by a traced wrapper; False if absent."""
        fn = getattr(namespace, attr, None)
        if fn is None:
            return False
        setattr(namespace, attr, self.wrap(fn, name))
        return True


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered(children.get(i, []), start, end)
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def layer_table(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, total time and self time."""
    table: dict[str, dict[str, float]] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
    return table
