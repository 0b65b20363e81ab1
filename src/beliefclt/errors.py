"""Exception types and the real-number check shared across the package."""

from __future__ import annotations

import contextlib
import numbers


def as_real(name: str, value) -> float:
    """``value`` as a float; a bool, a string or NaN is not a real number.
    A zero is +0.0, so equal values print and hash alike."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and value == value:
        with contextlib.suppress(OverflowError):
            return float(value) + 0.0
    raise ValueError(f"{name} must be a real number, not NaN, got {value!r}")


def as_real_pair(name: str, value) -> tuple[float, float]:
    """``value`` as a pair of floats, each checked by :func:`as_real`."""
    try:
        a, b = value
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a pair [a, b], got {value!r}") from None
    return as_real(name, a), as_real(name, b)


class BeliefCltError(Exception):
    """Base class for all package-specific errors."""


class ParseError(BeliefCltError):
    """A model or plan file violates the documented grammar.

    Carries the file path and, when one line is at fault, its 1-based number.
    """

    def __init__(self, message: str, path: str, line: int | None = None):
        self.path, self.line = path, line
        where = path if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}")


class DegenerateVariance(BeliefCltError):
    """The min- or max-statistic has (numerically) zero variance.

    The normalized statistics divide by sigma*sqrt(n), so no limit theorem
    quantity can be formed.
    """

