"""Exception types shared across the package."""

from __future__ import annotations


class BeliefCltError(Exception):
    """Base class for all package-specific errors."""


class ParseError(BeliefCltError):
    """A model or plan file violates the documented grammar.

    Carries the offending file path and 1-based line number.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:"
        if line is not None:
            where += f"{line}:"
        super().__init__(f"{where} {message}" if where else message)


class DegenerateVariance(BeliefCltError):
    """The min- or max-statistic has (numerically) zero variance.

    The normalized statistics divide by sigma*sqrt(n), so no limit theorem
    quantity can be formed.  ``partial`` carries the moment fields that are
    still well defined (means, cross moment, rho') with ``rho`` set to NaN.
    """

    def __init__(self, message: str, partial=None):
        self.partial = partial
        super().__init__(message)

