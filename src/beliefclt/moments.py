"""Limit parameters of the normalized-sum theorems, by two independent routes.

The min-statistic Z (infimum of the sampled focal set) and max-statistic Zbar
(supremum) are ordinary random variables under the mass law, and the
limit theorems depend on the model only through their joint law: the
discrete law of (focal minimum, focal maximum), ``MinMaxLaw``.  The limit
parameters are the means, standard deviations and correlation of Z and
Zbar, computed from that law in two ways:

  enumeration route   sums of mass * min / mass * max over the law's hulls,
                      centered for the variances, cross moment E[Z*Zbar]
                      likewise;
  integration route   survival-function integrals of the belief and
                      plausibility of half-lines, plus the double integral
                      rho' of the belief of closed intervals over the
                      triangle t1 <= t2, from which the cross moment is
                      recovered as M^2 - M*upper_mean + M*lower_mean - rho';
                      the integrands are piecewise constant, so it sums cells.

Both read each float of the law as the rational its shortest round-trip
decimal spells (as a model file does), sum exactly in ``Fraction`` and round
to float at the end.  So the routes agree to the bit, rho is unchanged under
shift, positive scale and a larger M, and a law is degenerate exactly when a
variance is 0.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .belief import BeliefModel
from .errors import DegenerateVariance


@dataclass(frozen=True)
class ChoquetMoments:
    """Limit parameters computed from one marginal belief model.

    ``rho`` is NaN when either variance is exactly 0 (degenerate case,
    normalization impossible).
    """

    lower_mean: float
    upper_mean: float
    lower_sd: float
    upper_sd: float
    cross_moment: float
    rho_prime: float
    rho: float


@dataclass(frozen=True, eq=False)
class MinMaxLaw:
    """The discrete law of (focal minimum, focal maximum) under the masses.

    Everything the limit theorems, and so the moment routes and the
    simulator, need from a model.  Focal elements sharing a (min, max) hull
    are merged: ``mins``/``maxs`` hold the distinct pairs in order of first
    occurrence in ``model.focal`` and ``masses`` their summed masses.
    """

    mins: np.ndarray
    maxs: np.ndarray
    masses: np.ndarray

    @classmethod
    def from_model(cls, model: BeliefModel) -> "MinMaxLaw":
        merged: dict[tuple[float, float], list[float]] = {}
        for f, m in model.focal:
            merged.setdefault((f.min, f.max), []).append(m)
        mins, maxs = zip(*merged)
        masses = [math.fsum(ms) for ms in merged.values()]
        return cls(*(np.array(v, dtype=float) for v in (mins, maxs, masses)))

    def exact(self) -> list[tuple[Fraction, Fraction, Fraction]]:
        """The (min, max, mass) of each hull as rationals, each float read as
        its shortest round-trip decimal, the way a model file spells it.  The
        masses are left unnormalized."""
        def read(values: np.ndarray) -> list[Fraction]:
            return [Fraction(repr(x)) for x in values.tolist()]

        return list(zip(read(self.mins), read(self.maxs), read(self.masses)))

    @cached_property
    def lattice(self) -> tuple[Fraction, list[int], list[int]]:
        """(h, mins / h, maxs / h): the step h is the gcd of the exact
        endpoints, the largest rational of which each is an integer multiple
        (1 where all are 0), so every hull sum is an integer multiple of h."""
        ends = [v for lo, hi, _ in self.exact() for v in (lo, hi)]
        den = math.lcm(*(v.denominator for v in ends))
        ints = [v.numerator * (den // v.denominator) for v in ends]
        g = math.gcd(*ints) or den
        return Fraction(g, den), [v // g for v in ints[0::2]], [v // g for v in ints[1::2]]

    @cached_property
    def sides(self) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
        """The exact (mean, variance) of the focal minimum and of the focal
        maximum (``side_moments``)."""
        return side_moments(self.exact())


def side_moments(hulls: Sequence[tuple[Fraction, Fraction, Fraction]]
                 ) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """(mean, variance) of the focal minimum and of the focal maximum,
    exactly: centered sums over the (min, max, mass) hulls, the masses divided
    by their sum."""
    total = sum(m for _, _, m in hulls)
    sides = []
    for side in (0, 1):
        mean = sum(hull[2] * hull[side] for hull in hulls) / total
        sides.append((mean, sum(hull[2] * (hull[side] - mean) ** 2 for hull in hulls) / total))
    return sides[0], sides[1]


def _isqrt(num: int, den: int) -> tuple[int, bool]:
    """(floor(sqrt(num / den)), whether that root is exact) for integers
    num >= 0 and den > 0: the floor of the root is the integer root of
    num // den, and it is exact where its square times den is num."""
    r = math.isqrt(num // den)
    return r, r * r * den == num


def _sqrt(q: Fraction) -> float:
    """The float nearest sqrt(q), q >= 0 rational, rounded once: the integer
    root r of q * 4**k (``_isqrt``), k chosen so that r has at least 55
    bits, with its last bit set where the root is inexact, so that it rounds
    as the exact root does."""
    a, b = q.as_integer_ratio()
    k = (112 - a.bit_length() + b.bit_length()) // 2
    r, exact = _isqrt(a << 2 * k, b) if k >= 0 else _isqrt(a, b << -2 * k)
    return math.ldexp(r | (not exact), -k)


def _finalize(lower_mean: Fraction, upper_mean: Fraction, var_low: Fraction, var_up: Fraction,
              cross: Fraction, rho_prime: Fraction, allow_degenerate: bool) -> ChoquetMoments:
    """The exact moments rounded to float at the end, each once; an sd or rho
    is the exact root of its variance or squared ratio (``_sqrt``).  On a
    two-hull law cov^2 = var_low*var_up exactly, so rho is exactly +-1."""
    sd_low, sd_up = _sqrt(var_low), _sqrt(var_up)
    if var_low == 0 or var_up == 0:
        if not allow_degenerate:
            raise DegenerateVariance(
                f"sigma_low={sd_low!r}, sigma_up={sd_up!r}: normalized statistics undefined")
        rho = math.nan
    else:
        cov = cross - lower_mean * upper_mean
        rho = math.copysign(_sqrt(cov * cov / (var_low * var_up)), cov)
    return ChoquetMoments(float(lower_mean), float(upper_mean), sd_low, sd_up,
                          float(cross), float(rho_prime), rho)


def moments_by_enumeration(model: BeliefModel, allow_degenerate: bool = False) -> ChoquetMoments:
    """Centered sums over the hulls of the (min, max) law: the canonical route.

    Raises :class:`DegenerateVariance` when a variance is exactly 0 unless
    ``allow_degenerate`` is set, in which case ``rho`` is NaN.
    """
    hulls, big_m = MinMaxLaw.from_model(model).exact(), Fraction(repr(model.bound))
    (lower_mean, var_low), (upper_mean, var_up) = side_moments(hulls)
    cross = sum(m * lo * hi for lo, hi, m in hulls) / sum(m for _, _, m in hulls)
    rho_prime = big_m**2 - big_m * upper_mean + big_m * lower_mean - cross
    return _finalize(lower_mean, upper_mean, var_low, var_up, cross, rho_prime,
                     allow_degenerate)


# -- integration route -------------------------------------------------------


def _tail_integrals(stats: Sequence[Fraction], weights: Sequence[Fraction],
                    big_m: Fraction) -> tuple[Fraction, Fraction]:
    """int_{-M}^M s(t) dt and int_{-M}^M 2 t s(t) dt, s(t) the sum of the
    weights with stat >= t: on each cell between the stat values s takes its
    value at the right edge, a running tail sum from the right."""
    at: dict[Fraction, Fraction] = {}
    for v, w in zip(stats, weights):
        at[v] = at.get(v, 0) + w
    edges = sorted(at.keys() | {-big_m, big_m})
    tail = area = moment = Fraction(0)
    for a, b in zip(edges[-2::-1], edges[:0:-1]):
        tail += at.get(b, 0)
        area += tail * (b - a)
        moment += tail * (b * b - a * a)
    return area, moment


def _survival_integrals(stats: Sequence[Fraction], masses: Sequence[Fraction],
                        big_m: Fraction) -> tuple[Fraction, Fraction]:
    """Mean and raw second moment of a statistic (min or max per hull) from
    its survival function s(t), the share of mass with stat >= t:
    mean = int_0^M s dt + int_{-M}^0 (s - 1) dt = int_{-M}^M s dt - M and
    raw2 = int_0^M 2ts dt + int_{-M}^0 2t(s - 1) dt = int_{-M}^M 2ts dt + M^2."""
    area, moment = _tail_integrals(stats, masses, big_m)
    total = sum(masses)
    return area / total - big_m, moment / total + big_m**2


def _rho_prime_piecewise(hulls: list[tuple[Fraction, ...]], big_m: Fraction) -> Fraction:
    """Double integral of belief([t1, t2]) over -M <= t1 <= t2 <= M.  For t1
    on a cell (a, b) between hull minima, [t1, t2] holds the hulls with
    min >= b and max <= t2, so the inner integral is the tail sum of
    mass * (M - max) over min >= b, and the outer one a survival integral."""
    area, _ = _tail_integrals([lo for lo, _, _ in hulls],
                              [m * (big_m - hi) for _, hi, m in hulls], big_m)
    return area / sum(m for _, _, m in hulls)


def moments_by_integration(model: BeliefModel, allow_degenerate: bool = False) -> ChoquetMoments:
    """Survival-integral route; verification surface for the enumeration route.

    Sums the piecewise-constant integrands of the (min, max) law cell by
    cell, exactly.
    """
    hulls, big_m = MinMaxLaw.from_model(model).exact(), Fraction(repr(model.bound))
    mins, maxs, masses = zip(*hulls)
    lower_mean, raw2_low = _survival_integrals(mins, masses, big_m)
    upper_mean, raw2_up = _survival_integrals(maxs, masses, big_m)
    rho_prime = _rho_prime_piecewise(hulls, big_m)
    cross = big_m**2 - big_m * upper_mean + big_m * lower_mean - rho_prime
    return _finalize(lower_mean, upper_mean, raw2_low - lower_mean**2,
                     raw2_up - upper_mean**2, cross, rho_prime, allow_degenerate)


def rho_M_invariance(model: BeliefModel, m2: float) -> tuple[float, float]:
    """Correlation recomputed with the declared bound enlarged to ``m2``.

    The correlation formula reads rho = (M^2 - M*upper_mean + M*lower_mean
    - rho' - lower_mean*upper_mean) / (sigma_low*sigma_up) with rho' a double
    integral up to M, yet the value must not move when M grows.  The
    integration route recomputes rho' from scratch at both bounds, which
    makes the check non-vacuous (the enumeration route cancels M
    algebraically).
    """
    if not (m2 > model.bound):
        raise ValueError(f"enlarged bound {m2} must exceed the declared bound {model.bound}")
    return (moments_by_integration(model).rho,
            moments_by_integration(replace(model, bound=m2)).rho)
