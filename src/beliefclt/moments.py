"""Limit parameters of the normalized-sum theorems, by two independent routes.

The min-statistic Z (infimum of the sampled focal set) and max-statistic Zbar
(supremum) are ordinary random variables under the mass law, and the
limit theorems depend on the model only through their joint law: the
discrete law of (focal minimum, focal maximum), ``MinMaxLaw``.  The limit
parameters are the means, standard deviations and correlation of Z and
Zbar, computed from that law in two ways:

  enumeration route   direct sums of mass * min / mass * max over the
                      law's hulls, cross moment E[Z*Zbar] likewise;
  integration route   survival-function integrals of the belief and
                      plausibility of half-lines, plus the double integral
                      rho' of the belief of closed intervals over the
                      triangle t1 <= t2, from which the cross moment is
                      recovered as M^2 - M*upper_mean + M*lower_mean - rho'.

Both integrands are piecewise constant with breakpoints at the hull
endpoints, so the integration route sums cells exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .belief import BeliefModel
from .errors import DegenerateVariance

SIGMA_FLOOR = 1e-12


@dataclass(frozen=True)
class ChoquetMoments:
    """Limit parameters computed from one marginal belief model.

    ``rho`` is NaN when either standard deviation vanishes (degenerate case,
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


def _finalize(
    law: MinMaxLaw,
    lower_mean: float,
    upper_mean: float,
    var_low: float,
    var_up: float,
    cross: float,
    rho_prime: float,
    allow_degenerate: bool,
) -> ChoquetMoments:
    """The moments, with rho exactly +-1 where the law has two hulls: Z and
    Zbar then take two values each, so one is an affine function of the
    other, and the computed ratio can round past 1."""
    sd_low = math.sqrt(max(var_low, 0.0))
    sd_up = math.sqrt(max(var_up, 0.0))
    degenerate = sd_low < SIGMA_FLOOR or sd_up < SIGMA_FLOOR
    cov = cross - lower_mean * upper_mean
    if degenerate:
        rho = math.nan
    elif len(law.masses) == 2:
        rho = math.copysign(1.0, cov)
    else:
        rho = cov / (sd_low * sd_up)
    if degenerate and not allow_degenerate:
        raise DegenerateVariance(
            f"sigma_low={sd_low!r}, sigma_up={sd_up!r}: normalized statistics undefined")
    return ChoquetMoments(lower_mean, upper_mean, sd_low, sd_up, cross, rho_prime, rho)


def moments_by_enumeration(model: BeliefModel, allow_degenerate: bool = False) -> ChoquetMoments:
    """Compensated sums over the hulls of the (min, max) law: the canonical route.

    Raises :class:`DegenerateVariance` when a standard deviation falls below
    1e-12 unless ``allow_degenerate`` is set, in which case ``rho`` is NaN.
    """
    law = MinMaxLaw.from_model(model)
    hulls = list(zip(law.masses.tolist(), law.mins.tolist(), law.maxs.tolist()))
    lower_mean = math.fsum(m * lo for m, lo, _ in hulls)
    upper_mean = math.fsum(m * hi for m, _, hi in hulls)
    var_low = math.fsum(m * lo * lo for m, lo, _ in hulls) - lower_mean**2
    var_up = math.fsum(m * hi * hi for m, _, hi in hulls) - upper_mean**2
    cross = math.fsum(m * lo * hi for m, lo, hi in hulls)
    big_m = model.bound
    rho_prime = big_m**2 - big_m * upper_mean + big_m * lower_mean - cross
    return _finalize(law, lower_mean, upper_mean, var_low, var_up, cross, rho_prime,
                     allow_degenerate)


# -- integration route -------------------------------------------------------


def _cells(breaks: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Cell edges and midpoints of [lo, hi] split at the given breakpoints."""
    edges = np.unique(np.concatenate([np.clip(breaks, lo, hi), [lo, hi]]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    return edges, mids


def _survival_integrals(
    stats: np.ndarray, masses: np.ndarray, big_m: float
) -> tuple[float, float]:
    """Mean and raw second moment of a statistic from its survival function.

    ``stats`` holds the per-hull value of the statistic (min or max);
    survival(t) = sum of masses with stat >= t is a step function with jumps
    at the stat values, so cell-midpoint evaluation integrates it exactly.

      mean  = int_0^M s(t) dt + int_{-M}^0 (s(t) - 1) dt
      raw2  = int_0^M 2 t s(t) dt + int_{-M}^0 2 t (s(t) - 1) dt
    """
    mean = 0.0
    raw2 = 0.0
    for lo, hi, shift in ((0.0, big_m, 0.0), (-big_m, 0.0, 1.0)):
        edges, mids = _cells(stats, lo, hi)
        surv = (stats[None, :] >= mids[:, None]) @ masses - shift
        mean += float(surv @ (edges[1:] - edges[:-1]))
        raw2 += float(surv @ (edges[1:] ** 2 - edges[:-1] ** 2))
    return mean, raw2


def _interval_belief_grid(law: MinMaxLaw, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """belief([t1_i, t2_j]) on a grid: containment needs min >= t1 and max <= t2."""
    low_ok = law.mins[None, :] >= t1[:, None]
    up_ok = law.maxs[None, :] <= t2[:, None]
    return (low_ok * law.masses) @ up_ok.T


def _rho_prime_piecewise(law: MinMaxLaw, big_m: float) -> float:
    """Double integral of belief([t1, t2]) over -M <= t1 <= t2 <= M.

    The integrand vanishes for t1 > t2, so integrating over the whole square
    with cells split at the hull endpoints gives the triangle value exactly.
    """
    e1, m1 = _cells(law.mins, -big_m, big_m)
    e2, m2 = _cells(law.maxs, -big_m, big_m)
    vals = _interval_belief_grid(law, m1, m2)
    w1 = e1[1:] - e1[:-1]
    w2 = e2[1:] - e2[:-1]
    return float(w1 @ vals @ w2)


def moments_by_integration(model: BeliefModel, allow_degenerate: bool = False) -> ChoquetMoments:
    """Survival-integral route; verification surface for the enumeration route.

    Sums the piecewise-constant integrands of the (min, max) law cell by
    cell, exactly.
    """
    law = MinMaxLaw.from_model(model)
    big_m = model.bound
    lower_mean, raw2_low = _survival_integrals(law.mins, law.masses, big_m)
    upper_mean, raw2_up = _survival_integrals(law.maxs, law.masses, big_m)
    rho_prime = _rho_prime_piecewise(law, big_m)
    var_low = raw2_low - lower_mean**2
    var_up = raw2_up - upper_mean**2
    cross = big_m**2 - big_m * upper_mean + big_m * lower_mean - rho_prime
    return _finalize(law, lower_mean, upper_mean, var_low, var_up, cross, rho_prime,
                     allow_degenerate)


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
