"""Verification experiments: empirical frequencies vs theoretical limits.

The harness compares simulated event frequencies against the normal limits,
fits the O(1/sqrt(n)) convergence rate on a log-log scale, and runs the
closed-form special cases (Bernoulli-type models, additive degeneration,
bound invariance of the correlation).

Pass/fail for a simulated row uses tolerance = 3*SE + slack/sqrt(n): the
first term covers Monte Carlo noise, the second the finite-n gap to the
limit, whose constant is not known a priori.  Every report row is a pure
function of (SimResult, limits, tolerances), so re-evaluating a stored
simulation reproduces the report exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .belief import BeliefModel, FocalElement
from .errors import DegenerateVariance, as_real
from .gauss import std_normal_cdf, two_sided_limit
from .moments import (
    ChoquetMoments,
    moments_by_enumeration,
    rho_M_invariance,
)
from .montecarlo import (
    ONE_SIDED_LOWER,
    ONE_SIDED_UPPER,
    TWO_SIDED,
    SimPlan,
    SimResult,
    default_alpha_pairs,
)

NOISE_FLOOR_MULTIPLE = 5.0
MIN_FIT_POINTS = 3
RATE_SLOPE_WINDOW = (-0.75, -0.25)


@dataclass(frozen=True)
class ExperimentRow:
    experiment: str
    n: int
    alpha1: float
    alpha2: float
    theory: float
    empirical: float
    se: float
    tolerance: float

    @property
    def deviation(self) -> float:
        return abs(self.empirical - self.theory)

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


@dataclass(frozen=True)
class RateFit:
    """Log-log fit of max deviation against n.

    ``max_deviation`` maps each n to the largest absolute deviation over its
    alpha grid; the fit uses only n whose max deviation exceeds
    NOISE_FLOOR_MULTIPLE times the standard error of the maximizing row.
    With fewer than MIN_FIT_POINTS such n the fit is not attempted and
    ``insufficient_signal`` is set instead.
    """

    max_deviation: tuple[tuple[int, float], ...]
    used_n: tuple[int, ...]
    slope: float
    intercept: float
    k_hat: float
    insufficient_signal: bool

    @property
    def slope_in_window(self) -> bool:
        lo, hi = RATE_SLOPE_WINDOW
        return not self.insufficient_signal and lo <= self.slope <= hi


@dataclass(frozen=True)
class VerificationReport:
    name: str
    rows: tuple[ExperimentRow, ...]
    rate: RateFit | None = None

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def _simulated_rows(
    sim: SimResult,
    plan: SimPlan,
    limits: dict[str, Callable[[float, float], float]],
) -> tuple[ExperimentRow, ...]:
    rows = []
    for ev in sim.rows:
        if ev.kind in limits:
            theory = limits[ev.kind](ev.alpha1, ev.alpha2)
            tol = 3.0 * ev.se + plan.slack / math.sqrt(ev.n)
            rows.append(
                ExperimentRow(ev.kind, ev.n, ev.alpha1, ev.alpha2, theory,
                              ev.frequency, ev.se, tol)
            )
    return tuple(rows)


def one_sided_report(sim: SimResult, plan: SimPlan) -> VerificationReport:
    """Compare lower-event frequencies to 1 - Phi(alpha), upper to Phi(alpha)."""
    rows = _simulated_rows(sim, plan, {
        ONE_SIDED_LOWER: lambda a, _: 1.0 - std_normal_cdf(a),
        ONE_SIDED_UPPER: lambda a, _: std_normal_cdf(a),
    })
    return VerificationReport("one_sided", rows)


def two_sided_report(
    sim: SimResult, moments: ChoquetMoments, plan: SimPlan
) -> VerificationReport:
    """Compare joint-event frequencies to the bivariate normal limit."""
    rho = moments.rho
    rows = _simulated_rows(sim, plan, {
        TWO_SIDED: lambda a1, a2: two_sided_limit(a1, a2, rho),
    })
    report = VerificationReport("two_sided", rows)
    return replace(report, rate=fit_rate(report))


def fit_rate(report: VerificationReport) -> RateFit:
    """Least-squares slope of log max-deviation vs log n.

    Per n, the max deviation over the alpha grid is kept only if it exceeds
    the noise floor (5x the standard error of the maximizing row); a slower
    theoretical rate would otherwise be indistinguishable from MC noise.
    """
    per_n: dict[int, tuple[float, float]] = {}
    for row in report.rows:
        dev = row.deviation
        best = per_n.get(row.n)
        if best is None or dev > best[0]:
            per_n[row.n] = (dev, row.se)
    max_dev = tuple(sorted((n, d) for n, (d, _) in per_n.items()))
    used = [n for n, (d, s) in sorted(per_n.items())
            if d > NOISE_FLOOR_MULTIPLE * s and d > 0.0]
    if len(used) < MIN_FIT_POINTS:
        return RateFit(max_dev, tuple(used), math.nan, math.nan, math.nan, True)
    logs_n = np.log([float(n) for n in used])
    logs_d = np.log([per_n[n][0] for n in used])
    slope, intercept = np.polyfit(logs_n, logs_d, 1)
    return RateFit(max_dev, tuple(used), float(slope), float(intercept),
                   float(math.exp(intercept)), False)


def bernoulli_model(p_low: float, p_high: float) -> BeliefModel:
    """Three-focal model on {0, 1}: belief of {1} is p_low, plausibility p_high.

    Zero-mass focal elements are dropped, so (p, p) gives the additive coin
    and (0, 1) the single focal {0, 1}.
    """
    p_low, p_high = as_real("p_low", p_low), as_real("p_high", p_high)
    if not (0.0 <= p_low <= p_high <= 1.0):
        raise ValueError(
            f"p_low, p_high need 0 <= p_low <= p_high <= 1, got ({p_low!r}, {p_high!r})")
    weighted = [
        (FocalElement([(1.0, 1.0)]), p_low),
        (FocalElement([(0.0, 0.0)]), 1.0 - p_high),
        (FocalElement([(0.0, 1.0)]), p_high - p_low),
    ]
    focal = [(f, m) for f, m in weighted if m > 0.0]
    return BeliefModel(focal, bound=1.0)


MODEL_REGISTRY: dict[str, BeliefModel] = {
    "bernoulli": bernoulli_model(0.3, 0.7),
    "coin": BeliefModel([(FocalElement([(-1.0, -1.0)]), 0.5),
                         (FocalElement([(1.0, 1.0)]), 0.5)], bound=1.0),
    "two_interval": BeliefModel([(FocalElement([(0.0, 1.0)]), 0.5),
                                 (FocalElement([(1.0, 3.0)]), 0.5)], bound=3.0),
    "union_parts": BeliefModel([(FocalElement([(0.0, 1.0), (2.0, 3.0)]), 0.6),
                                (FocalElement([(-2.0, -1.0)]), 0.4)], bound=3.0),
    # four focal elements so the (min, max) pairs are not affinely dependent
    # and rho lands strictly inside (0, 1)
    "mixed": BeliefModel([(FocalElement([(0.0, 1.0)]), 0.3),
                          (FocalElement([(0.5, 2.5)]), 0.3),
                          (FocalElement([(2.0, 2.0)]), 0.2),
                          (FocalElement([(-2.0, -1.0), (1.0, 2.0)]), 0.2)], bound=3.0),
}


def _row(experiment: str, theory: float, empirical: float, tol: float,
         n: int = 0, alpha1: float = math.nan, alpha2: float = math.nan) -> ExperimentRow:
    return ExperimentRow(experiment, n, alpha1, alpha2, theory, empirical, 0.0, tol)


def bernoulli_suite() -> list[ExperimentRow]:
    """The Bernoulli-type model has lower mean p_low, upper mean p_high and
    variances p(1-p) on each side."""
    rows = []
    m = moments_by_enumeration(bernoulli_model(0.3, 0.7))
    for label, got, want in [
        ("lower_mean", m.lower_mean, 0.3),
        ("upper_mean", m.upper_mean, 0.7),
        ("lower_var", m.lower_sd**2, 0.21),
        ("upper_var", m.upper_sd**2, 0.21),
        ("rho", m.rho, 3.0 / 7.0),
    ]:
        rows.append(_row(f"bernoulli_0.3_0.7_{label}", want, got, 1e-12))
    rows.append(_row("bernoulli_0.5_0.5_rho",
                     1.0, moments_by_enumeration(bernoulli_model(0.5, 0.5)).rho, 1e-12))
    try:
        moments_by_enumeration(bernoulli_model(0.0, 1.0))
        raised = 0.0
    except DegenerateVariance:
        raised = 1.0
    rows.append(_row("bernoulli_0_1_degenerate_raised", 1.0, raised, 0.0))
    return rows


def additive_degeneration_suite() -> list[ExperimentRow]:
    """The singleton-only coin: both means and sds coincide, rho = 1, and the
    two-sided limit collapses to Phi(alpha2) - Phi(alpha1)."""
    m = moments_by_enumeration(MODEL_REGISTRY["coin"])
    rows = [
        _row("additive_coin_mean_gap", 0.0, abs(m.upper_mean - m.lower_mean), 1e-12),
        _row("additive_coin_sd_gap", 0.0, abs(m.upper_sd - m.lower_sd), 1e-12),
        _row("additive_coin_rho", 1.0, m.rho, 1e-12),
    ]
    for a1, a2 in default_alpha_pairs((-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)):
        classical = std_normal_cdf(a2) - std_normal_cdf(a1)
        rows.append(_row("additive_two_sided_identity", classical,
                         two_sided_limit(a1, a2, 1.0), 1e-7, alpha1=a1, alpha2=a2))
    return rows


def m_invariance_suite() -> list[ExperimentRow]:
    """rho is invariant under enlarging the declared bound M (the integrand
    shifts cancel); checked on the integration route, where M enters the
    integrals explicitly."""
    rows = []
    for name, model in MODEL_REGISTRY.items():
        rho_m, rho_m1 = rho_M_invariance(model, model.bound + 1.0)
        rows.append(_row(f"m_invariance_{name}", rho_m, rho_m1, 1e-10))
    return rows


def special_cases_report() -> VerificationReport:
    """All closed-form checks: Bernoulli moments, additive degeneration and
    bound invariance of rho."""
    rows = bernoulli_suite() + additive_degeneration_suite() + m_invariance_suite()
    return VerificationReport("special_cases", tuple(rows))
