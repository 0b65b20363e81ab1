"""Central limit theorems for belief measures.

A belief measure assigns each event the probability that a random compact
set (a focal element) is contained in it.  For i.i.d. products of such
measures, the suitably normalized sums admit normal limits: one-sided
events converge to Gaussian tail probabilities driven by the lower/upper
means and standard deviations, and two-sided events converge to a bivariate
normal probability whose correlation couples the min- and max-statistics.

The package computes the limit parameters by two independent routes
(discrete enumeration and survival-function integration), evaluates the
Gaussian limits, simulates the product measure with reproducible
counter-based streams, and verifies the convergence empirically, including
the O(1/sqrt(n)) rate.
"""

from .belief import (
    BeliefModel,
    FocalElement,
    belief,
    plausibility,
)
from .errors import (
    BeliefCltError,
    DegenerateVariance,
    ParseError,
)
from .gauss import bvn_cdf, std_normal_cdf, two_sided_limit
from .harness import (
    MODEL_REGISTRY,
    ExperimentRow,
    RateFit,
    VerificationReport,
    bernoulli_model,
    fit_rate,
    one_sided_report,
    special_cases_report,
    two_sided_report,
)
from .intervals import IntervalEvent
from .modelio import (
    emit_csv,
    load_model,
    load_plan,
    save_model,
    save_plan,
)
from .moments import (
    ChoquetMoments,
    moments_by_enumeration,
    moments_by_integration,
    rho_M_invariance,
)
from .montecarlo import (
    EventResult,
    SimPlan,
    SimResult,
    estimate_events,
    resolve_workers,
)

__version__ = "0.1.0"

__all__ = [
    "BeliefCltError",
    "BeliefModel",
    "ChoquetMoments",
    "DegenerateVariance",
    "EventResult",
    "ExperimentRow",
    "FocalElement",
    "IntervalEvent",
    "MODEL_REGISTRY",
    "ParseError",
    "RateFit",
    "SimPlan",
    "SimResult",
    "VerificationReport",
    "belief",
    "bernoulli_model",
    "bvn_cdf",
    "emit_csv",
    "estimate_events",
    "fit_rate",
    "load_model",
    "load_plan",
    "moments_by_enumeration",
    "moments_by_integration",
    "one_sided_report",
    "plausibility",
    "resolve_workers",
    "rho_M_invariance",
    "save_model",
    "save_plan",
    "special_cases_report",
    "std_normal_cdf",
    "two_sided_limit",
    "two_sided_report",
]
