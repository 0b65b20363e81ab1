"""Acceptance gate: each test checks one numbered criterion end to end and
prints one ACCEPTANCE pass/fail line (visible with pytest -s, or on failure).

The heavy simulations (reps = 10^6, n up to 16384) run once per model in a
module-scoped fixture and are shared by the one-sided, two-sided, and rate
criteria.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from beliefclt import (
    IntervalEvent,
    MODEL_REGISTRY,
    SimPlan,
    belief,
    bvn_cdf,
    estimate_events,
    fit_rate,
    moments_by_enumeration,
    moments_by_integration,
    one_sided_report,
    special_cases_report,
    two_sided_report,
)
from beliefclt.harness import ExperimentRow, VerificationReport
from beliefclt.modelio import SIM_SCHEMA, csv_text, sim_rows
from beliefclt.montecarlo import ONE_SIDED_LOWER, ONE_SIDED_UPPER

from _helpers import random_model
from test_gauss import bvn_quadrature_oracle

SEED = 20260816
MOMENT_FIELDS = ("lower_mean", "upper_mean", "lower_sd", "upper_sd",
                 "cross_moment", "rho_prime", "rho")


def _line(num: int, desc: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {desc}: {status} ({detail})")
    assert ok, f"criterion {num} ({desc}): {detail}"


@pytest.fixture(scope="module")
def clt_runs():
    """One full-budget simulation per model, shared by criteria 6, 7, 8."""
    runs = {}
    t0 = time.time()
    for name in ("bernoulli", "two_interval"):
        model = MODEL_REGISTRY[name]
        mom = moments_by_enumeration(model)
        plan = SimPlan(model, reps=1_000_000, seed=SEED)
        sim = estimate_events(plan, mom)
        runs[name] = (plan, mom, sim)
    runs["elapsed"] = time.time() - t0
    return runs


def test_criterion_01_moment_route_equivalence():
    rng = np.random.default_rng(SEED)
    t0 = time.time()
    worst = 0.0
    for _ in range(200):
        model = random_model(rng, max_focal=50)
        enum = dataclasses.asdict(moments_by_enumeration(model, allow_degenerate=True))
        integ = dataclasses.asdict(moments_by_integration(model, allow_degenerate=True))
        for f in MOMENT_FIELDS:
            a, b = enum[f], integ[f]
            if math.isnan(a) and math.isnan(b):
                continue
            worst = max(worst, abs(a - b))
    elapsed = time.time() - t0
    _line(1, "moment route equivalence",
          worst == 0 and elapsed < 10.0,
          f"200 models, max field gap {worst:.2e}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def special_rows():
    """The closed-form rows of ``beliefclt special-cases``, shared by 2, 3, 4."""
    return special_cases_report().rows


def _rows(rows, prefix: str):
    return [r for r in rows if r.experiment.startswith(prefix)]


def test_criterion_02_bernoulli_special_case(special_rows):
    rows = _rows(special_rows, "bernoulli_")
    worst = max(r.deviation for r in rows)
    ok = len(rows) == 7 and all(r.passed for r in rows) and worst <= 1e-12
    _line(2, "Bernoulli special case", ok,
          f"{len(rows)} rows, max gap to exact rationals {worst:.2e}")


def test_criterion_03_m_invariance(special_rows):
    rows = _rows(special_rows, "m_invariance_")
    worst = max(r.deviation for r in rows)
    ok = (len(rows) == len(MODEL_REGISTRY) and all(r.passed for r in rows)
          and worst == 0)
    _line(3, "bound invariance of rho", ok,
          f"{len(rows)} models, max |rho(M) - rho(M+1)| = {worst:.2e}")


def test_criterion_04_additive_degeneration(special_rows):
    moment_rows = _rows(special_rows, "additive_coin_")
    target_rows = _rows(special_rows, "additive_two_sided_identity")
    moment_gap = max(r.deviation for r in moment_rows)
    target_gap = max(r.deviation for r in target_rows)
    grid = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)
    pairs = {(a1, a2) for a1 in grid for a2 in grid if a1 <= a2}
    ok = (len(moment_rows) == 3
          and {(r.alpha1, r.alpha2) for r in target_rows} == pairs
          and all(r.passed for r in moment_rows + target_rows)
          and moment_gap <= 1e-12 and target_gap <= 1e-7)
    _line(4, "additive degeneration", ok,
          f"moment gap {moment_gap:.2e}, two-sided target gap {target_gap:.2e} "
          f"over {len(target_rows)} pairs")


def test_criterion_05_bvn_accuracy():
    pts = (-3.0, -1.0, 0.0, 1.0, 3.0)
    rhos = (-0.95, -0.5, 0.0, 0.5, 0.95)
    worst = 0.0
    for rho in rhos:
        for a in pts:
            for b in pts:
                worst = max(worst, abs(bvn_cdf(a, b, rho)
                                       - bvn_quadrature_oracle(a, b, rho)))
    closed = max(abs(bvn_cdf(0, 0, r) - (0.25 + math.asin(r) / (2 * math.pi)))
                 for r in rhos)
    _line(5, "bivariate normal accuracy",
          worst <= 1e-7 and closed <= 1e-7,
          f"5x5x5 oracle gap {worst:.2e}, arcsine closed form gap {closed:.2e}")


def test_criterion_06_one_sided_clt(clt_runs):
    worst_margin = math.inf
    detail = []
    for name in ("bernoulli", "two_interval"):
        plan, mom, sim = clt_runs[name]
        report = one_sided_report(sim, plan)
        margin = min(r.tolerance - r.deviation for r in report.rows)
        worst_margin = min(worst_margin, margin)
        detail.append(f"{name} {len(report.rows)} rows")
    ok = worst_margin >= 0.0 and clt_runs["elapsed"] <= 600.0
    _line(6, "one-sided limits", ok,
          f"{', '.join(detail)}, min tolerance margin {worst_margin:.2e}, "
          f"sim time {clt_runs['elapsed']:.0f}s")


def test_criterion_07_two_sided_clt(clt_runs):
    worst_margin = math.inf
    rows_total = 0
    for name in ("bernoulli", "two_interval"):
        plan, mom, sim = clt_runs[name]
        report = two_sided_report(sim, mom, plan)
        margin = min(r.tolerance - r.deviation for r in report.rows)
        worst_margin = min(worst_margin, margin)
        rows_total += len(report.rows)
    ok = worst_margin >= 0.0 and clt_runs["elapsed"] <= 600.0
    _line(7, "two-sided limits", ok,
          f"{rows_total} rows over 28 alpha pairs, "
          f"min tolerance margin {worst_margin:.2e}")


def test_criterion_08_convergence_rate(clt_runs):
    slopes = {}
    for name in ("bernoulli", "two_interval"):
        plan, mom, sim = clt_runs[name]
        fit = fit_rate(two_sided_report(sim, mom, plan))
        slopes[name] = (fit, len(fit.used_n))
    empirical_ok = all(
        n_pts < 3 or (-0.75 <= fit.slope <= -0.25)
        for fit, n_pts in slopes.values())
    signal_ok = any(n_pts >= 3 for _, n_pts in slopes.values())

    synthetic = VerificationReport("synthetic", tuple(
        ExperimentRow("synthetic", n, math.nan, math.nan, 0.5,
                      0.5 + 0.7 / math.sqrt(n), 1e-9, 1.0)
        for n in (16, 64, 256, 1024, 4096, 16384)))
    synth_gap = abs(fit_rate(synthetic).slope + 0.5)

    detail = ", ".join(f"{k} slope {fit.slope:.3f} ({n_pts} pts)"
                       for k, (fit, n_pts) in slopes.items())
    _line(8, "Berry-Esseen rate window",
          empirical_ok and signal_ok and synth_gap <= 1e-12,
          f"{detail}; synthetic slope gap {synth_gap:.1e}")


def test_criterion_09_reproducibility():
    model = MODEL_REGISTRY["bernoulli"]
    mom = moments_by_enumeration(model)
    plan = SimPlan(model, n_values=(16, 64), reps=50_000, seed=SEED)
    csvs = []
    for workers in (1, 2, 3, 1):
        sim = estimate_events(plan, mom, workers=workers)
        csvs.append(csv_text(sim_rows(sim), SIM_SCHEMA))
    ok = all(c == csvs[0] for c in csvs)
    _line(9, "bit reproducibility across workers", ok,
          f"4 runs at workers 1/2/3/1, {len(csvs[0].splitlines()) - 1} "
          "CSV rows each, byte-identical")


def test_criterion_10_n1_consistency():
    worst_ratio = 0.0
    checked = 0
    for name in ("bernoulli", "two_interval"):
        model = MODEL_REGISTRY[name]
        mom = moments_by_enumeration(model)
        plan = SimPlan(model, n_values=(1,), reps=1_000_000, seed=SEED,
                       alpha_two_sided=())
        sim = estimate_events(plan, mom)
        for row in sim.rows:
            if row.kind == ONE_SIDED_LOWER:
                event = IntervalEvent.at_least(
                    mom.lower_mean + row.alpha1 * mom.lower_sd)
            else:
                assert row.kind == ONE_SIDED_UPPER
                event = IntervalEvent.less_than(
                    mom.upper_mean + row.alpha1 * mom.upper_sd)
            exact = belief(model, event)
            dev = abs(row.frequency - exact)
            limit = 4.0 * row.se
            if limit == 0.0:
                assert dev == 0.0, (name, row.alpha1, dev)
            else:
                worst_ratio = max(worst_ratio, dev / limit)
            checked += 1
    _line(10, "n=1 matches exact beliefs", worst_ratio <= 1.0,
          f"{checked} events, worst deviation at {worst_ratio:.2f} of the "
          "4*SE budget")
