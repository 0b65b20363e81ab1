import hashlib
import math

import pytest

from beliefclt import (
    DegenerateVariance,
    ExperimentRow,
    MODEL_REGISTRY,
    SimPlan,
    VerificationReport,
    bernoulli_model,
    bvn_cdf,
    estimate_events,
    fit_rate,
    moments_by_enumeration,
    one_sided_report,
    special_cases_report,
    std_normal_cdf,
    two_sided_report,
)


def synthetic_report(ns, deviation_fn, se=1e-9):
    rows = tuple(
        ExperimentRow("synthetic", n, math.nan, math.nan,
                      0.5, 0.5 + deviation_fn(n), se, 1.0)
        for n in ns
    )
    return VerificationReport("synthetic", rows)


class TestFitRate:
    def test_exact_sqrt_law(self):
        fit = fit_rate(synthetic_report((16, 64, 256, 1024), lambda n: 3.0 / math.sqrt(n)))
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.k_hat == pytest.approx(3.0, abs=1e-9)
        assert not fit.insufficient_signal
        assert fit.slope_in_window

    def test_exact_linear_law(self):
        fit = fit_rate(synthetic_report((16, 64, 256, 1024), lambda n: 2.0 / n))
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert not fit.slope_in_window

    def test_insufficient_signal(self):
        # all deviations drown below the 5*SE noise floor
        fit = fit_rate(synthetic_report((16, 64, 256), lambda n: 1e-6, se=1e-3))
        assert fit.insufficient_signal
        assert math.isnan(fit.slope)
        assert not fit.slope_in_window

    def test_two_points_not_enough(self):
        fit = fit_rate(synthetic_report((16, 64), lambda n: 1.0 / math.sqrt(n)))
        assert fit.insufficient_signal

    def test_max_deviation_recorded_per_n(self):
        rep = synthetic_report((16, 64, 256), lambda n: 1.0 / n)
        fit = fit_rate(rep)
        assert dict(fit.max_deviation) == pytest.approx(
            {16: 1 / 16, 64: 1 / 64, 256: 1 / 256})


class TestBernoulliSpecialCase:
    def test_reference_values(self):
        m = moments_by_enumeration(bernoulli_model(0.3, 0.7))
        assert m.lower_mean == pytest.approx(0.3, abs=1e-12)
        assert m.upper_mean == pytest.approx(0.7, abs=1e-12)
        assert m.lower_sd**2 == pytest.approx(0.21, abs=1e-12)
        assert m.upper_sd**2 == pytest.approx(0.21, abs=1e-12)
        assert m.rho == pytest.approx(3 / 7, abs=1e-12)

    def test_additive_coin_case(self):
        m = moments_by_enumeration(bernoulli_model(0.5, 0.5))
        assert m.lower_mean == m.upper_mean == 0.5
        assert m.rho == pytest.approx(1.0, abs=1e-12)
        assert len(bernoulli_model(0.5, 0.5).focal) == 2

    def test_general_contract(self):
        for p_low, p_high in [(0.1, 0.9), (0.25, 0.4), (0.6, 0.6)]:
            m = moments_by_enumeration(bernoulli_model(p_low, p_high))
            assert m.lower_mean == pytest.approx(p_low, abs=1e-12)
            assert m.upper_mean == pytest.approx(p_high, abs=1e-12)
            assert m.lower_sd**2 == pytest.approx(p_low * (1 - p_low), abs=1e-12)
            assert m.upper_sd**2 == pytest.approx(p_high * (1 - p_high), abs=1e-12)

    def test_vacuous_degenerates(self):
        with pytest.raises(DegenerateVariance):
            moments_by_enumeration(bernoulli_model(0.0, 1.0))

    def test_invalid_orderings(self):
        for bad in [(0.7, 0.3), (-0.1, 0.5), (0.5, 1.1)]:
            with pytest.raises(ValueError, match="^p_low, p_high need"):
                bernoulli_model(*bad)

    def test_non_real_probability_names_its_field(self):
        for bad, field in [(("0.3", 0.7), "p_low"), ((0.3, math.nan), "p_high"),
                           ((math.nan, 0.7), "p_low"), ((0.3, True), "p_high")]:
            with pytest.raises(ValueError, match=f"^{field} must be a real number"):
                bernoulli_model(*bad)


@pytest.fixture(scope="module")
def coin_reports():
    model = MODEL_REGISTRY["coin"]
    plan = SimPlan(model, n_values=(64, 256, 1024), reps=60_000, seed=7,
                   slack=0.8)
    mom = moments_by_enumeration(model)
    sim = estimate_events(plan, mom, workers=1)
    return (one_sided_report(sim, plan),
            two_sided_report(sim, mom, plan), sim, mom, plan)


def simulated_reports(plan):
    """(one-sided, two-sided) reports of one simulation, as the CLI makes them."""
    mom = moments_by_enumeration(plan.model)
    sim = estimate_events(plan, mom)
    return one_sided_report(sim, plan), two_sided_report(sim, mom, plan)


class TestVerification:
    def test_additive_one_sided_within_tolerance(self, coin_reports):
        one, _, _, _, _ = coin_reports
        assert one.passed
        # the walk at alpha=0 is the textbook case
        at_zero = [r for r in one.rows if r.alpha1 == 0.0]
        assert at_zero and all(r.deviation <= r.tolerance for r in at_zero)

    def test_additive_two_sided_matches_classical(self, coin_reports):
        _, two, _, _, _ = coin_reports
        assert two.passed
        for r in two.rows:
            classical = std_normal_cdf(r.alpha2) - std_normal_cdf(r.alpha1)
            assert r.theory == pytest.approx(classical, abs=1e-7)

    def test_report_is_pure_function_of_sim(self, coin_reports):
        one, two, sim, mom, plan = coin_reports
        assert one_sided_report(sim, plan).rows == one.rows
        assert two_sided_report(sim, mom, plan).rows == two.rows

    def test_far_tail_alpha(self, bernoulli):
        plan = SimPlan(bernoulli, n_values=(16, 64), reps=2000, seed=3,
                       alpha_one_sided=(8.0,), alpha_two_sided=((-8.0, 8.0),))
        one, two = simulated_reports(plan)
        for r in one.rows:
            if r.experiment == "one_sided_lower":
                assert r.theory == pytest.approx(0.0, abs=1e-14)
                assert r.empirical == 0.0
        for r in two.rows:
            assert r.theory == pytest.approx(1.0, abs=1e-12)
            assert r.empirical == 1.0

    def test_two_sided_theory_uses_rho(self, bernoulli):
        plan = SimPlan(bernoulli, n_values=(16,), reps=100, seed=1,
                       alpha_two_sided=((-1.0, 1.0),))
        _, rep = simulated_reports(plan)
        row = [r for r in rep.rows if (r.alpha1, r.alpha2) == (-1.0, 1.0)][0]
        assert row.theory == pytest.approx(bvn_cdf(1.0, 1.0, -3 / 7), abs=1e-14)

    def test_two_sided_deviation_decreases_with_n(self, bernoulli):
        plan = SimPlan(bernoulli, n_values=(16, 1024), reps=150_000, seed=12,
                       alpha_one_sided=(), alpha_two_sided=((-1.0, 1.0),))
        _, rep = simulated_reports(plan)
        devs = {r.n: r.deviation for r in rep.rows}
        assert devs[1024] < devs[16]


def test_each_limit_is_computed_once_per_event(monkeypatch, coin_reports):
    """One limit per distinct (kind, alpha1, alpha2), shared by every n of
    the plan; the rows are those of one limit per row."""
    from beliefclt import harness

    _, two, sim, mom, plan = coin_reports
    calls = []
    real = harness.two_sided_limit

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(harness, "two_sided_limit", counted)
    assert two_sided_report(sim, mom, plan).rows == two.rows
    assert len(calls) == len(set(calls)) == len(plan.alpha_two_sided)
    assert len(two.rows) == len(plan.n_values) * len(plan.alpha_two_sided)


def test_special_cases_report_all_pass():
    rep = special_cases_report()
    assert rep.passed
    names = {r.experiment for r in rep.rows}
    assert any(n.startswith("bernoulli") for n in names)
    assert any(n.startswith("additive") for n in names)
    assert any(n.startswith("m_invariance") for n in names)


def test_special_cases_row_keys_are_pinned():
    # the names, alphas and order of the rows of report_special_cases.csv
    keys = [(r.experiment, r.alpha1, r.alpha2) for r in special_cases_report().rows]
    assert len(keys) == 51
    assert hashlib.sha256(repr(keys).encode()).hexdigest()[:16] == "2b7e27d269533fe6"


def test_registry_models_are_valid():
    # BeliefModel checks every value at construction; a model file of each
    # registry model passes the same check and loads back exactly
    from beliefclt.modelio import model_text, parse_model
    for name, model in MODEL_REGISTRY.items():
        assert parse_model(model_text(model)) == model, name


def test_bernoulli_model_masses_are_the_decimals_given():
    # each mass is the exact difference of the decimals given, as a model
    # file spells it, so both sides of bernoulli have the variance 0.21
    assert [m for _, m in bernoulli_model(0.3, 0.7).focal] == [0.3, 0.3, 0.4]
    assert [m for _, m in bernoulli_model(0.1, 0.7).focal] == [0.1, 0.3, 0.6]
    mom = moments_by_enumeration(MODEL_REGISTRY["bernoulli"])
    assert mom.lower_sd == mom.upper_sd == math.sqrt(0.21) and mom.rho_prime == 0.3
