import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from beliefclt import (
    BeliefModel,
    ChoquetMoments,
    DegenerateVariance,
    FocalElement,
    IntervalEvent,
    belief,
    bvn_cdf,
    moments_by_enumeration,
    moments_by_integration,
    plausibility,
    rho_M_invariance,
    two_sided_limit,
)
from beliefclt.moments import MinMaxLaw, _interval_belief_grid

from _helpers import random_model

FIELDS = ("lower_mean", "upper_mean", "lower_sd", "upper_sd",
          "cross_moment", "rho_prime", "rho")


def quadrature_moments(model: BeliefModel, quad_tol: float = 1e-10) -> ChoquetMoments:
    """The integration route by adaptive quadrature over the pointwise
    belief and plausibility functions of the model itself.

    Slow by design; evaluates the same integrals as the piecewise route with
    scipy's QUADPACK, fed the focal endpoints as breakpoints so the step
    discontinuities are resolved.  It never builds the (min, max) law, so a
    wrong hull merge in the package cannot cancel out of the comparison.
    """
    big_m = model.bound
    mins = sorted({f.min for f, _ in model.focal})
    maxs = sorted({f.max for f, _ in model.focal})

    def nu_ge(t: float) -> float:
        return belief(model, IntervalEvent.at_least(t))

    def v_ge(t: float) -> float:
        return plausibility(model, IntervalEvent.at_least(t))

    def split_quad(fn, pts):
        inner = [p for p in pts if 0.0 < p < big_m]
        pos_m, _ = integrate.quad(fn, 0.0, big_m, points=inner, limit=200, epsabs=quad_tol)
        pos_2, _ = integrate.quad(lambda t: 2.0 * t * fn(t), 0.0, big_m, points=inner,
                                  limit=200, epsabs=quad_tol)
        inner_neg = [p for p in pts if -big_m < p < 0.0]
        neg_m, _ = integrate.quad(lambda t: fn(t) - 1.0, -big_m, 0.0, points=inner_neg,
                                  limit=200, epsabs=quad_tol)
        neg_2, _ = integrate.quad(lambda t: 2.0 * t * (fn(t) - 1.0), -big_m, 0.0,
                                  points=inner_neg, limit=200, epsabs=quad_tol)
        return pos_m + neg_m, pos_2 + neg_2

    lower_mean, raw2_low = split_quad(nu_ge, mins)
    upper_mean, raw2_up = split_quad(v_ge, maxs)

    def inner_integral(t2: float) -> float:
        if t2 <= -big_m:
            return 0.0
        val, _ = integrate.quad(
            lambda t1: belief(model, IntervalEvent.closed(t1, t2)),
            -big_m, t2, points=[p for p in mins if -big_m < p < t2], limit=200,
            epsabs=quad_tol,
        )
        return val

    rho_prime, _ = integrate.quad(
        inner_integral, -big_m, big_m, points=[p for p in maxs if -big_m < p < big_m],
        limit=200, epsabs=quad_tol,
    )
    sd_low = math.sqrt(max(raw2_low - lower_mean**2, 0.0))
    sd_up = math.sqrt(max(raw2_up - upper_mean**2, 0.0))
    cross = big_m**2 - big_m * upper_mean + big_m * lower_mean - rho_prime
    rho = (cross - lower_mean * upper_mean) / (sd_low * sd_up)
    return ChoquetMoments(lower_mean, upper_mean, sd_low, sd_up, cross, rho_prime, rho)


def _repeated_hull_model():
    # the first, third and fifth focal elements share the hull (0.1, 0.7);
    # the endpoints are not exact in binary
    return BeliefModel(
        [(FocalElement([(0.1, 0.7)]), 0.15),
         (FocalElement([(0.3, 0.3)]), 0.2),
         (FocalElement([(0.1, 0.2), (0.5, 0.7)]), 0.35),
         (FocalElement([(0.2, 0.9)]), 0.1),
         (FocalElement([(0.1, 0.3), (0.6, 0.7)]), 0.2)], 1.0)


def _assert_close(m1, m2, tol):
    d1, d2 = m1.as_dict(), m2.as_dict()
    for f in FIELDS:
        a, b = d1[f], d2[f]
        if math.isnan(a) and math.isnan(b):
            continue
        assert abs(a - b) <= tol, (f, a, b)


class TestEnumeration:
    def test_bernoulli_values(self, bernoulli):
        m = moments_by_enumeration(bernoulli)
        assert m.lower_mean == pytest.approx(0.3, abs=1e-15)
        assert m.upper_mean == pytest.approx(0.7, abs=1e-15)
        assert m.lower_sd**2 == pytest.approx(0.21, abs=1e-15)
        assert m.upper_sd**2 == pytest.approx(0.21, abs=1e-15)
        assert m.cross_moment == pytest.approx(0.3, abs=1e-15)
        assert m.rho_prime == pytest.approx(0.3, abs=1e-14)
        assert m.rho == pytest.approx(3 / 7, abs=1e-14)

    def test_two_interval_values(self, two_interval):
        m = moments_by_enumeration(two_interval)
        assert m.lower_mean == 0.5
        assert m.upper_mean == 2.0
        assert m.lower_sd**2 == pytest.approx(0.25, abs=1e-15)
        assert m.upper_sd**2 == pytest.approx(1.0, abs=1e-15)
        assert m.cross_moment == pytest.approx(1.5, abs=1e-15)
        # the two (min, max) points are affinely dependent
        assert m.rho == pytest.approx(1.0, abs=1e-14)

    def test_additive_coin(self, coin):
        m = moments_by_enumeration(coin)
        assert m.lower_mean == m.upper_mean == 0.0
        assert m.lower_sd == m.upper_sd == 1.0
        assert m.rho == pytest.approx(1.0, abs=1e-15)

    def test_min_leq_max_orderings(self, rng):
        for _ in range(20):
            m = moments_by_enumeration(random_model(rng, max_focal=10))
            assert m.lower_mean <= m.upper_mean + 1e-12
            assert -1.0 - 1e-12 <= m.rho <= 1.0 + 1e-12


class TestDegenerate:
    def test_single_focal_raises(self):
        vac = BeliefModel([(FocalElement([(-2, 2)]), 1.0)], 2.0)
        with pytest.raises(DegenerateVariance):
            moments_by_enumeration(vac)

    def test_allow_degenerate_returns_partial(self):
        vac = BeliefModel([(FocalElement([(-2, 2)]), 1.0)], 2.0)
        for route in (moments_by_enumeration, moments_by_integration):
            m = route(vac, allow_degenerate=True)
            assert m.lower_mean == -2.0 and m.upper_mean == 2.0
            assert m.lower_sd == 0.0 and m.upper_sd == 0.0
            assert math.isnan(m.rho)
            assert m.cross_moment == pytest.approx(-4.0, abs=1e-12)

    def test_one_sided_degeneracy(self):
        # all minima equal, maxima spread: only the lower side degenerates
        model = BeliefModel(
            [(FocalElement([(0, 1)]), 0.5),
             (FocalElement([(0, 2)]), 0.5)], 2.0)
        with pytest.raises(DegenerateVariance):
            moments_by_enumeration(model)
        m = moments_by_enumeration(model, allow_degenerate=True)
        assert m.lower_sd == 0.0 and m.upper_sd > 0.0


class TestRouteAgreement:
    def test_frozen_models(self, bernoulli, two_interval, coin):
        for model in (bernoulli, two_interval, coin):
            _assert_close(moments_by_enumeration(model),
                          moments_by_integration(model), 1e-12)

    def test_random_models(self, rng):
        for _ in range(40):
            model = random_model(rng)
            _assert_close(moments_by_enumeration(model, allow_degenerate=True),
                          moments_by_integration(model, allow_degenerate=True),
                          1e-10)

    def test_quadrature_route_matches(self, bernoulli, rng):
        for model in (bernoulli, random_model(rng, max_focal=4), _repeated_hull_model()):
            _assert_close(moments_by_integration(model), quadrature_moments(model), 1e-7)

    def test_repeated_hulls_equal_their_merged_twin(self):
        # the twin has one focal element per hull, carrying the hull's summed
        # mass; summing per focal element instead of per hull moves the
        # non-dyadic sums here by an ulp on both routes
        model = _repeated_hull_model()
        law = MinMaxLaw.from_model(model)
        assert len(law.masses) < len(model.focal)
        twin = BeliefModel(
            [(FocalElement([(lo, hi)]), m)
             for lo, hi, m in zip(law.mins, law.maxs, law.masses)], model.bound)
        for route in (moments_by_enumeration, moments_by_integration):
            assert route(model) == route(twin), route.__name__


class TestTransforms:
    def test_translation(self, rng):
        model = random_model(rng, max_focal=8)
        base = moments_by_enumeration(model, allow_degenerate=True)
        shifted = moments_by_enumeration(model.shifted(1.75),
                                         allow_degenerate=True)
        assert shifted.lower_mean == pytest.approx(base.lower_mean + 1.75, abs=1e-12)
        assert shifted.upper_mean == pytest.approx(base.upper_mean + 1.75, abs=1e-12)
        assert shifted.lower_sd == pytest.approx(base.lower_sd, abs=1e-12)
        assert shifted.upper_sd == pytest.approx(base.upper_sd, abs=1e-12)
        assert shifted.rho == pytest.approx(base.rho, abs=1e-10)

    def test_positive_scaling(self, rng):
        model = random_model(rng, max_focal=8)
        base = moments_by_enumeration(model, allow_degenerate=True)
        scaled = moments_by_enumeration(model.scaled(2.5), allow_degenerate=True)
        assert scaled.lower_mean == pytest.approx(2.5 * base.lower_mean, abs=1e-12)
        assert scaled.lower_sd == pytest.approx(2.5 * base.lower_sd, abs=1e-12)
        assert scaled.upper_sd == pytest.approx(2.5 * base.upper_sd, abs=1e-12)
        assert scaled.rho == pytest.approx(base.rho, abs=1e-10)


class TestRhoPrime:
    def test_identity_links_cross_moment(self, rng):
        # cross = M^2 - M*upper_mean + M*lower_mean - rho_prime
        for _ in range(10):
            model = random_model(rng, max_focal=12)
            m = moments_by_integration(model, allow_degenerate=True)
            big_m = model.bound
            want = big_m**2 - big_m * m.upper_mean + big_m * m.lower_mean - m.rho_prime
            assert m.cross_moment == pytest.approx(want, abs=1e-10)

    def test_interval_belief_grid_matches_belief(self, rng):
        # the vectorized grid the double integral uses, on the merged law,
        # must agree with the reference event computation on the model
        for model in (random_model(rng, max_focal=10), _repeated_hull_model()):
            law = MinMaxLaw.from_model(model)
            for _ in range(25):
                t1, t2 = np.sort(rng.uniform(-model.bound, model.bound, size=2))
                got = _interval_belief_grid(law, np.array([t1]), np.array([t2]))[0, 0]
                want = belief(model, IntervalEvent.closed(t1, t2))
                assert got == pytest.approx(want, abs=1e-12)

    def test_rho_prime_nonnegative(self, rng):
        # integrand is a probability, so the double integral cannot be negative
        for _ in range(10):
            m = moments_by_integration(random_model(rng, max_focal=6),
                                       allow_degenerate=True)
            assert m.rho_prime >= -1e-12


class TestMInvariance:
    def test_integration_route_rho_stable(self, bernoulli, two_interval, rng):
        for model in (bernoulli, two_interval, random_model(rng, max_focal=10)):
            r1, r2 = rho_M_invariance(model, model.bound + 1.0)
            assert r1 == pytest.approx(r2, abs=1e-10)

    def test_bad_bound_rejected(self, bernoulli):
        with pytest.raises(ValueError):
            rho_M_invariance(bernoulli, 0.5)


# the two hulls as positions in four sorted endpoints: crossing, disjoint,
# nested (rho = -1) and two points
_HULL_SHAPES = (((0, 2), (1, 3)), ((0, 1), (2, 3)), ((0, 3), (1, 2)), ((0, 0), (1, 1)))


@st.composite
def two_hull_models(draw):
    """Models whose focal elements share two (min, max) hulls with distinct
    minima and distinct maxima; a hull's later focal elements cut a gap
    out of it.  Endpoints are off the dyadic grid, so sums round."""
    ends = sorted(i / 8 + 1 / 3 for i in draw(
        st.lists(st.integers(-40, 40), min_size=4, max_size=4, unique=True)))
    hulls = [(ends[a], ends[b]) for a, b in draw(st.sampled_from(_HULL_SHAPES))]
    focal = []
    for lo, hi in hulls:
        focal.append(FocalElement([(lo, hi)]))
        for cut in draw(st.lists(st.floats(0.05, 0.45), max_size=2)):
            if hi > lo:
                gap = (lo + cut * (hi - lo), hi - cut * (hi - lo))
                focal.append(FocalElement([(lo, gap[0]), (gap[1], hi)]))
    masses = draw(st.lists(st.floats(0.01, 1.0), min_size=len(focal), max_size=len(focal)))
    bound = max(abs(x) for h in hulls for x in h) + draw(st.floats(0.0, 2.0))
    total = math.fsum(masses)
    return BeliefModel([(f, m / total) for f, m in zip(focal, masses)], bound)


@given(two_hull_models())
@settings(max_examples=200, deadline=None)
def test_two_hull_rho_is_exactly_plus_or_minus_one(model):
    law = MinMaxLaw.from_model(model)
    assert len(law.masses) == 2
    sign = math.copysign(1.0, (law.mins[1] - law.mins[0]) * (law.maxs[1] - law.maxs[0]))
    for route in (moments_by_enumeration, moments_by_integration):
        rho = route(model).rho
        assert rho == sign, route.__name__
        for a1, a2 in ((-1.0, 1.0), (0.0, 0.0), (0.5, 2.0)):
            assert 0.0 <= two_sided_limit(a1, a2, rho) <= 1.0
            assert 0.0 <= bvn_cdf(a1, a2, rho) <= 1.0
