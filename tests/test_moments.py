import dataclasses
import decimal
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from beliefclt import (
    MODEL_REGISTRY,
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
import beliefclt.moments as moments_module
from beliefclt.harness import m_invariance_suite
from beliefclt.moments import MinMaxLaw, _rho_prime_piecewise, _sqrt, side_moments

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
    d1, d2 = dataclasses.asdict(m1), dataclasses.asdict(m2)
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


def _routes_agree(model) -> bool:
    """The route gate: both routes sum the law exactly, so every field is
    equal (NaN rho is the one ``math.nan`` object on both)."""
    return (moments_by_enumeration(model, allow_degenerate=True)
            == moments_by_integration(model, allow_degenerate=True))


class TestRouteAgreement:
    def test_frozen_models(self, bernoulli, two_interval, coin):
        for model in (bernoulli, two_interval, coin):
            assert _routes_agree(model)

    def test_random_models(self, rng):
        for _ in range(40):
            assert _routes_agree(random_model(rng))

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


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@st.composite
def dyadic_models(draw):
    """Models with endpoints in eighths and masses in 64ths: every moment is
    a short dyadic, so a dyadic shift or scale of it is exact in float.  The
    routes read each float as its shortest round-trip decimal, which is the
    exact value while that has at most 15 significant digits; the shifts and
    scales below keep the endpoints and the bound inside that."""
    k = draw(st.integers(2, 6))
    focal = []
    for _ in range(k):
        ends = sorted(draw(st.lists(st.integers(-40, 40), min_size=2, max_size=4)
                           .filter(lambda e: len(e) % 2 == 0)))
        focal.append(FocalElement([(ends[i] / 8, ends[i + 1] / 8)
                                   for i in range(0, len(ends), 2)]))
    weights = draw(st.lists(st.integers(1, 8), min_size=k - 1, max_size=k - 1))
    masses = [w / 64 for w in weights] + [(64 - sum(weights)) / 64]
    reach = max(abs(x) for f in focal for x in (f.min, f.max))
    bound = reach + draw(st.integers(1, 16)) / 8
    return BeliefModel(list(zip(focal, masses)), bound)


_ROUTES = (moments_by_enumeration, moments_by_integration)


@given(dyadic_models(), st.integers(-2**36, 2**36))
@settings(max_examples=100, deadline=None)
def test_shift_moves_the_means_and_nothing_else(model, sixteenths):
    c = sixteenths / 16
    for route in _ROUTES:
        base = route(model, allow_degenerate=True)
        moved = route(model.shifted(c), allow_degenerate=True)
        assert moved.lower_mean == base.lower_mean + c, route.__name__
        assert moved.upper_mean == base.upper_mean + c, route.__name__
        assert (moved.lower_sd, moved.upper_sd) == (base.lower_sd, base.upper_sd)
        assert _same(moved.rho, base.rho), route.__name__


@given(dyadic_models(), st.integers(-12, 30), st.sampled_from((1, 3, 5, 7)))
@settings(max_examples=100, deadline=None)
def test_positive_scale_scales_the_means_and_sds_and_keeps_rho(model, exponent, odd):
    s = math.ldexp(odd, exponent)
    for route in _ROUTES:
        base = route(model, allow_degenerate=True)
        scaled = route(model.scaled(s), allow_degenerate=True)
        assert scaled.lower_mean == s * base.lower_mean, route.__name__
        assert scaled.upper_mean == s * base.upper_mean, route.__name__
        assert _same(scaled.rho, base.rho), route.__name__
        if odd == 1:
            # sqrt(4^e * x) = 2^e * sqrt(x) in float; an odd factor rounds
            assert (scaled.lower_sd, scaled.upper_sd) == (s * base.lower_sd, s * base.upper_sd)


def test_far_shift_and_tiny_scale_are_not_degenerate():
    model = MODEL_REGISTRY["mixed"]
    for route in _ROUTES:
        rho = route(model).rho
        assert route(model.shifted(1e8)).rho == rho, route.__name__
        assert route(model.scaled(1e-13)).rho == rho, route.__name__


class TestRhoPrime:
    def test_identity_links_cross_moment(self, rng):
        # cross = M^2 - M*upper_mean + M*lower_mean - rho_prime
        for _ in range(10):
            model = random_model(rng, max_focal=12)
            m = moments_by_integration(model, allow_degenerate=True)
            big_m = model.bound
            want = big_m**2 - big_m * m.upper_mean + big_m * m.lower_mean - m.rho_prime
            assert m.cross_moment == pytest.approx(want, abs=1e-10)

    def test_rho_prime_matches_the_cell_grid(self, rng):
        # rho' summed over the full 2-D grid of cells split at the hull minima
        # (t1) and maxima (t2), in rationals; each cell's belief, on the
        # merged law at the cell's midpoint, must agree with the reference
        # event computation on the model
        for model in (random_model(rng, max_focal=10), _repeated_hull_model()):
            law = MinMaxLaw.from_model(model)
            hulls = [tuple(Fraction(repr(x)) for x in h)
                     for h in zip(law.mins.tolist(), law.maxs.tolist(), law.masses.tolist())]
            big_m = Fraction(repr(model.bound))
            e1 = sorted({lo for lo, _, _ in hulls} | {-big_m, big_m})
            e2 = sorted({hi for _, hi, _ in hulls} | {-big_m, big_m})
            total = Fraction(0)
            for a1, b1 in zip(e1, e1[1:]):
                for a2, b2 in zip(e2, e2[1:]):
                    t1, t2 = (a1 + b1) / 2, (a2 + b2) / 2
                    cell = sum((m for lo, hi, m in hulls if t1 <= lo and hi <= t2), Fraction(0))
                    want = belief(model, IntervalEvent.closed(float(t1), float(t2)))
                    assert float(cell) == pytest.approx(want, abs=1e-12)
                    total += cell * (b1 - a1) * (b2 - a2)
            rho_prime = total / sum(m for _, _, m in hulls)
            assert _rho_prime_piecewise(hulls, big_m) == rho_prime
            assert moments_by_integration(model).rho_prime == float(rho_prime)

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


def test_m_invariance_and_route_gate_catch_a_rho_prime_fault(monkeypatch):
    # rho' off by 1e-9 * M: rho moves with M on every registry model and the
    # two routes no longer agree; without the fault every row holds
    assert all(r.passed for r in m_invariance_suite())
    real = moments_module._rho_prime_piecewise
    monkeypatch.setattr(moments_module, "_rho_prime_piecewise",
                        lambda hulls, big_m: real(hulls, big_m) + Fraction(1e-9) * big_m)
    rows = m_invariance_suite()
    assert len(rows) == len(MODEL_REGISTRY)
    assert [r.experiment for r in rows if r.passed] == []
    for name, model in MODEL_REGISTRY.items():
        assert not _routes_agree(model), name


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


def _decimal_root(q: Fraction) -> float:
    """sqrt(q) to 50 significant digits, then rounded to float."""
    with decimal.localcontext() as context:
        context.prec = 50
        return float((decimal.Decimal(q.numerator) / decimal.Decimal(q.denominator)).sqrt())


@given(st.fractions(min_value=0, max_denominator=10**30) | st.fractions(0, 10**-200)
       | st.integers(0, 10**300).map(Fraction))
@settings(max_examples=300, deadline=None)
def test_exact_root_is_the_rounded_decimal_root(q):
    assert _sqrt(q) == _decimal_root(q)


def test_exact_root_rounds_ties_to_even():
    # 1 + 2**-53 and 1 + 3 * 2**-53 lie halfway between two floats, so
    # their squares have roots that round to the even neighbour
    for root, want in ((1 + Fraction(1, 2**53), 1.0), (1 + Fraction(3, 2**53), 1 + 2**-51),
                       (Fraction(3, 7), 3 / 7), (Fraction(0), 0.0)):
        assert _sqrt(root * root) == want


def test_sds_and_rho_are_the_correctly_rounded_roots(rng):
    # each sd and rho is the exact root of its rational, rounded once:
    # bernoulli's rho is float(3/7), not the root of a rounded square
    models = [*MODEL_REGISTRY.values(), *(random_model(rng) for _ in range(40))]
    for model in models:
        hulls = MinMaxLaw.from_model(model).exact()
        (mean_low, var_low), (mean_up, var_up) = side_moments(hulls)
        cov = sum(m * lo * hi for lo, hi, m in hulls) / sum(m for *_, m in hulls) - mean_low * mean_up
        want = (_decimal_root(var_low), _decimal_root(var_up),
                math.copysign(_decimal_root(cov * cov / (var_low * var_up)), cov))
        for route in (moments_by_enumeration, moments_by_integration):
            got = route(model)
            assert (got.lower_sd, got.upper_sd, got.rho) == want, route.__name__
    assert moments_by_enumeration(MODEL_REGISTRY["bernoulli"]).rho == 3 / 7
