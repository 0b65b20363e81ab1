import functools
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from beliefclt import bvn_cdf, std_normal_cdf, two_sided_limit


def mp_phi(x: float) -> float:
    with mpmath.workdps(50):
        return float(mpmath.ncdf(x))


def bvn_quadrature_oracle(a: float, b: float, rho: float) -> float:
    # direct integration of the density over (-inf, a] x (-inf, b],
    # truncated where the mass is below 1e-12
    det = 1.0 - rho * rho

    def density(y, x):
        q = (x * x - 2 * rho * x * y + y * y) / det
        return math.exp(-0.5 * q) / (2 * math.pi * math.sqrt(det))

    lo = -8.5
    val, err = integrate.dblquad(density, lo, a, lo, b,
                                 epsabs=1e-10, epsrel=1e-10)
    assert err < 1e-8
    return val


class TestPhi:
    @pytest.mark.parametrize("x", [-8, -5, -2, -1, -0.5, 0, 0.3, 1, 2.5, 5, 8])
    def test_against_mpmath(self, x):
        assert std_normal_cdf(x) == pytest.approx(mp_phi(x), abs=1e-15, rel=1e-13)

    def test_known_quantile(self):
        assert std_normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)

    def test_symmetry(self):
        for x in (0.1, 0.7, 1.3, 4.2):
            assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)


class TestBvnClosedForms:
    def test_zero_correlation_is_product(self):
        for a, b in [(-1.5, 0.3), (0, 0), (2, -2), (1, 1)]:
            assert bvn_cdf(a, b, 0.0) == pytest.approx(
                std_normal_cdf(a) * std_normal_cdf(b), abs=1e-14)

    @pytest.mark.parametrize("rho", [-0.95, -0.6, -0.25, 0.0, 0.4, 0.8, 0.99])
    def test_origin_arcsine_formula(self, rho):
        want = 0.25 + math.asin(rho) / (2 * math.pi)
        assert bvn_cdf(0, 0, rho) == pytest.approx(want, abs=1e-14)

    def test_comonotone_limit(self):
        for a, b in [(-1, 0.5), (0.2, 0.2), (2, -1)]:
            assert bvn_cdf(a, b, 1.0) == pytest.approx(
                std_normal_cdf(min(a, b)), abs=1e-15)

    def test_antimonotone_limit(self):
        for a, b in [(-1, 0.5), (0.2, 0.2), (2, 1)]:
            want = max(0.0, std_normal_cdf(a) + std_normal_cdf(b) - 1.0)
            assert bvn_cdf(a, b, -1.0) == pytest.approx(want, abs=1e-15)

    def test_infinite_arguments(self):
        assert bvn_cdf(math.inf, math.inf, 0.3) == 1.0
        assert bvn_cdf(-math.inf, 1.0, 0.3) == 0.0
        assert bvn_cdf(math.inf, 1.0, 0.3) == pytest.approx(std_normal_cdf(1.0), abs=1e-15)
        # the path of every two-sided row with alpha2 = +inf
        assert bvn_cdf(1.0, math.inf, 0.3) == pytest.approx(std_normal_cdf(1.0), abs=1e-15)
        assert bvn_cdf(-2.0, math.inf, -0.7) == pytest.approx(std_normal_cdf(-2.0), abs=1e-15)

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            bvn_cdf(0, 0, 1.5)
        with pytest.raises(ValueError):
            bvn_cdf(0, 0, math.nan)
        # and NaN limits, which would otherwise read as a probability of 0
        for a, b in ((math.nan, 0.0), (0.0, math.nan), (math.nan, math.inf)):
            with pytest.raises(ValueError, match="NaN"):
                bvn_cdf(a, b, 0.3)


@functools.cache
def bvn_mp_oracle(a: float, b: float, rho: float) -> float:
    # N2(a, b; rho) = int_{-inf}^{a} phi(x) Phi((b - rho x) / sqrt(1 - rho^2)) dx
    # at 30 digits; the Phi factor steps from 1 to 0 around x = b / rho over a
    # width sqrt(1 - rho^2) / |rho|, so the quadrature breaks there, and at 0
    with mpmath.workdps(30):
        a, b, rho = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(rho)
        s = mpmath.sqrt(1 - rho * rho)
        points = {mpmath.mpf(0)}
        if rho != 0:
            centre, width = b / rho, s / abs(rho)
            points |= {centre + k * width for k in (-4, -1, 0, 1, 4)}
        points = [-mpmath.inf, *sorted(x for x in points if x < a), a]
        return float(mpmath.quad(
            lambda x: mpmath.npdf(x) * mpmath.ncdf((b - rho * x) / s), points))


# rho from each region Genz gives its own rule (6 nodes below 0.3, 12
# below 0.75, 20 below 0.925) and from the Taylor branch above
_MP_RHOS = (-0.25, 0.128, -0.6, 3 / 7, 0.8, -0.9, 0.93, -0.95, 0.999)
_MP_POINTS = ((-1.0, 1.5), (0.5, -0.3))


class TestBvnMpmathOracle:
    @pytest.mark.parametrize("rho", _MP_RHOS)
    @pytest.mark.parametrize("a,b", _MP_POINTS)
    def test_documented_accuracy(self, a, b, rho):
        assert abs(bvn_cdf(a, b, rho) - bvn_mp_oracle(a, b, rho)) <= 5e-16


def test_mpmath_oracle_catches_a_shift_of_1e_15(monkeypatch):
    real = bvn_cdf
    monkeypatch.setitem(globals(), "bvn_cdf", lambda a, b, rho: real(a, b, rho) + 1e-15)
    for a, b in _MP_POINTS:
        for rho in _MP_RHOS:
            with pytest.raises(AssertionError):
                TestBvnMpmathOracle().test_documented_accuracy(a, b, rho)


class TestBvnOracle:
    # the full 5x5x5 grid runs in the acceptance suite; spot-check here,
    # including both quadrature branches (|rho| < 0.925 and above)
    @pytest.mark.parametrize("rho", [-0.95, -0.5, 0.5, 0.95])
    @pytest.mark.parametrize("a,b", [(-1.0, 1.0), (0.5, 0.5)])
    def test_matches_quadrature(self, a, b, rho):
        assert bvn_cdf(a, b, rho) == pytest.approx(
            bvn_quadrature_oracle(a, b, rho), abs=1e-7)

    def test_extreme_correlation_branch(self):
        # |r| >= 0.925 exercises the Taylor-expansion path
        got = bvn_cdf(0.5, -0.3, 0.97)
        want = bvn_quadrature_oracle(0.5, -0.3, 0.97)
        assert got == pytest.approx(want, abs=1e-7)


_args = st.floats(min_value=-4, max_value=4, allow_nan=False)
_rhos = st.floats(min_value=-0.999, max_value=0.999, allow_nan=False)


@given(_args, _args, _rhos)
@settings(max_examples=250, deadline=None)
def test_frechet_bounds(a, b, rho):
    v = bvn_cdf(a, b, rho)
    pa, pb = std_normal_cdf(a), std_normal_cdf(b)
    assert max(0.0, pa + pb - 1.0) - 1e-12 <= v <= min(pa, pb) + 1e-12


@given(_args, _args, _rhos)
@settings(max_examples=250, deadline=None)
def test_symmetry_in_arguments(a, b, rho):
    assert bvn_cdf(a, b, rho) == pytest.approx(bvn_cdf(b, a, rho), abs=1e-14)


@given(_args, _args, _args, _rhos)
@settings(max_examples=150, deadline=None)
def test_monotone_in_each_argument(a, a2, b, rho):
    lo, hi = min(a, a2), max(a, a2)
    assert bvn_cdf(lo, b, rho) <= bvn_cdf(hi, b, rho) + 1e-12


@given(_args, _rhos)
@settings(max_examples=150, deadline=None)
def test_marginalization(a, rho):
    # P(X <= a, Y <= 6.5) is the univariate CDF up to far-tail mass
    assert bvn_cdf(a, 6.5, rho) == pytest.approx(std_normal_cdf(a), abs=1e-9)


class TestTwoSidedLimit:
    def test_additive_case_reduces_to_classical(self):
        for a1, a2 in [(-1, 1), (0, 2), (-2, -0.5), (0.3, 0.3)]:
            want = std_normal_cdf(a2) - std_normal_cdf(a1)
            assert two_sided_limit(a1, a2, 1.0) == pytest.approx(want, abs=1e-7)

    def test_orientation(self):
        # limit is P(-Z_low <= -a1, Z_up <= a2) with correlation -rho
        rho = 3 / 7
        assert two_sided_limit(-1.0, 1.0, rho) == pytest.approx(
            bvn_cdf(1.0, 1.0, -rho), abs=1e-15)

    def test_whole_space(self):
        assert two_sided_limit(-8, 8, 0.4) == pytest.approx(1.0, abs=1e-12)
