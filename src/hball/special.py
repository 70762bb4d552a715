"""Scalar special functions on the unit ball of R^n (n >= 2).

Pochhammer symbols, Gegenbauer polynomials, zonal harmonics Z_k(x, y),
dimensions of spherical-harmonic spaces and the normalizing constants of the
weighted volume measures (1 - |x|^2)^alpha dnu, where nu is the Lebesgue
measure normalized so that nu(B) = 1.  All functions are pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, gammaln

__all__ = [
    "WeightConstant",
    "check_dimension",
    "dim_spherical_harmonics",
    "gegenbauer",
    "log_abs_pochhammer",
    "log_dim_spherical_harmonics",
    "pochhammer",
    "weight_constant",
    "zonal",
]


def check_dimension(n: int) -> int:
    """Validate the ambient dimension (n >= 2) and return it as an int."""
    m = int(n)
    if m != n or m < 2:
        raise ValueError(f"ambient dimension must be an integer >= 2, got {n!r}")
    return m


def pochhammer(a: float, k: int) -> float:
    """Rising factorial a (a+1) ... (a+k-1); the empty product 1 for k = 0.

    Total for every real a and integer k >= 0.  Equals Gamma(a+k)/Gamma(a)
    whenever both gamma values are finite.
    """
    if k != int(k) or k < 0:
        raise ValueError(f"pochhammer order must be a nonnegative integer, got {k!r}")
    k = int(k)
    if k == 0:
        return 1.0
    if k <= 64:
        out = 1.0
        for j in range(k):
            out *= a + j
        return out
    log_abs, sign = log_abs_pochhammer(a, k)
    if sign == 0:
        return 0.0
    if log_abs > 709.0:
        return sign * math.inf
    return sign * math.exp(log_abs)


def log_abs_pochhammer(a: float, k: int) -> tuple[float, int]:
    """(log |(a)_k|, sign) with sign in {-1, 0, +1}; sign 0 means (a)_k = 0."""
    k = int(k)
    if k == 0:
        return 0.0, 1
    if a > 0:
        return math.lgamma(a + k) - math.lgamma(a), 1
    if a == int(a) and -int(a) < k:
        # the factor a + j vanishes at j = -a < k
        return float("-inf"), 0
    log_abs = 0.0
    sign = 1
    for j in range(k):
        f = a + j
        log_abs += math.log(abs(f))
        if f < 0:
            sign = -sign
    return log_abs, sign


def dim_spherical_harmonics(n: int, k: int) -> int:
    """Dimension h_k of the degree-k spherical harmonics on the sphere in R^n.

    h_0 = 1 and, for k >= 1, h_k = (2k+n-2) (k+n-3)! / (k! (n-2)!).
    """
    n = check_dimension(n)
    if k < 0:
        raise ValueError("degree must be >= 0")
    if k == 0:
        return 1
    if k == 1:
        return n
    return math.comb(n + k - 1, k) - math.comb(n + k - 3, k - 2)


def log_dim_spherical_harmonics(n: int, ks: np.ndarray) -> np.ndarray:
    """log h_k, vectorized over integer degrees (float output, exact at k = 0)."""
    ks = np.asarray(ks, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (
            np.log(2.0 * ks + n - 2.0)
            + gammaln(ks + n - 2.0)
            - gammaln(ks + 1.0)
            - gammaln(float(n - 1))
        )
    return np.where(ks == 0, 0.0, out)


def gegenbauer(lam: float, k: int, u: float) -> float:
    """Gegenbauer polynomial C_k^lam(u) via the three-term recurrence (lam > 0)."""
    if lam <= 0:
        raise ValueError("Gegenbauer parameter must be positive")
    if k < 0:
        raise ValueError("degree must be >= 0")
    if k == 0:
        return 1.0
    prev2 = 1.0
    prev = 2.0 * lam * u
    if k == 1:
        return prev
    for m in range(2, k + 1):
        cur = (2.0 * u * (m + lam - 1.0) * prev - (m + 2.0 * lam - 2.0) * prev2) / m
        prev2, prev = prev, cur
    return prev


def _cos_angle(x: np.ndarray, y: np.ndarray, rx: float, ry: float) -> float:
    c = float(np.dot(x, y)) / (rx * ry)
    return min(1.0, max(-1.0, c))


def zonal(n: int, k: int, x, y) -> float:
    """Zonal harmonic Z_k(x, y), the reproducing kernel of degree-k harmonics.

    Z_0 = 1.  For k >= 1 and r = |x|, s = |y|, theta the angle between x, y:
    Z_k = 2 (rs)^k cos(k theta) when n = 2, and
    Z_k = (rs)^k (2k+n-2)/(n-2) C_k^{(n-2)/2}(cos theta) when n >= 3.
    """
    n = check_dimension(n)
    if k < 0:
        raise ValueError("degree must be >= 0")
    if k == 0:
        return 1.0
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rx = float(np.linalg.norm(x))
    ry = float(np.linalg.norm(y))
    if rx == 0.0 or ry == 0.0:
        return 0.0
    u = _cos_angle(x, y, rx, ry)
    radial = (rx * ry) ** k
    if n == 2:
        return 2.0 * radial * math.cos(k * math.acos(u))
    lam = 0.5 * (n - 2)
    return radial * ((2.0 * k + n - 2.0) / (n - 2.0)) * gegenbauer(lam, k, u)


@dataclass(frozen=True)
class WeightConstant:
    """Normalizing constant V_alpha of the measure (1-|x|^2)^alpha dnu on B."""

    alpha: float
    value: float


def weight_constant(n: int, alpha: float) -> WeightConstant:
    """V_alpha = (n/2) B(n/2, alpha+1) for alpha > -1 (so that the weighted
    measure has total mass V_alpha under normalized nu); 1 for alpha <= -1.
    A non-finite alpha is refused with ValueError."""
    n = check_dimension(n)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if alpha <= -1.0:
        return WeightConstant(alpha, 1.0)
    value = math.exp(math.log(0.5 * n) + betaln(0.5 * n, alpha + 1.0))
    return WeightConstant(alpha, value)
