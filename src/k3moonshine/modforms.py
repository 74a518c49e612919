"""Dedekind eta, Jacobi theta functions, and the index-1 weak Jacobi forms.

Every block is built from its lacunary series: eta(a tau) from Euler's
pentagonal theorem (``eta_scaled``, the one eta builder; eta powers are
products and inverses of it), theta_1..theta_4 from their theta sums, and
phi_{0,1}, phi_{-2,1} as theta quotients.

Conventions (the single source of truth for signs):
  * theta3(y;q) = sum_n y^n q^(n^2/2), theta4 with (-1)^n,
    theta2 = sum over n in Z+1/2, theta1 = -i * sum (-1)^(n-1/2) ... so that
    theta1/eta^3 equals the product
        -i (y^(1/2) - y^(-1/2)) prod (1-y q^n)(1-y^(-1) q^n)(1-q^n)^(-2)
    coefficientwise (the factor -i is carried exactly in Q(i)).
  * phi_m21 := (theta1/eta^3)^2, with q^0 part -(y - 2 + 1/y); it vanishes
    at the Euler point y=1.  It is built as -S^2 eta^-6 with S = i theta1,
    the theta1 sum without its factor -i, which has integer coefficients,
    so no product runs over Q(i).
  * phi_01 is the standard weight-0 index-1 form, q^0 part y + 10 + 1/y,
    value 12 at the Euler point; twice phi_01 is the K3 elliptic genus.
    It is built as sum_k theta_k^2 * 4 theta_k(0)^-2 over k = 2, 3, 4: each
    theta constant is inverted once as a pure q-series, and
    4 theta_k(0)^-2 is integral.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclotomic import zeta
from .series import TruncatedSeries

__all__ = [
    "dedekind_eta",
    "eta_scaled",
    "eta_power",
    "jacobi_theta",
    "theta_null",
    "weak_jacobi_phi",
    "euler_specialization",
]


def eta_scaled(a: int, trunc24: int) -> TruncatedSeries:
    """eta(a tau) by Euler's pentagonal theorem, on the (1/24) grid.

    eta(a tau) = sum_m (-1)^m q^(a (6m - 1)^2 / 24): O(sqrt(trunc24 / a))
    terms, in increasing q-order.  The one eta builder; every eta power
    and eta product is assembled from it.
    """
    terms = {}
    j = 1                        # j = |6m - 1| runs over 1, 5, 7, 11, 13, ...
    while a * j * j < trunc24:
        # (-1)^m is +1 for j = +-1 mod 12 and -1 for j = +-5 mod 12
        terms[(a * j * j, 0, 0)] = 1 if j % 12 in (1, 11) else -1
        j += 4 if j % 6 == 1 else 2
    return TruncatedSeries(terms, trunc24, _clean=True)


def dedekind_eta(trunc24: int) -> TruncatedSeries:
    """eta(q) = q^(1/24) prod_(n>=1) (1 - q^n): ``eta_scaled`` at a = 1."""
    if trunc24 <= 1:
        raise ValueError("truncation must exceed the leading exponent 1/24")
    return eta_scaled(1, trunc24)


@lru_cache(maxsize=None)
def eta_power(power: int, trunc24: int) -> TruncatedSeries:
    """eta(q)^power for any integer power (negative powers invert).

    Memoized per process on the exact arguments (the series is read-only).
    """
    if power == 0:
        return TruncatedSeries.const(1, trunc24)
    if power > 0:
        return (dedekind_eta(trunc24) ** power).truncate(trunc24)
    k = -power
    inv = dedekind_eta(trunc24 + k + 1).invert()
    return (inv ** k).truncate(trunc24)


def jacobi_theta(kind: int, trunc24: int) -> TruncatedSeries:
    """The classical theta_1..theta_4 as (y, q) series."""
    if kind not in (1, 2, 3, 4):
        raise ValueError("theta kind must be 1..4")
    if kind == 1:
        return _half_integral_theta(True, trunc24) * zeta(4, 3)  # -i S
    if kind == 2:
        return _half_integral_theta(False, trunc24)
    terms = {}
    n = 0
    while 12 * n * n < trunc24:
        for s in ((n,) if n == 0 else (n, -n)):
            sign = -1 if (kind == 4 and n % 2) else 1
            terms[(12 * n * n, 2 * s, 0)] = sign
        n += 1
    return TruncatedSeries(terms, trunc24, _clean=True)


def _half_integral_theta(alternating: bool, trunc24: int) -> TruncatedSeries:
    """sum over n = m + 1/2 of s y^n q^(n^2/2): theta2 (s = 1), or
    S = i theta1 (s = (-1)^m), both with integer coefficients."""
    terms = {}
    k = 0
    while 3 * (2 * k + 1) ** 2 < trunc24:
        q24 = 3 * (2 * k + 1) ** 2
        for m in (k, -k - 1):  # n = m + 1/2 runs over +-(k+1/2)
            terms[(q24, 2 * m + 1, 0)] = -1 if alternating and m % 2 else 1
        k += 1
    return TruncatedSeries(terms, trunc24, _clean=True)


def theta_null(kind: int, trunc24: int) -> TruncatedSeries:
    """Theta constant: the y -> 1 specialization as a pure q-series."""
    return euler_specialization(jacobi_theta(kind, trunc24))


@lru_cache(maxsize=None)
def weak_jacobi_phi(weight: int, trunc24: int) -> TruncatedSeries:
    """The weak Jacobi forms phi_{0,1} (weight=0) and phi_{-2,1} (weight=-2).

    Both run on integer coefficients (see the module docstring).
    theta1^2 and theta2(0)^2 lead at q^(1/4), so the blocks are built
    below trunc24 + 6.  Memoized per process on the exact arguments (the
    series is read-only).
    """
    t = trunc24 + 6
    if weight == -2:
        sq = _half_integral_theta(True, t) ** 2
        return (-(sq * eta_power(-6, t))).truncate(trunc24)
    if weight != 0:
        raise ValueError("weight must be 0 or -2")
    total = TruncatedSeries.zero(trunc24)
    for kind in (2, 3, 4):
        inverse = (theta_null(kind, t) ** 2).invert() * 4
        total = total + (jacobi_theta(kind, t) ** 2 * inverse).truncate(trunc24)
    return total


def euler_specialization(s: TruncatedSeries) -> TruncatedSeries:
    """Specialize the Jacobi variable to the Euler point (z = 0, y = 1).

    In the paper's chi_y bookkeeping this is the "y = -1" specialization;
    the stored series follow the chi_{-y} (moonshine) convention, where
    the same point is y = +1.
    """
    out = {}
    for (q24, _y2, z), c in s.terms.items():
        key = (q24, 0, z)
        out[key] = out.get(key, 0) + c
    return TruncatedSeries(out, s.trunc24)
