"""Dedekind eta, Jacobi theta functions, and the index-1 weak Jacobi forms.

Every block is built from its lacunary series: eta(a tau) from Euler's
pentagonal theorem (``eta_scaled``, the one eta builder; eta powers are
products and inverses of it), theta_1..theta_4 from their theta sums, and
phi_{0,1}, phi_{-2,1} as theta quotients.

Index-1 forms from two q-columns.  The coefficients c(n, l) of q^n y^l in
a weak Jacobi form of index 1 obey the elliptic law
c(n, l) = C(4n - l^2, l mod 2) (Eichler-Zagier, *The Theory of Jacobi
Forms*, 1985, Thm 2.2), so its y^0 and y^1 columns determine it.
``index_one_form`` rebuilds the whole (q, y) series from the two columns,
and every index-1 form of the package is built that way: phi_{0,1} and
phi_{-2,1} here (``weak_jacobi_columns``), the fixed-point terms and the
equivariant genera in ``genus``, and the twining genera in ``mckay``.  Only
univariate series are multiplied or divided.  The Chern-root product of
the elliptic genus (``genus.chern_root_elliptic_genus``) stays a bivariate
product, so acceptance criterion 3 tests the law instead of assuming it.

Conventions (the single source of truth for signs):
  * theta3(y;q) = sum_n y^n q^(n^2/2), theta4 with (-1)^n,
    theta2 = sum over n in Z+1/2, theta1 = -i * sum (-1)^(n-1/2) ... so that
    theta1/eta^3 equals the product
        -i (y^(1/2) - y^(-1/2)) prod (1-y q^n)(1-y^(-1) q^n)(1-q^n)^(-2)
    coefficientwise (the factor -i is carried exactly in Q(i)).
  * phi_m21 := (theta1/eta^3)^2, with q^0 part -(y - 2 + 1/y); it vanishes
    at the Euler point y=1.  Its columns are those of -S^2 times eta^-6,
    with S = i theta1, the theta1 sum without its factor -i, which has
    integer coefficients, so no product runs over Q(i).
  * phi_01 is the standard weight-0 index-1 form, q^0 part y + 10 + 1/y,
    value 12 at the Euler point; twice phi_01 is the K3 elliptic genus.
    Its columns are sum_k (the columns of theta_k^2) * 4 theta_k(0)^-2
    over k = 2, 3, 4: each theta constant is inverted once as a pure
    q-series, and 4 theta_k(0)^-2 is integral.
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
    "index_one_form",
    "weak_jacobi_columns",
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


def index_one_form(y0: TruncatedSeries, y1: TruncatedSeries) -> TruncatedSeries:
    """The index-1 Jacobi form whose y^0 and y^1 columns are y0 and y1.

    By the elliptic law (module docstring) the coefficient at
    (q24, y2 = 2l) is the column-r coefficient at q24 - 6 (l^2 - r^2),
    with r = l mod 2.  A rebuilt entry sits no lower than its column
    entry, so the form is known below the columns' truncation.  The
    columns are series in q alone.
    """
    t = min(y0.trunc24, y1.trunc24)
    out = {}
    for r, column in ((0, y0), (1, y1)):
        for (q24, _y2, _z), c in column.terms.items():
            l, e = r, q24
            while e < t:
                out[(e, 2 * l, 0)] = c
                if l:
                    out[(e, -2 * l, 0)] = c
                l += 2
                e = q24 + 6 * (l * l - r * r)
    return TruncatedSeries(out, t, _clean=True)


def _square_columns(theta: TruncatedSeries, t: int) -> list:
    """The y^0 and y^1 columns of theta^2 below t, for a theta series with
    one term per y-power."""
    at = {y2: (q24, c) for (q24, y2, _z), c in theta.terms.items()}
    columns = []
    for total in (0, 2):
        out: dict = {}
        for y2, (q24, c) in at.items():
            partner = at.get(total - y2)
            if partner is not None and q24 + partner[0] < t:
                key = (q24 + partner[0], 0, 0)
                out[key] = out.get(key, 0) + c * partner[1]
        columns.append(TruncatedSeries(out, t))
    return columns


@lru_cache(maxsize=None)
def weak_jacobi_columns(weight: int, trunc24: int) -> tuple:
    """The y^0 and y^1 columns of phi_{0,1} (weight=0) or phi_{-2,1}
    (weight=-2), as a pair of series in q.

    Both run on integer coefficients (see the module docstring).
    theta1^2 and theta2(0)^2 lead at q^(1/4), so the blocks are built
    below trunc24 + 6.  Memoized per process on the exact arguments (the
    series are read-only).
    """
    t = trunc24 + 6
    if weight == -2:
        eta = eta_power(-6, t)
        return tuple((-(c * eta)).truncate(trunc24)
                     for c in _square_columns(_half_integral_theta(True, t), t))
    if weight != 0:
        raise ValueError("weight must be 0 or -2")
    total = [TruncatedSeries.zero(trunc24)] * 2
    for kind in (2, 3, 4):
        inverse = (theta_null(kind, t) ** 2).invert() * 4
        squares = _square_columns(jacobi_theta(kind, t), t)
        total = [acc + (c * inverse).truncate(trunc24)
                 for acc, c in zip(total, squares)]
    return tuple(total)


@lru_cache(maxsize=None)
def weak_jacobi_phi(weight: int, trunc24: int) -> TruncatedSeries:
    """The weak Jacobi forms phi_{0,1} (weight=0) and phi_{-2,1}
    (weight=-2), rebuilt from their columns.  Memoized per process on the
    exact arguments (the series is read-only)."""
    return index_one_form(*weak_jacobi_columns(weight, trunc24))


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
