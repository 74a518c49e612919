"""Dedekind eta, Jacobi theta functions, E_2, and the weak Jacobi forms.

Every block is built from its lacunary series: eta(a tau) from Euler's
pentagonal theorem (``eta_scaled``; the eta products of ``mckay`` read
it), eta^3 from Jacobi's sum (``eta_power``; every eta power is products
of eta^3 or divisions by it), theta_2 and theta_3 from their theta sums
(the N=4 characters read them; theta_1 enters only through the columns of
phi_{-2,1}), and E_2 from a divisor sieve (``eisenstein_e2``; the
Eisenstein differences of ``mckay`` read it).

Index-1 forms from two q-columns.  The coefficients c(n, l) of q^n y^l in
a weak Jacobi form of index 1 obey the elliptic law
c(n, l) = C(4n - l^2, l mod 2) (Eichler-Zagier, *The Theory of Jacobi
Forms*, 1985, Thm 2.2), so its y^0 and y^1 columns determine it.
``index_one_form`` rebuilds the whole (q, y) series from the two columns,
and every index-1 form of the package is built that way: each is
a phi_{0,1} + F phi_{-2,1} for a constant a and a q-series F, with its
columns from ``jacobi_form_columns`` (the fixed-point terms and the
equivariant genera in ``genus``, the twining genera in ``mckay``).  Only
univariate series are multiplied, and eta^3 is the one series divided.  The
Chern-root product of the elliptic genus
(``genus.chern_root_elliptic_genus``) multiplies out its own factors, so
acceptance criterion 3 tests the law instead of assuming it.

Conventions (the single source of truth for signs):
  * theta3(y;q) = sum_n y^n q^(n^2/2), theta4 with (-1)^n,
    theta2 = sum over n in Z+1/2, theta1 = -i * sum (-1)^(n-1/2) ... so that
    theta1/eta^3 equals the product
        -i (y^(1/2) - y^(-1/2)) prod (1-y q^n)(1-y^(-1) q^n)(1-q^n)^(-2)
    coefficientwise.  ``jacobi_theta`` builds theta2 and theta3; theta1
    and theta4 are built only by the tests, to these conventions.
  * phi_m21 := (theta1/eta^3)^2, with q^0 part -(y - 2 + 1/y); it vanishes
    at the Euler point y=1.  Its columns c_r are L_r / eta^6, two divisions
    by eta^3, with L_r the lacunary columns of -S^2 and S = i theta1, the
    theta1 sum without its factor -i, which has integer coefficients.
  * phi_01 is the standard weight-0 index-1 form, q^0 part y + 10 + 1/y,
    value 12 at the Euler point; twice phi_01 is the K3 elliptic genus.
    The modular heat operator maps weak Jacobi forms of weight -2 and
    index 1 to the line of phi_01 (Eichler-Zagier 1985, sections 3 and
    9); on phi_m21, with the q^0 parts fixing the scale,
        c_01(n, l) = 6 (4n - l^2) c_m21(n, l) + 5 (E_2 phi_m21)(n, l).
    As D log eta = E_2/24 for D = q d/dq, E_2 eta^-6 = -4 D(eta^-6), and
    D is q24/24 on the grid, so on integers and with no E_2 product
        c01_r(q24) = (q24/6 - 6 r^2) c_r(q24) + 5 [(q24/6) L_r / eta^6](q24).
"""

from __future__ import annotations

from .qpoly import memoized, require_int
from .series import TruncatedSeries

__all__ = [
    "eta_scaled",
    "eta_power",
    "jacobi_theta",
    "eisenstein_e2",
    "index_one_form",
    "weak_jacobi_columns",
    "jacobi_form_columns",
    "weak_jacobi_phi",
    "euler_specialization",
]


def eta_scaled(a: int, trunc24: int) -> TruncatedSeries:
    """eta(a tau) by Euler's pentagonal theorem, on the (1/24) grid.

    eta(a tau) = sum_m (-1)^m q^(a (6m - 1)^2 / 24): O(sqrt(trunc24 / a))
    terms, in increasing q-order.
    """
    require_int("a", a, 1)
    terms = {}
    j = 1                        # j = |6m - 1| runs over 1, 5, 7, 11, 13, ...
    while a * j * j < trunc24:
        # (-1)^m is +1 for j = +-1 mod 12 and -1 for j = +-5 mod 12
        terms[(a * j * j, 0)] = 1 if j % 12 in (1, 11) else -1
        j += 4 if j % 6 == 1 else 2
    return TruncatedSeries(terms, trunc24, _clean=True)


@memoized
def eta_power(power: int, trunc24: int) -> TruncatedSeries:
    """eta(q)^power below trunc24, for any integer power.

    eta^3 is Jacobi's lacunary sum sum_(n>=0) (-1)^n (2n+1) q^((2n+1)^2/8).
    With power = 3k + r, 0 <= r < 3, eta^power is r pentagonal factors
    times k factors eta^3, or divided -k times by eta^3, so no inverse of
    eta is raised to a power; the library asks only for multiples of 3.
    Memoized per process on the exact arguments (the series is read-only).
    """
    if power == 3:
        terms = {}
        j = 1                    # j = 2n + 1
        while 3 * j * j < trunc24:
            terms[(3 * j * j, 0)] = j if j % 4 == 1 else -j
            j += 2
        return TruncatedSeries(terms, trunc24, _clean=True)
    k, r = divmod(power, 3)
    t = trunc24 + 3 * max(0, -k)
    out = TruncatedSeries.const(1, t)
    for _ in range(r):
        out = out * eta_scaled(1, t)
    for _ in range(k):
        out = out * eta_power(3, t)
    return (_over_eta3(out, -k) if k < 0 else out).truncate(trunc24)


def _over_eta3(s: TruncatedSeries, times: int) -> TruncatedSeries:
    """s / eta^(3 times), known below s.trunc24 - 3 times: eta^3 leads at
    q^(1/8) and is built that far past s's lowest order, never cutting it."""
    lowest = min((q24 for q24, _y2 in s.terms), default=s.trunc24 - 1)
    eta3 = eta_power(3, s.trunc24 - lowest + 3)
    for _ in range(times):
        s = s.divide_exact(eta3)
    return s


def jacobi_theta(kind: int, trunc24: int) -> TruncatedSeries:
    """theta2 (kind 2) or theta3 (kind 3) as a (y, q) series: the sum of
    y^n q^(n^2/2) over n in Z + 1/2 or n in Z, on j = 2n."""
    if require_int("kind", kind) not in (2, 3):
        raise ValueError("theta kind must be 2 or 3")
    terms = {}
    j = 1 if kind == 2 else 0
    while 3 * j * j < trunc24:
        terms[(3 * j * j, j)] = terms[(3 * j * j, -j)] = 1
        j += 2
    return TruncatedSeries(terms, trunc24, _clean=True)


@memoized
def eisenstein_e2(trunc24: int) -> TruncatedSeries:
    """E_2 = 1 - 24 sum_(n>=1) sigma_1(n) q^n below trunc24, with the
    divisor sums sigma_1 from one sieve.  Memoized per process on the
    exact arguments (the series is read-only)."""
    top = (trunc24 - 1) // 24          # the last integral q-order below
    sigma = [0] * (top + 1)
    for d in range(1, top + 1):
        for m in range(d, top + 1, d):
            sigma[m] += d
    terms = {(0, 0): 1}
    for m in range(1, top + 1):
        terms[(24 * m, 0)] = -24 * sigma[m]
    return TruncatedSeries(terms, trunc24)


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
        for (q24, _y2), c in column.terms.items():
            l, e = r, q24
            while e < t:
                out[(e, 2 * l)] = c
                if l:
                    out[(e, -2 * l)] = c
                l += 2
                e = q24 + 6 * (l * l - r * r)
    return TruncatedSeries(out, t, _clean=True)


@memoized
def weak_jacobi_columns(weight: int, trunc24: int) -> tuple:
    """The y^0 and y^1 columns of phi_{0,1} (weight=0) or phi_{-2,1}
    (weight=-2), as a pair of series in q.

    Both run on integer coefficients (see the module docstring).  eta^6
    leads at q^(1/4), so L_r is built below trunc24 + 6; each q24 of L_r is
    6 mod 24 and each of c_r 0 mod 24.  Memoized per process on the exact
    arguments (the series are read-only).
    """
    if weight not in (0, -2):
        raise ValueError("weight must be 0 or -2")
    # S has the terms (-1)^m y^(j/2) q^(j^2/8), j = 2m + 1, so -S^2 has
    # the y^0 column sum_(j odd) q^(j^2/4) (from j' = -j) and the y^1
    # column -sum_(i in Z) q^(i^2 + 1/4) (from j' = 2 - j)
    t = trunc24 + 6
    y0, y1 = {}, {}
    i = 0
    while 24 * i * i + 6 < t:
        y1[(24 * i * i + 6, 0)] = -2 if i else -1
        if 6 * (2 * i + 1) ** 2 < t:
            y0[(6 * (2 * i + 1) ** 2, 0)] = 2
        i += 1
    if weight == -2:
        return tuple(_over_eta3(TruncatedSeries(c, t, _clean=True), 2)
                     for c in (y0, y1))
    columns = []
    for r, (c, lacunary) in enumerate(
            zip(weak_jacobi_columns(-2, trunc24), (y0, y1))):
        d_l = TruncatedSeries({(q24, 0): q24 // 6 * v
                               for (q24, _y2), v in lacunary.items()},
                              t, _clean=True)
        heat = TruncatedSeries({(q24, 0): (q24 // 6 - 6 * r * r) * v
                                for (q24, _y2), v in c.terms.items()},
                               c.trunc24)
        columns.append(heat + _over_eta3(d_l, 2) * 5)
    return tuple(columns)


def jacobi_form_columns(a, f: TruncatedSeries, trunc24: int) -> list:
    """The y^0 and y^1 columns of a phi_{0,1} + f phi_{-2,1}, for a
    constant a and a q-series f; phi_{0,1} is built only when a != 0."""
    columns = [f * m for m in weak_jacobi_columns(-2, trunc24)]
    if a:
        columns = [p * a + c for p, c in
                   zip(weak_jacobi_columns(0, trunc24), columns)]
    return columns


@memoized
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
    for (q24, _y2), c in s.terms.items():
        out[(q24, 0)] = out.get((q24, 0), 0) + c
    return TruncatedSeries(out, s.trunc24)
