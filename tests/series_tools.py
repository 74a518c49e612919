"""Series and cyclotomic operations that only the tests use.

The library computes none of these; the tests read their results off
computed series and numbers:

  * ``substitute_y_value``: y specialized to a value, the oracle of
    ``modforms.euler_specialization``;
  * ``is_y_symmetric``: the y <-> 1/y symmetry of every Jacobi form;
  * ``q_slice``: the y-terms at one q-order;
  * ``rational_value`` and ``as_rational``: rational numbers and
    coefficients read off cyclotomic ones;
  * ``root_sum``, ``galois``, ``galois_sum`` and ``trace``: sums of roots
    of unity, one automorphism sigma_a by the defining sum
    sum_k c_k zeta^(k a), weighted sums of the sigma_a and the trace to Q,
    all built on ``zeta`` powers (the library reads its Galois sums off
    ``genus._traces``);
  * ``theta_s``, ``theta1`` and ``theta4``: the theta functions the
    library does not build (it builds theta2 and theta3);
  * ``geometric_factor`` and ``binomial_factor``: the factors of the
    product formulas the tests multiply out as series (the library's two
    product cross-checks multiply theirs out on plain dicts).
"""

from math import comb, gcd

from k3moonshine.cyclotomic import CyclotomicNumber, DomainError, zeta
from k3moonshine.qpoly import exact_quotient
from k3moonshine.series import (
    INF24, InsufficientPrecisionError, TruncatedSeries,
)


def substitute_y_value(s, value):
    """Specialize y to an exact scalar; y-exponents must be integral."""
    out: dict = {}
    for (q24, y2), c in s.terms.items():
        if y2 % 2:
            raise DomainError("cannot specialize half-integral y-power")
        m = y2 // 2
        factor = value ** m if m >= 0 else exact_quotient(1, value ** -m)
        key = (q24, 0)
        acc = out.get(key, 0) + c * factor
        if not acc:
            out.pop(key, None)
        else:
            out[key] = acc
    return TruncatedSeries(out, s.trunc24, _clean=True)


def is_y_symmetric(s) -> bool:
    """Whether s is unchanged by y -> 1/y."""
    mirror = {(q24, -y2): c for (q24, y2), c in s.terms.items()}
    return s == TruncatedSeries(mirror, s.trunc24, _clean=True)


def q_slice(s, q24):
    """All y2 -> coeff at the given q-exponent (in 24th units)."""
    if q24 >= s.trunc24:
        raise InsufficientPrecisionError(
            f"slice at q24={q24} beyond truncation {s.trunc24}")
    return {y2: c for (e, y2), c in s.terms.items() if e == q24}


def rational_value(x):
    """x as a rational; an irrational cyclotomic number raises."""
    if not isinstance(x, CyclotomicNumber):
        return x
    if not x.is_rational():
        raise DomainError(f"{x!r} is not rational")
    return x.c[0]


def as_rational(s):
    """All coefficients as rationals; an irrational one raises."""
    return TruncatedSeries({k: rational_value(c) for k, c in s.terms.items()},
                           s.trunc24, _clean=True)


def root_sum(n, counts):
    """sum_k counts[k] zeta_n^k."""
    return sum((zeta(n, k) * c for k, c in enumerate(counts) if c),
               CyclotomicNumber.from_rational(n, 0))


def galois(x, a: int):
    """The automorphism zeta -> zeta^a applied to x, gcd(a, n) = 1."""
    if gcd(a, x.n) != 1:
        raise DomainError(f"{a} is not a unit modulo {x.n}")
    return sum((zeta(x.n, k * a) * c for k, c in enumerate(x.c) if c),
               CyclotomicNumber.from_rational(x.n, 0))


def galois_sum(x, weights):
    """sum w sigma_a(x) over the pairs (a, w) of ``weights``."""
    return sum((galois(x, a) * w for a, w in weights),
               CyclotomicNumber.from_rational(x.n, 0))


def trace(x):
    """The trace of x to Q, the sum of sigma_a(x) over the units a."""
    units = [(a, 1) for a in range(1, x.n + 1) if gcd(a, x.n) == 1]
    return rational_value(galois_sum(x, units))


def theta_s(trunc24):
    """S = i theta1 = sum over n = m + 1/2 of (-1)^m y^n q^(n^2/2), with
    integer coefficients."""
    terms = {}
    k = 0
    while 3 * (2 * k + 1) ** 2 < trunc24:
        q24 = 3 * (2 * k + 1) ** 2
        for m in (k, -k - 1):  # n = m + 1/2 runs over +-(k+1/2)
            terms[(q24, 2 * m + 1)] = -1 if m % 2 else 1
        k += 1
    return TruncatedSeries(terms, trunc24, _clean=True)


def theta1(trunc24):
    """theta1 = -i S over Q(i)."""
    return theta_s(trunc24) * zeta(4, 3)


def theta4(trunc24):
    """theta4(y;q) = sum_n (-1)^n y^n q^(n^2/2)."""
    terms = {}
    n = 0
    while 12 * n * n < trunc24:
        for s in ((n,) if n == 0 else (n, -n)):
            terms[(12 * n * n, 2 * s)] = -1 if n % 2 else 1
        n += 1
    return TruncatedSeries(terms, trunc24, _clean=True)


def geometric_factor(coeff, q24: int, y2: int, trunc24: int,
                     power: int = 1) -> TruncatedSeries:
    """(1 - coeff * q^(q24/24) y^(y2/2))^(-power) expanded to trunc24.

    Requires q24 > 0 so the expansion truncates.
    """
    if q24 <= 0:
        raise ValueError("geometric expansion needs a positive q-exponent")
    if trunc24 >= INF24:
        raise ValueError("geometric expansion needs a finite truncation")
    terms: dict = {(0, 0): 1}
    k = 1
    c_pow = coeff
    # multiplicity of the k-th power for (1-x)^-power is C(k+power-1, power-1)
    while k * q24 < trunc24:
        val = c_pow * comb(k + power - 1, power - 1)
        if val:
            terms[(k * q24, k * y2)] = val
        k += 1
        c_pow = c_pow * coeff
    return TruncatedSeries(terms, trunc24, _clean=True)


def binomial_factor(coeff, q24: int, y2: int) -> TruncatedSeries:
    """(1 + coeff * q^(q24/24) y^(y2/2)) as an exact series."""
    terms = {(0, 0): 1}
    if coeff:
        terms[(q24, y2)] = coeff
    return TruncatedSeries(terms, INF24, _clean=True)
