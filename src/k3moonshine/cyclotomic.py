"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are represented by their coordinates in the power basis
1, zeta, ..., zeta^(phi(n)-1) of Q(zeta_n), i.e. as residues modulo the
n-th cyclotomic polynomial.  A coordinate is a Python ``int`` exactly
when it is integral and a ``fractions.Fraction`` otherwise
(``canonical_rational``; a float raises ``TypeError``), so arithmetic on
integral elements, the usual case, runs on ints.  A product of elements
with Fraction coordinates runs on ints too: each operand is brought over
one common denominator, and each output coordinate is divided once by the
product of the two (``exact_quotient``).  Phi_n, Euler's phi and
the polynomial arithmetic of ``inverse`` come from ``qpoly``; this module
keeps no polynomial code of its own.

Mixed-conductor arithmetic embeds both operands into Q(zeta_lcm); the
compositum conductor is capped to keep accidental blow-ups loud.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from numbers import Rational

from .qpoly import Poly, cyclotomic_poly, euler_phi

__all__ = [
    "CyclotomicNumber",
    "DomainError",
    "zeta",
    "euler_phi",
    "moebius",
    "canonical_rational",
    "exact_quotient",
]

COMPOSITUM_CAP = 9240


class DomainError(ValueError):
    """Incompatible coefficient domains (e.g. compositum above the cap)."""


def canonical_rational(x):
    """The exact rational ``x`` as an ``int`` when integral, else a Fraction.

    Raises TypeError for anything that is not an exact rational, floats
    included, so an inexact value fails loudly instead of rounding.
    """
    if type(x) is int:
        return x
    if type(x) is Fraction:
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, Rational):
        return canonical_rational(Fraction(x))
    raise TypeError(f"exact rational expected, got {type(x).__name__} {x!r}")


def exact_quotient(a, b):
    """a / b exactly, in canonical form; never a float.

    One int divided by another is an ``int`` when the division is even and
    a ``Fraction`` when it is not; any other operands divide by their own
    ``/`` (Fraction or cyclotomic arithmetic).
    """
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q if type(q) is CyclotomicNumber else canonical_rational(q)


def moebius(n: int) -> int:
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


@lru_cache(maxsize=None)
def _power_reduction(n: int) -> tuple[tuple[int, ...], ...]:
    """Power-basis vectors of zeta^k for k = 0..max(2*phi(n)-2, n-1).

    Covers every product of two basis vectors and every n-th root of unity.
    Phi_n is monic with integer coefficients, so every row is integral.
    """
    phi = euler_phi(n)
    poly = [x.numerator for x in cyclotomic_poly(n).c]
    rows: list[tuple[int, ...]] = []
    cur = [0] * phi
    cur[0] = 1
    rows.append(tuple(cur))
    for _ in range(max(2 * phi - 2, n - 1)):
        nxt = [0] + cur[:-1]
        top = cur[-1]
        if top:
            # zeta^phi = -(poly[0] + ... + poly[phi-1] zeta^{phi-1})
            for j in range(phi):
                nxt[j] -= top * poly[j]
        cur = nxt
        rows.append(tuple(cur))
    return tuple(rows)


@lru_cache(maxsize=None)
def _galois_rows(n: int, a: int) -> tuple[tuple[int, ...], ...]:
    """The map zeta -> zeta^a on the power basis: row k is sigma_a(zeta^k)."""
    rows = _power_reduction(n)
    return tuple(rows[k * a % n] for k in range(euler_phi(n)))


@lru_cache(maxsize=None)
def _zeta_traces(n: int) -> tuple[int, ...]:
    """Trace of zeta_n^k over Q for k = 0..phi(n)-1.

    zeta_n^k has order d = n / gcd(n, k), and its trace is
    mu(d) * phi(n) / phi(d), an integer since phi(d) divides phi(n).
    """
    phi = euler_phi(n)
    out = []
    for k in range(phi):
        d = n // gcd(n, k)
        out.append(moebius(d) * phi // euler_phi(d))
    return tuple(out)


class CyclotomicNumber:
    """An element of Q(zeta_n) in the power basis modulo Phi_n."""

    __slots__ = ("n", "c")

    def __init__(self, n: int, coeffs):
        if n < 1:
            raise DomainError("conductor must be positive")
        phi = euler_phi(n)
        c = list(coeffs)
        if len(c) != phi:
            raise DomainError(f"expected {phi} coordinates for conductor {n}")
        self.n = n
        self.c = tuple(map(canonical_rational, c))

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_rational(n: int, value) -> "CyclotomicNumber":
        c = [0] * euler_phi(n)
        c[0] = value
        return CyclotomicNumber(n, c)

    @staticmethod
    def zeta_power(n: int, k: int) -> "CyclotomicNumber":
        phi = euler_phi(n)
        k %= n
        if k < phi:
            c = [0] * phi
            c[k] = 1
            return CyclotomicNumber(n, c)
        return CyclotomicNumber(n, _power_reduction(n)[k])

    @staticmethod
    def from_root_counts(n: int, counts) -> "CyclotomicNumber":
        """sum_k counts[k] * zeta_n^k for integer counts, k = 0..n-1."""
        return CyclotomicNumber(n, _combine(_power_reduction(n), counts,
                                            euler_phi(n)))

    def embed(self, m: int) -> "CyclotomicNumber":
        """Embed into Q(zeta_m); m must be a multiple of the conductor."""
        if m == self.n:
            return self
        if m % self.n:
            raise DomainError(f"{m} is not a multiple of conductor {self.n}")
        step = m // self.n
        out = CyclotomicNumber.from_rational(m, 0)
        for k, ck in enumerate(self.c):
            if ck:
                out = out + CyclotomicNumber.zeta_power(m, k * step) * ck
        return out

    # -- ring operations ---------------------------------------------------

    def _binary(self, other, op):
        if isinstance(other, CyclotomicNumber):
            if other.n == self.n:
                return op(self, other)
            lcm = self.n * other.n // gcd(self.n, other.n)
            if lcm > COMPOSITUM_CAP:
                raise DomainError(
                    f"compositum conductor {lcm} above cap {COMPOSITUM_CAP}")
            return op(self.embed(lcm), other.embed(lcm))
        if isinstance(other, (int, Fraction)):
            return op(self, CyclotomicNumber.from_rational(self.n, other))
        return NotImplemented

    def __add__(self, other):
        return self._binary(other, lambda a, b: CyclotomicNumber(
            a.n, [x + y for x, y in zip(a.c, b.c)]))

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: CyclotomicNumber(
            a.n, [x - y for x, y in zip(a.c, b.c)]))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CyclotomicNumber(self.n, [-x for x in self.c])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber(self.n, [x * other for x in self.c])
        return self._binary(other, CyclotomicNumber._mul_same)

    __rmul__ = __mul__

    def _mul_same(self, other: "CyclotomicNumber") -> "CyclotomicNumber":
        """Product over one conductor, on ints.

        Each operand's coordinates are brought over one common denominator,
        the phi^2 products run on the integer numerators, and each output
        coordinate is divided once by the product of the two denominators
        (both are 1 for integral operands).
        """
        a, da = _over_common_denominator(self.c)
        b, db = _over_common_denominator(other.c)
        phi = len(a)
        rows = _power_reduction(self.n)
        out = [0] * phi
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if not y:
                    continue
                xy = x * y
                row = rows[i + j]
                for k in range(phi):
                    if row[k]:
                        out[k] += xy * row[k]
        d = da * db
        if d != 1:
            out = [exact_quotient(v, d) for v in out]
        return CyclotomicNumber(self.n, out)

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse by the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        mod = cyclotomic_poly(self.n)
        # extended gcd of a and Phi_n in Q[x]
        r0, r1 = mod, Poly(self.c)
        s0, s1 = Poly(), Poly.const(1)
        while r1.degree > 0:
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        if r1.degree != 0:
            raise ZeroDivisionError("element not invertible modulo Phi_n")
        inv = (s1 * (1 / r1[0])) % mod
        return CyclotomicNumber(self.n, [inv[k] for k in range(len(self.c))])

    def __pow__(self, n: int) -> "CyclotomicNumber":
        if n < 0:
            return self.inverse() ** (-n)
        out = CyclotomicNumber.from_rational(self.n, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return CyclotomicNumber(self.n, [x / f for x in self.c])
        if isinstance(other, CyclotomicNumber):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.c)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not any(self.c[1:])

    def rational_value(self):
        if not self.is_rational():
            raise DomainError(f"{self!r} is not rational")
        return self.c[0]

    def galois(self, a: int) -> "CyclotomicNumber":
        """Apply the automorphism zeta -> zeta^a, gcd(a, n) = 1."""
        if gcd(a, self.n) != 1:
            raise DomainError(f"{a} is not a unit modulo {self.n}")
        rows = _galois_rows(self.n, a % self.n)
        return CyclotomicNumber(self.n, _combine(rows, self.c, len(self.c)))

    def trace(self):
        """Trace to Q (sum of all Galois conjugates), in canonical form."""
        traces = _zeta_traces(self.n)
        return canonical_rational(
            sum(ck * tk for ck, tk in zip(self.c, traces)))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.c[0] == other
        if isinstance(other, CyclotomicNumber):
            if self.n == other.n:
                return self.c == other.c
            diff = self._binary(other, lambda a, b: CyclotomicNumber(
                a.n, [x - y for x, y in zip(a.c, b.c)]))
            return diff.is_zero()
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.c[0])
        return hash((self.n, self.c))

    def __repr__(self):
        if self.is_rational():
            return f"Cyclo({self.c[0]})"
        parts = [f"{c}*z{self.n}^{k}" for k, c in enumerate(self.c) if c]
        return "Cyclo(" + " + ".join(parts) + ")"


def _over_common_denominator(coords) -> tuple[list, int]:
    """(numerators, d): the coordinates as ints over their least common
    denominator d (the coordinates themselves when all are ints)."""
    d = 1
    for x in coords:
        if type(x) is not int:
            d = lcm(d, x.denominator)
    if d == 1:
        return coords, 1
    return [x * d if type(x) is int else x.numerator * (d // x.denominator)
            for x in coords], d


def _combine(rows, weights, phi: int) -> list:
    """sum_k weights[k] * rows[k] as a coordinate list of length phi."""
    out = [0] * phi
    for w, row in zip(weights, rows):
        if w:
            for j, r in enumerate(row):
                if r:
                    out[j] += w * r
    return out


def zeta(n: int, k: int = 1) -> CyclotomicNumber:
    """The root of unity zeta_n^k as an exact cyclotomic number."""
    return CyclotomicNumber.zeta_power(n, k)
