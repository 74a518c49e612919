"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are represented by their coordinates in the power basis
1, zeta, ..., zeta^(phi(n)-1) of Q(zeta_n), i.e. as residues modulo the
n-th cyclotomic polynomial.  A coordinate is a Python ``int`` exactly
when it is integral and a ``fractions.Fraction`` otherwise
(``canonical_rational``; a float raises ``TypeError``), so arithmetic on
integral elements, the usual case, runs on ints.  A product of elements
with Fraction coordinates runs on ints too: each operand is brought over
one common denominator, and each output coordinate is divided once by
the product of the denominators (``exact_quotient``).  ``inverse`` stays
on ints as well: it multiplies the Galois conjugates sigma_a(x), a != 1,
on integer coordinates and divides once by the norm, the rational
x * prod sigma_a(x).  Phi_n's integer coefficients and every scalar
rule (Euler's phi, ``canonical_rational``, ``exact_quotient``) come from
``qpoly``; this module keeps no polynomial code.

No route of the library computes in Q(zeta_n): the genera read the
traces of ``genus._traces`` instead.  The class is the exact field the
tests check those routes against; of the library only ``series`` imports
it, as ``TruncatedSeries`` takes its elements as coefficients.

Every operation works in one field: operands with different conductors
raise ``DomainError``, which nothing outside this field raises.
Rationals embed into any field, and ``==`` compares two rational
elements by value whatever their conductors (so it agrees with
``__hash__``); with an irrational operand it raises too.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .qpoly import (
    _cyclotomic_coeffs, _int_mul, _over_common_denominator,
    canonical_rational, euler_phi, exact_quotient, memoized, require_int,
)

__all__ = ["CyclotomicNumber", "DomainError", "zeta"]

class DomainError(ValueError):
    """Incompatible coefficient domains (e.g. two different conductors)."""


@memoized
def _power_reduction(n: int) -> tuple[tuple[int, ...], ...]:
    """Power-basis vectors of zeta^k for k = 0..max(2*phi(n)-2, n-1).

    Covers every product of two basis vectors and every n-th root of unity.
    Phi_n is monic with integer coefficients, so every row is integral.
    """
    phi = euler_phi(n)
    poly = _cyclotomic_coeffs(n)
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


class CyclotomicNumber:
    """An element of Q(zeta_n) in the power basis modulo Phi_n.

    Read-only, like ``TruncatedSeries``: neither attribute can be
    reassigned, so memoized builders can share one element."""

    __slots__ = ("n", "c")

    def __init__(self, n: int, coeffs):
        if require_int("conductor", n) < 1:
            raise DomainError("conductor must be positive")
        phi = euler_phi(n)
        c = list(coeffs)
        if len(c) != phi:
            raise DomainError(f"expected {phi} coordinates for conductor {n}")
        _set_n(self, n)
        _set_c(self, tuple(map(canonical_rational, c)))

    def __setattr__(self, name, value):
        raise AttributeError(
            f"CyclotomicNumber is read-only: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(
            f"CyclotomicNumber is read-only: cannot delete {name}")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_rational(n: int, value) -> "CyclotomicNumber":
        c = [0] * euler_phi(n)
        c[0] = value
        return CyclotomicNumber(n, c)

    @staticmethod
    def zeta_power(n: int, k: int) -> "CyclotomicNumber":
        if require_int("conductor", n) < 1:
            raise DomainError("conductor must be positive")
        phi = euler_phi(n)
        k %= n
        if k < phi:
            c = [0] * phi
            c[k] = 1
            return CyclotomicNumber(n, c)
        return CyclotomicNumber(n, _power_reduction(n)[k])

    # -- ring operations ---------------------------------------------------

    def _binary(self, other, op):
        if isinstance(other, CyclotomicNumber):
            if other.n != self.n:
                raise DomainError(
                    f"conductors {self.n} and {other.n} differ")
            return op(self, other)
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
        out = _int_product(a, b, _power_reduction(self.n))
        d = da * db
        if d != 1:
            out = [exact_quotient(v, d) for v in out]
        return CyclotomicNumber(self.n, out)

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse by the norm, on ints.

        With x = X/d over one common denominator, the product P of the
        conjugates sigma_a(X), a != 1 a unit modulo n, is integral, and
        so is the norm X * P, a rational integer; 1/x = d P / (X P), one
        division per coordinate.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        n = self.n
        x, d = _over_common_denominator(self.c)
        phi = len(x)
        rows = _power_reduction(n)
        p = [1] + [0] * (phi - 1)
        for a in range(2, n):
            if gcd(a, n) == 1:      # sigma_a(X) from the sigma_a(zeta^k)
                sigma = (rows[k * a % n] for k in range(phi))
                p = _int_product(p, _combine(sigma, x, phi), rows)
        norm = _int_product(x, p, rows)[0]
        return CyclotomicNumber(n, [exact_quotient(d * v, norm) for v in p])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber(
                self.n, [exact_quotient(x, other) for x in self.c])
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

    def __eq__(self, other):
        if (isinstance(other, CyclotomicNumber) and other.is_rational()
                and self.is_rational()):
            other = other.c[0]          # rationals compare across conductors
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.c[0] == other
        return self._binary(other, lambda a, b: a.c == b.c)

    def __hash__(self):
        if self.is_rational():
            return hash(self.c[0])
        return hash((self.n, self.c))

    def __repr__(self):
        if self.is_rational():
            return f"Cyclo({self.c[0]})"
        parts = [f"{c}*z{self.n}^{k}" for k, c in enumerate(self.c) if c]
        return "Cyclo(" + " + ".join(parts) + ")"


# the slot setters, which the read-only __setattr__ leaves to __init__
_set_n, _set_c = CyclotomicNumber.n.__set__, CyclotomicNumber.c.__set__


def _int_product(a, b, rows) -> list:
    """The coordinates of a * b for integer coordinate lists a and b, with
    ``rows`` the conductor's ``_power_reduction``: the phi^2 products of
    the polynomial product first, then each power zeta^k, k >= phi, of it
    reduced once by its row."""
    phi = len(a)
    full = _int_mul(a, b)
    high = _combine(rows[phi:], full[phi:], phi)
    return [u + v for u, v in zip(full, high)]


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
    return CyclotomicNumber.zeta_power(n, require_int("k", k))
