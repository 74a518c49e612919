"""Dense univariate polynomials over Q and rational functions in t.

Used for the symmetric-power generating series chi(X, S_t T), the
per-class rational forms r_g(t) with cyclotomic-polynomial denominators,
and the multiplicity functions m_chi(t).  ``Poly`` is the package's one
polynomial type: ``cyclotomic_poly`` builds Phi_n by exact ``Poly``
division, and ``CyclotomicNumber.inverse`` runs its extended Euclid on it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

__all__ = ["Poly", "RationalFunction", "cyclotomic_poly", "PoleAtZeroError"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class PoleAtZeroError(ZeroDivisionError):
    """Power-series expansion requested for a function with a pole at t=0."""


class Poly:
    """Polynomial in t with Fraction coefficients, ascending order."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        c = [Fraction(x) for x in coeffs]
        while c and not c[-1]:
            c.pop()
        self.c = tuple(c)

    @staticmethod
    def const(x) -> "Poly":
        return Poly([x])

    @staticmethod
    def monomial(coeff, k: int) -> "Poly":
        return Poly([0] * k + [coeff])

    @property
    def degree(self) -> int:
        return len(self.c) - 1 if self.c else -1

    def is_zero(self) -> bool:
        return not self.c

    def __getitem__(self, k: int) -> Fraction:
        return self.c[k] if 0 <= k < len(self.c) else _ZERO

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.c == other.c
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.c)

    def __add__(self, other):
        other = other if isinstance(other, Poly) else Poly.const(other)
        n = max(len(self.c), len(other.c))
        return Poly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-x for x in self.c])

    def __sub__(self, other):
        other = other if isinstance(other, Poly) else Poly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([x * other for x in self.c])
        out = [_ZERO] * (len(self.c) + len(other.c) - 1) if self.c and other.c else []
        for i, x in enumerate(self.c):
            if not x:
                continue
            for j, y in enumerate(other.c):
                if y:
                    out[i + j] += x * y
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        out, base = Poly.const(1), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.c)
        q = [_ZERO] * max(0, len(rem) - len(other.c) + 1)
        lead = other.c[-1]
        for shift in range(len(q) - 1, -1, -1):
            coeff = rem[shift + other.degree] / lead
            if coeff:
                q[shift] = coeff
                for j, y in enumerate(other.c):
                    rem[shift + j] -= coeff * y
        return Poly(q), Poly(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a * (1 / a.c[-1])  # monic

    def eval(self, x) -> Fraction:
        acc = _ZERO
        for coeff in reversed(self.c):
            acc = acc * x + coeff
        return acc

    def is_palindromic(self) -> bool:
        return not self.is_zero() and self.c == tuple(reversed(self.c))

    def shift(self, k: int) -> "Poly":
        """Multiply by t^k."""
        return Poly([_ZERO] * k + list(self.c))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        parts = []
        for k, x in enumerate(self.c):
            if x:
                parts.append(f"{x}" if k == 0 else f"{x}*t^{k}")
        return "Poly(" + " + ".join(parts) + ")"


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of Phi_n, cached per process.

    Phi_n = (t^n - 1) / prod_{d | n, d < n} Phi_d, by exact division.
    """
    p = Poly.monomial(1, n) - 1
    for d in range(1, n):
        if n % d == 0:
            p = p // Poly(_cyclotomic_coeffs(d))
    return tuple(int(c) for c in p.c)


def cyclotomic_poly(n: int) -> Poly:
    """The n-th cyclotomic polynomial Phi_n(t), exact integer coefficients."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Poly(_cyclotomic_coeffs(n))


class RationalFunction:
    """Quotient of polynomials in t, reduced, with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=Poly.const(1)):
        num = num if isinstance(num, Poly) else Poly.const(num)
        den = den if isinstance(den, Poly) else Poly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = num.gcd(den)
        if not g.is_zero() and g.degree > 0:
            num = num // g
            den = den // g
        lead = den.c[-1]
        if lead != 1:
            num = num * (1 / lead)
            den = den * (1 / lead)
        self.num = num
        self.den = den

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction, Poly)):
            return self == RationalFunction(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = other if isinstance(other, RationalFunction) else RationalFunction(other)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        other = other if isinstance(other, RationalFunction) else RationalFunction(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunction(self.num * other, self.den)
        other = other if isinstance(other, RationalFunction) else RationalFunction(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, RationalFunction) else RationalFunction(other)
        return RationalFunction(self.num * other.den, self.den * other.num)

    def expand(self, terms: int) -> list[Fraction]:
        """Power-series coefficients at t=0, length ``terms``."""
        if self.den.eval(0) == 0:
            raise PoleAtZeroError("denominator vanishes at t = 0")
        d0 = self.den[0]
        out = []
        for k in range(terms):
            acc = self.num[k]
            for j in range(1, min(k, self.den.degree) + 1):
                acc -= self.den[j] * out[k - j]
            out.append(acc / d0)
        return out

    def pole_coefficient(self, at: Fraction, order: int) -> Fraction:
        """Coefficient of 1/(t-at)^order in the partial-fraction expansion.

        Requires (t-at)^order to divide the denominator exactly and the
        remaining denominator to be nonzero at the point.
        """
        factor = Poly([-Fraction(at), 1]) ** order
        q, r = self.den.divmod(factor)
        if not r.is_zero():
            raise ValueError(f"(t - {at})^{order} does not divide denominator")
        if q.eval(at) == 0:
            raise ValueError("pole order higher than requested")
        return self.num.eval(at) / q.eval(at)

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"


def reconstruct_rational(series: list[Fraction], den: Poly):
    """Fit ``series`` = P(t)/den(t); return (P, palindromic_flag) or None.

    The numerator is read off from series*den; the fit is accepted only if
    every available higher coefficient of series*den vanishes (no forced
    fit).  ``palindromic_flag`` reports whether P is palindromic of degree
    exactly deg(den) - 2.  Raises ValueError when too few terms are given
    to see past the numerator degree.
    """
    n = len(series)
    d = den.degree
    if n < d + 2:
        raise ValueError("insufficient series terms to reconstruct numerator")
    prod = []
    for k in range(n):
        acc = _ZERO
        for j in range(min(k, d) + 1):
            acc += den[j] * series[k - j]
        prod.append(acc)
    num = Poly(prod[:d + 1])
    if any(prod[d + 1:]):
        return None
    palindromic = num.is_palindromic() and num.degree == d - 2
    return num, palindromic
