"""Reference rational functions reduced by a polynomial gcd over Q.

The route ``qpoly.RationalFunction`` used before it stored cyclotomic
exponent maps: every construction runs Euclid on Fraction polynomial
coefficients and divides numerator and denominator by the monic gcd.  It
accepts any nonzero denominator.  The tests compare the exponent-map
route with it.  ``Poly`` carries the Fraction arithmetic that route
needs, and ``test_cyclotomic``'s reference reduction modulo Phi_n.
"""

from fractions import Fraction

from k3moonshine.qpoly import _horner


class Poly:
    """Polynomial in t with Fraction coefficients, ascending, without
    trailing zeros."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        c = [Fraction(x) for x in coeffs]
        while c and not c[-1]:
            c.pop()
        self.c = tuple(c)

    @property
    def degree(self) -> int:
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return not self.c

    def __getitem__(self, k: int) -> Fraction:
        return self.c[k] if 0 <= k < len(self.c) else Fraction(0)

    def __add__(self, other):
        return Poly([self[i] + other[i]
                     for i in range(max(len(self.c), len(other.c)))])

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly([x * other for x in self.c])
        out = [Fraction(0)] * (len(self.c) + len(other.c) - 1)
        for i, x in enumerate(self.c):
            for j, y in enumerate(other.c):
                out[i + j] += x * y
        return Poly(out)

    def divmod(self, other: "Poly"):
        rem = list(self.c)
        q = [Fraction(0)] * max(0, len(rem) - len(other.c) + 1)
        for shift in range(len(q) - 1, -1, -1):
            q[shift] = coeff = rem[shift + other.degree] / other.c[-1]
            for j, y in enumerate(other.c):
                rem[shift + j] -= coeff * y
        return Poly(q), Poly(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of two polynomials (zero if both are zero)."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a * (1 / a.c[-1])


class GcdRationalFunction:
    """Quotient of polynomials in t, reduced, with monic denominator."""

    def __init__(self, num, den=(1,)):
        """``num`` and ``den`` are Polys or ascending coefficient sequences."""
        num = num if isinstance(num, Poly) else Poly(num)
        den = den if isinstance(den, Poly) else Poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = poly_gcd(num, den)
        if not g.is_zero() and g.degree > 0:
            num = num // g
            den = den // g
        lead = den.c[-1]
        if lead != 1:
            num = num * (1 / lead)
            den = den * (1 / lead)
        self.num = num
        self.den = den

    def __add__(self, other):
        return GcdRationalFunction(self.num * other.den + other.num * self.den,
                                   self.den * other.den)

    def __mul__(self, other):
        return GcdRationalFunction(self.num * other, self.den)

    def expand(self, terms: int) -> list:
        d0 = self.den[0]
        out = []
        for k in range(terms):
            acc = self.num[k]
            for j in range(1, min(k, self.den.degree) + 1):
                acc -= self.den[j] * out[k - j]
            out.append(acc / d0)
        return out

    def pole_coefficient(self, at, order: int) -> Fraction:
        factor = Poly([1])
        for _ in range(order):
            factor = factor * Poly([-Fraction(at), 1])
        q, r = self.den.divmod(factor)
        if not r.is_zero():
            raise ValueError(f"(t - {at})^{order} does not divide denominator")
        if _horner(q.c, at) == 0:
            raise ValueError("pole order higher than requested")
        return _horner(self.num.c, at) / _horner(q.c, at)


def m_chi_by_gcd(table, forms: dict) -> dict:
    """m_chi(t) and its order-4 pole at t = 1 per orbit row, summed one
    class at a time through ``GcdRationalFunction``."""
    out = {}
    for ch in table.characters:
        acc = GcdRationalFunction(())
        for idx, c in enumerate(table.classes):
            w = Fraction(c.size) * ch.values[idx]
            r = forms[c.label]
            acc = acc + GcdRationalFunction(r.num, r.den) * (
                w / table.order / ch.orbit_size)
        out[ch.name] = (acc, acc.pole_coefficient(Fraction(1), 4))
    return out
