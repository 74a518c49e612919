"""Reference rational functions reduced by a polynomial gcd over Q.

The route ``qpoly.RationalFunction`` used before it stored cyclotomic
exponent maps: every construction runs Euclid on Fraction ``Poly``
coefficients and divides numerator and denominator by the monic gcd.  It
accepts any nonzero denominator.  The tests compare the exponent-map
route with it.
"""

from fractions import Fraction

from k3moonshine.qpoly import Poly, _horner


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of two polynomials (zero if both are zero)."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a * (1 / a.c[-1])


class GcdRationalFunction:
    """Quotient of polynomials in t, reduced, with monic denominator."""

    def __init__(self, num, den=Poly.const(1)):
        num = num if isinstance(num, Poly) else Poly.const(num)
        den = den if isinstance(den, Poly) else Poly.const(den)
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

    def __neg__(self):
        return GcdRationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

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
        factor = Poly.const(1)
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
        acc = GcdRationalFunction(Poly([0]))
        for idx, c in enumerate(table.classes):
            w = Fraction(c.size) * ch.values[idx]
            r = forms[c.label]
            acc = acc + GcdRationalFunction(r.num, r.den) * (
                w / table.order / ch.orbit_size)
        out[ch.name] = (acc, acc.pole_coefficient(Fraction(1), 4))
    return out
