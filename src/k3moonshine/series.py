"""Truncated multigraded Laurent series with exact coefficients.

The grading is (q, y, z) with
  * q-exponents in (1/24)*Z, stored as integer multiples of 1/24,
  * y-exponents in (1/2)*Z, stored as integer multiples of 1/2 (the
    doubled grading keeps theta_1/theta_2 half-powers integral),
  * z-exponents in Z.

Coefficients are exact and stored in one canonical form: a rational
coefficient is a Python ``int`` exactly when its denominator is 1 and a
``fractions.Fraction`` otherwise, and an irrational one is a
``CyclotomicNumber`` (whose coordinates follow the same rule).  The
constructor enforces the form in one pass over the values and raises
``TypeError`` on anything inexact, floats included.  So the kernels below
have one code path: Python's numeric tower runs them on ints for the
integral series the paper computes, and on Fractions or cyclotomic
numbers only where those occur.  Every division of coefficients goes
through ``exact_quotient``, which never returns a float.  Exact division
runs its slice recurrence on a monic divisor (a lead c other than +-1 is
divided out of the divisor and applied once to the quotient), so an
integral divisor with a non-unit lead keeps the remainders integral.
Rationals embed into any cyclotomic field on demand.  Every series
carries a truncation order: all stored q-exponents are strictly below
it, and arithmetic propagates the guaranteed-valid truncation.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from types import MappingProxyType

from .cyclotomic import (
    CyclotomicNumber, DomainError, canonical_rational, exact_quotient,
)

__all__ = [
    "TruncatedSeries",
    "InsufficientPrecisionError",
    "NotInSpanError",
    "INF24",
    "exact_quotient",
]

# Sentinel truncation for exactly-known series (constants, monomials).
INF24 = 1 << 62


class InsufficientPrecisionError(ArithmeticError):
    """A substitution cannot guarantee the requested truncation order."""


class NotInSpanError(ArithmeticError):
    """Exact division or decomposition failed; carries the first offender."""

    def __init__(self, message, q24=None):
        super().__init__(message)
        self.q24 = q24


class TruncatedSeries:
    """Exact coefficients up to a truncation order ``trunc24``.

    ``terms`` maps (q24, y2, z) to a nonzero coefficient.  It is a
    read-only view and neither attribute can be reassigned, so a series
    can be shared (memoized builders hand the same series to every caller)
    without aliasing bugs.  With ``_clean`` the caller hands over a dict of
    nonzero terms below ``trunc24`` that it built for this series and no
    longer touches; its values are brought to canonical form in place.
    """

    __slots__ = ("terms", "trunc24")

    def __init__(self, terms: dict, trunc24: int, *, _clean: bool = False):
        if not _clean:
            terms = {k: v for k, v in terms.items() if k[0] < trunc24 and v}
        for k, v in terms.items():
            if type(v) is not int:
                terms[k] = _canonical(v)
        object.__setattr__(self, "terms", MappingProxyType(terms))
        object.__setattr__(self, "trunc24", trunc24)

    def __setattr__(self, name, value):
        raise AttributeError(f"TruncatedSeries is read-only: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"TruncatedSeries is read-only: cannot delete {name}")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(trunc24: int = INF24) -> "TruncatedSeries":
        return TruncatedSeries({}, trunc24, _clean=True)

    @staticmethod
    def const(value, trunc24: int = INF24) -> "TruncatedSeries":
        return TruncatedSeries.monomial(value, 0, 0, 0, trunc24)

    @staticmethod
    def monomial(value, q24: int = 0, y2: int = 0, z: int = 0,
                 trunc24: int = INF24) -> "TruncatedSeries":
        if not value or q24 >= trunc24:
            return TruncatedSeries.zero(trunc24)
        return TruncatedSeries({(q24, y2, z): value}, trunc24, _clean=True)

    # -- inspection -----------------------------------------------------------

    @property
    def min_q24(self):
        """Leading q-exponent in 24th units, or None for the zero series."""
        return min((k[0] for k in self.terms), default=None)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, q, y=0, z=0):
        """Exact coefficient at q^q y^y z^z (Fraction exponents allowed)."""
        q24 = _to_units(q, 24, "q")
        y2 = _to_units(y, 2, "y")
        if q24 >= self.trunc24:
            raise InsufficientPrecisionError(
                f"coefficient at q24={q24} beyond truncation {self.trunc24}")
        return self.terms.get((q24, y2, z), 0)

    def q_slice(self, q24: int) -> dict:
        """All (y2, z) -> coeff at the given q-exponent (in 24th units)."""
        if q24 >= self.trunc24:
            raise InsufficientPrecisionError(
                f"slice at q24={q24} beyond truncation {self.trunc24}")
        return {(y2, z): c for (e, y2, z), c in self.terms.items() if e == q24}

    def q_support(self) -> list[int]:
        return sorted({k[0] for k in self.terms})

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            other = TruncatedSeries.const(other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        trunc = min(self.trunc24, other.trunc24)
        out = {k: v for k, v in self.terms.items() if k[0] < trunc}
        for k, v in other.terms.items():
            if k[0] >= trunc:
                continue
            if k in out:
                s = out[k] + v
                if not s:
                    del out[k]
                else:
                    out[k] = s
            else:
                out[k] = v
        return TruncatedSeries(out, trunc, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries({k: -v for k, v in self.terms.items()},
                               self.trunc24, _clean=True)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            other = TruncatedSeries.const(other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, value) -> "TruncatedSeries":
        if not value:
            return TruncatedSeries.zero(self.trunc24)
        return TruncatedSeries({k: v * value for k, v in self.terms.items()},
                               self.trunc24, _clean=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return self.scale(other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        trunc = _mul_trunc(self, other)
        if self.is_zero() or other.is_zero():
            return TruncatedSeries.zero(trunc)
        a = _grouped(self)
        b = _grouped(other)
        out: dict = {}
        for qa, terms_a in a:
            if qa + b[0][0] >= trunc:
                break
            for qb, terms_b in b:
                q = qa + qb
                if q >= trunc:
                    break
                for (ya, za), ca in terms_a:
                    for (yb, zb), cb in terms_b:
                        key = (q, ya + yb, za + zb)
                        prod = ca * cb
                        if key in out:
                            s = out[key] + prod
                            if not s:
                                del out[key]
                            else:
                                out[key] = s
                        elif prod:
                            out[key] = prod
        return TruncatedSeries(out, trunc, _clean=True)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TruncatedSeries":
        if n < 0:
            return self.invert() ** (-n)
        out = TruncatedSeries.const(1, self.trunc24 if n == 0 else INF24)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- inversion and exact division ------------------------------------------

    def invert(self, trunc24=None) -> "TruncatedSeries":
        """Inverse of a series whose leading q-slice is a single monomial.

        ``trunc24`` requests a truncation order for the result (required
        when inverting an exactly-known series).
        """
        if self.is_zero():
            raise ZeroDivisionError("cannot invert the zero series")
        m = self.min_q24
        if trunc24 is not None:
            return self.truncate(min(self.trunc24, trunc24 + 2 * m)).invert()
        if self.trunc24 >= INF24:
            raise ValueError("specify trunc24 when inverting an exact series")
        if len(self.q_slice(m)) != 1:
            raise NotInSpanError(
                "leading q-slice is not a monomial; use divide_exact", q24=m)
        return TruncatedSeries.const(1).divide_exact(self)

    def divide_exact(self, divisor: "TruncatedSeries") -> "TruncatedSeries":
        """Long division by a series whose leading q-slice has one z-power.

        The quotient is built slice by slice: the lowest remainder slice
        is divided by the divisor's leading slice, and that quotient slice
        times each later divisor slice is subtracted from the later
        remainder slices.  The recurrence runs on a monic divisor: when
        the lead c (the top-y coefficient of the leading slice) is not
        +-1, the series is divided by divisor * c^-1 and the quotient is
        scaled once by c^-1.  So an integral divisor with a non-unit lead,
        such as theta_1(u)^2 over Q(zeta_n) or theta_2(0)^2, keeps the
        remainders integral instead of running them in Fractions.
        Requires the division to be exact slice by slice; raises
        NotInSpanError (with the offending q-order) otherwise.  A zero
        numerator divides to the zero series.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero series")
        (dmin, dlead), *dtail = _grouped(divisor)
        if len({z for (_, z), _ in dlead}) != 1:
            raise NotInSpanError(
                "divisor leading slice must have a single z-power", q24=dmin)
        inv = None
        lead = max(dlead, key=lambda term: term[0])[1]
        if lead != 1 and lead != -1:
            inv = exact_quotient(1, lead)
            (dmin, dlead), *dtail = _grouped(divisor.scale(inv))
        nmin = self.min_q24 if not self.is_zero() else self.trunc24
        trunc = min(self.trunc24, divisor.trunc24 + nmin - dmin) - dmin
        if trunc >= INF24 // 2:
            raise ValueError("specify finite truncations before dividing")
        rem: dict = {}
        for (e, y2, z), c in self.terms.items():
            if e - dmin < trunc:
                rem.setdefault(e, {})[(y2, z)] = c
        out: dict = {}
        while rem:
            e = min(rem)
            quotient = _laurent_divide(rem.pop(e), dlead, e)
            qe = e - dmin
            for (y2, z), c in quotient.items():
                out[(qe, y2, z)] = c
            for d24, dslice in dtail:
                if qe + d24 - dmin >= trunc:
                    break
                target = rem.setdefault(qe + d24, {})
                for (qy, qz), qc in quotient.items():
                    for (dy, dz), dc in dslice:
                        key = (qy + dy, qz + dz)
                        acc = target.get(key, 0) - qc * dc
                        if acc:
                            target[key] = acc
                        else:
                            del target[key]
                if not target:
                    del rem[qe + d24]
        if inv is not None:
            for key, c in out.items():
                out[key] = c * inv
        return TruncatedSeries(out, trunc, _clean=True)

    # -- substitutions ----------------------------------------------------------

    def substitute_q_shift(self, s24_per_y2: int, extra_q24: int = 0,
                           extra_y2: int = 0, *,
                           min_trunc24=None) -> "TruncatedSeries":
        """Map each term y^m q^e -> y^(m + extra/2) q^(e + s*m + extra_q).

        ``s24_per_y2`` is the q-shift (in 24th units) per unit of the
        doubled y-grading, so y -> y q^(1/2) is s24_per_y2=6 with
        extra_q24=6, extra_y2=2.  The guaranteed truncation of the result
        assumes that every term of the mathematical series obeys the linear
        envelope |y2| <= 4 + (q24 - min)/24 (in 24th units of q from the
        lowest stored order; this covers the index <= 2 theta series).  The
        bound steps up by one at each q24 = min + 24 k, so on the unknown
        tail q24 >= trunc24 the lowest shifted exponent lies at trunc24 or
        at the first step past it, and with |s24_per_y2| <= 24 it never
        falls after that; a larger shift has no guaranteed truncation and
        raises ValueError.
        """
        if self.is_zero():
            return TruncatedSeries.zero(
                self.trunc24 if self.trunc24 >= INF24 else self.trunc24 + extra_q24)
        m0 = self.min_q24

        def y2_bound(q24):
            return 4 + max(0, q24 - m0) // 24

        if self.trunc24 < INF24:
            # stored terms must respect the envelope, otherwise the tail
            # extrapolation would be unsound
            for (q24, y2, z) in self.terms:
                if abs(y2) > y2_bound(q24):
                    raise InsufficientPrecisionError(
                        f"term (q24={q24}, y2={y2}) violates the y-envelope")
        out: dict = {}
        if self.trunc24 >= INF24:
            trunc = INF24
        else:
            if abs(s24_per_y2) > 24:
                raise ValueError("a q-shift above 24 per unit of y2 leaves "
                                 "no guaranteed truncation")
            lo = self.trunc24
            step = lo + (m0 - lo) % 24
            trunc = min(q24 - abs(s24_per_y2) * y2_bound(q24) + extra_q24
                        for q24 in (lo, step))
        if min_trunc24 is not None and trunc < min_trunc24:
            raise InsufficientPrecisionError(
                f"guaranteed truncation {trunc} below requested {min_trunc24}")
        for (q24, y2, z), c in self.terms.items():
            nq = q24 + s24_per_y2 * y2 + extra_q24
            if nq >= trunc:
                continue
            key = (nq, y2 + extra_y2, z)
            if key in out:
                s = out[key] + c
                if not s:
                    del out[key]
                else:
                    out[key] = s
            else:
                out[key] = c
        return TruncatedSeries(out, trunc, _clean=True)

    def spectral_flow(self, direction: int = 1, *,
                      min_trunc24=None) -> "TruncatedSeries":
        """NS <-> Ramond flow: ch(y;q) -> q^(1/4) y^(dir) ch(y q^(dir/2); q)."""
        if direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        return self.substitute_q_shift(6 * direction, 6, 2 * direction,
                                       min_trunc24=min_trunc24)

    def substitute_y_value(self, value) -> "TruncatedSeries":
        """Specialize y to an exact scalar; y-exponents must be integral."""
        out: dict = {}
        for (q24, y2, z), c in self.terms.items():
            if y2 % 2:
                raise DomainError("cannot specialize half-integral y-power")
            m = y2 // 2
            factor = value ** m if m >= 0 else exact_quotient(1, value ** -m)
            key = (q24, 0, z)
            acc = out.get(key, 0) + c * factor
            if not acc:
                out.pop(key, None)
            else:
                out[key] = acc
        return TruncatedSeries(out, self.trunc24, _clean=True)

    def twist_y(self, root: CyclotomicNumber) -> "TruncatedSeries":
        """Substitute y -> root * y for a root of unity (integral y only)."""
        out: dict = {}
        for (q24, y2, z), c in self.terms.items():
            if y2 % 2:
                raise DomainError("cannot twist half-integral y-power")
            m = y2 // 2
            factor = root ** m if m >= 0 else root.inverse() ** (-m)
            nc = c * factor
            if nc:
                out[(q24, y2, z)] = nc
        return TruncatedSeries(out, self.trunc24, _clean=True)

    def substitute_y_sign(self) -> "TruncatedSeries":
        """Substitute y -> -y (integral y-exponents only)."""
        out = {}
        for (q24, y2, z), c in self.terms.items():
            if y2 % 2:
                raise DomainError("cannot flip sign of half-integral y-power")
            out[(q24, y2, z)] = -c if (y2 // 2) % 2 else c
        return TruncatedSeries(out, self.trunc24, _clean=True)

    def substitute_z_value(self, value) -> "TruncatedSeries":
        out: dict = {}
        for (q24, y2, z), c in self.terms.items():
            factor = value ** z if z >= 0 else exact_quotient(1, value ** -z)
            key = (q24, y2, 0)
            acc = out.get(key, 0) + c * factor
            if not acc:
                out.pop(key, None)
            else:
                out[key] = acc
        return TruncatedSeries(out, self.trunc24, _clean=True)

    def z_coefficient(self, z: int) -> "TruncatedSeries":
        return TruncatedSeries(
            {(q24, y2, 0): c for (q24, y2, zz), c in self.terms.items() if zz == z},
            self.trunc24, _clean=True)

    def y_mirror(self) -> "TruncatedSeries":
        """Substitute y -> 1/y."""
        return TruncatedSeries(
            {(q24, -y2, z): c for (q24, y2, z), c in self.terms.items()},
            self.trunc24, _clean=True)

    # -- predicates & conversions -------------------------------------------------

    def is_y_symmetric(self) -> bool:
        return self == self.y_mirror()

    def is_y_free(self) -> bool:
        return all(y2 == 0 for (_, y2, _) in self.terms)

    def is_z_free(self) -> bool:
        return all(z == 0 for (_, _, z) in self.terms)

    def as_rational(self) -> "TruncatedSeries":
        """Force all coefficients to rationals; error on irrational values."""
        out = {}
        for k, c in self.terms.items():
            if isinstance(c, CyclotomicNumber):
                out[k] = c.rational_value()
            else:
                out[k] = c
        return TruncatedSeries(out, self.trunc24, _clean=True)

    def truncate(self, trunc24: int) -> "TruncatedSeries":
        if trunc24 > self.trunc24:
            raise InsufficientPrecisionError(
                f"cannot extend truncation {self.trunc24} to {trunc24}")
        return TruncatedSeries(self.terms, trunc24)

    def __eq__(self, other):
        """Equality of all coefficients up to the minimum truncation."""
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            other = TruncatedSeries.const(other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        t = min(self.trunc24, other.trunc24)
        a = {k: v for k, v in self.terms.items() if k[0] < t}
        b = {k: v for k, v in other.terms.items() if k[0] < t}
        if set(a) != set(b):
            return False
        return not any(a[k] - b[k] for k in a)

    __hash__ = None

    def __repr__(self):
        if self.is_zero():
            return f"O(q^{Fraction(self.trunc24, 24)})" if self.trunc24 < INF24 else "0"
        parts = []
        for (q24, y2, z) in sorted(self.terms)[:8]:
            c = self.terms[(q24, y2, z)]
            mon = []
            if q24:
                mon.append(f"q^{Fraction(q24, 24)}")
            if y2:
                mon.append(f"y^{Fraction(y2, 2)}")
            if z:
                mon.append(f"z^{z}")
            parts.append(f"{c}" + ("*" + "*".join(mon) if mon else ""))
        more = "" if len(self.terms) <= 8 else f" + ... ({len(self.terms)} terms)"
        tail = f" + O(q^{Fraction(self.trunc24, 24)})" if self.trunc24 < INF24 else ""
        return " + ".join(parts) + more + tail


def _canonical(v):
    """A coefficient in canonical form (see the module docstring)."""
    if type(v) is CyclotomicNumber:
        return v
    return canonical_rational(v)


def _to_units(x, scale: int, name: str) -> int:
    f = Fraction(x) * scale
    if f.denominator != 1:
        raise ValueError(f"{name}-exponent {x} not in (1/{scale})Z")
    return f.numerator


def _mul_trunc(a: TruncatedSeries, b: TruncatedSeries) -> int:
    bounds = []
    if b.terms:
        bounds.append(a.trunc24 + b.min_q24)
    if a.terms:
        bounds.append(b.trunc24 + a.min_q24)
    if not bounds:
        bounds.append(a.trunc24 + b.trunc24)
    return min(min(bounds), INF24)


def _grouped(s: TruncatedSeries):
    groups: dict = {}
    for (q24, y2, z), c in s.terms.items():
        groups.setdefault(q24, []).append(((y2, z), c))
    return sorted(groups.items())


def _laurent_divide(numer: dict, denom: list, q24: int) -> dict:
    """Exact division of Laurent polys keyed (y2, z); all denom z agree.

    The denominator's top-y coefficient is +-1 (``divide_exact`` makes the
    divisor monic), so each quotient coefficient is a remainder
    coefficient or its negative, with no division.
    """
    out: dict = {}
    dy = {y2: c for (y2, _), c in denom}
    dz = denom[0][0][1]
    dmin = min(dy)
    dmax = max(dy)
    negate = dy[dmax] != 1
    # split the numerator by z-stratum; the denominator is one z-power
    strata: dict = {}
    for (y2, z), c in numer.items():
        strata.setdefault(z, {})[y2] = c
    for z, work in strata.items():
        while work:
            top = max(work)
            low = min(work)
            if top - dmax < low - dmin:
                raise NotInSpanError(
                    f"q-slice at q24={q24} not divisible by leading slice",
                    q24=q24)
            shift = top - dmax
            coeff = -work[top] if negate else work[top]
            out[(shift, z - dz)] = coeff
            for y2, d in dy.items():
                key = y2 + shift
                acc = work.get(key, 0) - coeff * d
                if not acc:
                    work.pop(key, None)
                else:
                    work[key] = acc
    return out


def geometric_factor(coeff, q24: int, y2: int, z: int, trunc24: int,
                     power: int = 1) -> TruncatedSeries:
    """(1 - coeff * q^(q24/24) y^(y2/2) z^z)^(-power) expanded to trunc24.

    Requires q24 > 0 so the expansion truncates.
    """
    if q24 <= 0:
        raise ValueError("geometric expansion needs a positive q-exponent")
    if trunc24 >= INF24:
        raise ValueError("geometric expansion needs a finite truncation")
    terms: dict = {(0, 0, 0): 1}
    k = 1
    c_pow = coeff
    # multiplicity of the k-th power for (1-x)^-power is C(k+power-1, power-1)
    while k * q24 < trunc24:
        val = c_pow * comb(k + power - 1, power - 1)
        if val:
            terms[(k * q24, k * y2, k * z)] = val
        k += 1
        c_pow = c_pow * coeff
    return TruncatedSeries(terms, trunc24, _clean=True)


def binomial_factor(coeff, q24: int, y2: int, z: int,
                    trunc24: int = INF24) -> TruncatedSeries:
    """(1 + coeff * q^(q24/24) y^(y2/2) z^z) as an exact series."""
    terms = {(0, 0, 0): 1}
    if coeff and q24 < trunc24:
        terms[(q24, y2, z)] = coeff
    return TruncatedSeries(terms, trunc24, _clean=True)


def prune_z_window(s: TruncatedSeries, z_lo: int, z_hi: int) -> TruncatedSeries:
    return TruncatedSeries(
        {k: v for k, v in s.terms.items() if z_lo <= k[2] <= z_hi},
        s.trunc24, _clean=True)
