"""Truncated bivariate Laurent series with exact coefficients.

The grading is (q, y), y = e(z) for the Jacobi variable z, with
  * q-exponents in (1/24)*Z, stored as integer multiples of 1/24,
  * y-exponents in (1/2)*Z, stored as integer multiples of 1/2 (the
    doubled grading keeps theta_1/theta_2 half-powers integral).

Coefficients are exact and stored in one canonical form: a rational
coefficient is a Python ``int`` exactly when its denominator is 1 and a
``fractions.Fraction`` otherwise, and an irrational one is a
``CyclotomicNumber`` (whose coordinates follow the same rule).  The
constructor enforces the form in one pass over the values and raises
``TypeError`` on anything inexact, floats included.  So the kernels below
have one code path: Python's numeric tower runs them on ints for the
integral series the paper computes, and on Fractions or cyclotomic
numbers only where those occur.  Every division of coefficients goes
through ``qpoly.exact_quotient`` (``divide_scalar`` for a whole series),
which never returns a float, and ``substitute_y_sign`` raises
``ValueError`` on a half-integral y-power.  Exact division takes a
divisor whose lowest q-slice is one term c y^a (eta^3, theta3 and
phi_{-2,1}'s y^0 column, lead 2, are the divisors the library has) and
divides each quotient coefficient by c alone, so an integral divisor
with a non-unit lead keeps the remainders integral wherever the
quotient is.
Rationals embed into any cyclotomic field on demand.  Every series
carries a truncation order: all stored q-exponents are strictly below
it, and arithmetic propagates the guaranteed-valid truncation.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

from .cyclotomic import CyclotomicNumber
from .qpoly import canonical_rational, exact_quotient, require_int

__all__ = [
    "TruncatedSeries", "InsufficientPrecisionError", "NotInSpanError", "INF24",
]

# Sentinel truncation for exactly-known series (constants, monomials).
INF24 = 1 << 62


class InsufficientPrecisionError(ArithmeticError):
    """A coefficient or truncation beyond what a series determines."""


class NotInSpanError(ArithmeticError):
    """Exact division or decomposition failed; carries the first offender."""

    def __init__(self, message, q24=None):
        super().__init__(message)
        self.q24 = q24


class TruncatedSeries:
    """Exact coefficients up to a truncation order ``trunc24``.

    ``terms`` maps (q24, y2) to a nonzero coefficient.  It is a
    read-only view and neither attribute can be reassigned, so a series
    can be shared (memoized builders hand the same series to every caller)
    without aliasing bugs.  With ``_clean`` the caller hands over a dict of
    nonzero terms below ``trunc24`` that it built for this series and no
    longer touches; its values are brought to canonical form in place.
    ``trunc24``, and each key's parts without ``_clean``, must be ints.
    """

    __slots__ = ("terms", "trunc24")

    def __init__(self, terms: dict, trunc24: int, *, _clean: bool = False):
        require_int("trunc24", trunc24)
        if not _clean:
            kept = {}
            for (q24, y2), v in terms.items():
                if type(q24) is not int or type(y2) is not int:
                    raise TypeError(f"series key {q24, y2} is not two ints")
                if type(v) is not int and type(v) is not CyclotomicNumber:
                    v = canonical_rational(v, "coefficient")
                if q24 < trunc24 and v:
                    kept[q24, y2] = v
            terms = kept
        else:
            for k, v in terms.items():
                if type(v) is not int and type(v) is not CyclotomicNumber:
                    terms[k] = canonical_rational(v, "coefficient")
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
        return TruncatedSeries.monomial(value, 0, 0, trunc24)

    @staticmethod
    def monomial(value, q24: int = 0, y2: int = 0,
                 trunc24: int = INF24) -> "TruncatedSeries":
        require_int("q24", q24)
        require_int("y2", y2)
        if not value or q24 >= trunc24:
            return TruncatedSeries.zero(trunc24)
        return TruncatedSeries({(q24, y2): value}, trunc24, _clean=True)

    # -- inspection -----------------------------------------------------------

    @property
    def min_q24(self):
        """Leading q-exponent in 24th units, or None for the zero series."""
        return min((k[0] for k in self.terms), default=None)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, q, y=0):
        """Exact coefficient at q^q y^y (Fraction exponents allowed)."""
        return self.at(_to_units(q, 24, "q"), _to_units(y, 2, "y"))

    def at(self, q24: int, y2: int = 0):
        """Exact coefficient at the grid key (q24, y2), q^(q24/24) y^(y2/2);
        InsufficientPrecisionError at or past trunc24."""
        require_int("q24", q24)
        require_int("y2", y2)
        if q24 >= self.trunc24:
            raise InsufficientPrecisionError(
                f"coefficient at q24={q24} beyond truncation {self.trunc24}")
        return self.terms.get((q24, y2), 0)

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

    def divide_scalar(self, d) -> "TruncatedSeries":
        """Each coefficient divided by the nonzero scalar d through
        ``exact_quotient``: the one division of a series built on integer
        numerators over their common denominator d."""
        if d == 1:
            return self
        return TruncatedSeries(
            {k: exact_quotient(v, d) for k, v in self.terms.items()},
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
                for ya, ca in terms_a:
                    for yb, cb in terms_b:
                        key = (q, ya + yb)
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

    # -- inversion and exact division ------------------------------------------

    def invert(self) -> "TruncatedSeries":
        """1 / self by ``divide_exact``, with its errors: the zero series,
        an exactly known one (truncate it first) or a lowest q-slice of
        more than one term."""
        return TruncatedSeries.const(1).divide_exact(self)

    def divide_exact(self, divisor: "TruncatedSeries") -> "TruncatedSeries":
        """Long division by a series whose lowest q-slice is one term.

        With that lead c y^a, each quotient slice is the lowest
        remainder slice shifted by y^-a, each coefficient divided by
        c through ``exact_quotient``, and that quotient slice times each
        later divisor slice is subtracted from the later remainder slices.
        So an integral divisor with a non-unit lead, such as the y^0 column
        of phi_{-2,1} (lead 2) that ``genus.jacobi_split`` divides by,
        keeps the remainders integral wherever the quotient is.  A divisor
        whose lowest slice has more than one term raises NotInSpanError at
        that order; ``tests/division_oracle.py`` keeps the general slice
        recurrence.  A zero numerator divides to the zero series.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero series")
        (dmin, dlead), *dtail = _grouped(divisor)
        if len(dlead) != 1:
            raise NotInSpanError(
                "divisor's lowest q-slice is not one term", q24=dmin)
        (ly2, lead), = dlead
        nmin = self.min_q24 if not self.is_zero() else self.trunc24
        trunc = min(self.trunc24, divisor.trunc24 + nmin - dmin) - dmin
        if trunc >= INF24 // 2:
            raise ValueError("specify finite truncations before dividing")
        rem: dict = {}
        for (e, y2), c in self.terms.items():
            if e - dmin < trunc:
                rem.setdefault(e, {})[y2] = c
        out: dict = {}
        while rem:
            e = min(rem)
            qe = e - dmin
            quotient = {y2 - ly2: exact_quotient(c, lead)
                        for y2, c in rem.pop(e).items()}
            for y2, c in quotient.items():
                out[(qe, y2)] = c
            for d24, dslice in dtail:
                if qe + d24 - dmin >= trunc:
                    break
                target = rem.setdefault(qe + d24, {})
                for qy, qc in quotient.items():
                    for dy, dc in dslice:
                        key = qy + dy
                        acc = target.get(key, 0) - qc * dc
                        if acc:
                            target[key] = acc
                        else:
                            del target[key]
                if not target:
                    del rem[qe + d24]
        return TruncatedSeries(out, trunc, _clean=True)

    # -- substitutions ----------------------------------------------------------

    def substitute_q_shift(self, s24_per_y2: int, extra_q24: int = 0,
                           extra_y2: int = 0) -> "TruncatedSeries":
        """Map each term y^m q^e -> y^(m + extra/2) q^(e + s*m + extra_q).

        ``s24_per_y2`` is the q-shift (in 24th units) per unit of the
        doubled y-grading, so y -> y q^(1/2) is s24_per_y2=6 with
        extra_q24=6, extra_y2=2.  The guaranteed truncation of the result
        assumes that every term of the mathematical series obeys the linear
        envelope |y2| <= 4 + (q24 - min)/24 (in 24th units of q from the
        lowest stored order, or from trunc24 when no term is stored; this
        covers the index <= 2 theta series).  The bound steps up by one at
        each q24 = min + 24 k, so on the unknown tail q24 >= trunc24 the
        lowest shifted exponent lies at trunc24 or at the first step past
        it, and with |s24_per_y2| <= 24 it never falls after that; a larger
        shift has no guaranteed truncation and raises ValueError.
        """
        m0 = self.trunc24 if self.is_zero() else self.min_q24

        def y2_bound(q24):
            return 4 + max(0, q24 - m0) // 24

        if self.trunc24 < INF24:
            # stored terms must respect the envelope, otherwise the tail
            # extrapolation would be unsound
            for (q24, y2) in self.terms:
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
        # the map of keys is injective: no two terms land on one key
        for (q24, y2), c in self.terms.items():
            nq = q24 + s24_per_y2 * y2 + extra_q24
            if nq < trunc:
                out[nq, y2 + extra_y2] = c
        return TruncatedSeries(out, trunc, _clean=True)

    def spectral_flow(self, direction: int = 1) -> "TruncatedSeries":
        """NS <-> Ramond flow: ch(y;q) -> q^(1/4) y^(dir) ch(y q^(dir/2); q)."""
        if require_int("direction", direction) not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        return self.substitute_q_shift(6 * direction, 6, 2 * direction)

    def substitute_y_sign(self) -> "TruncatedSeries":
        """Substitute y -> -y (integral y-exponents only)."""
        out = {}
        for (q24, y2), c in self.terms.items():
            if y2 % 2:
                raise ValueError("cannot flip sign of half-integral y-power")
            out[(q24, y2)] = -c if (y2 // 2) % 2 else c
        return TruncatedSeries(out, self.trunc24, _clean=True)

    def y_coefficient(self, y2: int) -> "TruncatedSeries":
        """The coefficient of y^(y2/2), a series in q."""
        require_int("y2", y2)
        return TruncatedSeries(
            {(q24, 0): c for (q24, yy), c in self.terms.items() if yy == y2},
            self.trunc24, _clean=True)

    # -- predicates & conversions -------------------------------------------------

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
        return ({k: v for k, v in self.terms.items() if k[0] < t}
                == {k: v for k, v in other.terms.items() if k[0] < t})

    __hash__ = None

    def __repr__(self):
        if self.is_zero():
            return f"O(q^{Fraction(self.trunc24, 24)})" if self.trunc24 < INF24 else "0"
        parts = []
        for (q24, y2) in sorted(self.terms)[:8]:
            c = self.terms[(q24, y2)]
            mon = []
            if q24:
                mon.append(f"q^{Fraction(q24, 24)}")
            if y2:
                mon.append(f"y^{Fraction(y2, 2)}")
            parts.append(f"{c}" + ("*" + "*".join(mon) if mon else ""))
        more = "" if len(self.terms) <= 8 else f" + ... ({len(self.terms)} terms)"
        tail = f" + O(q^{Fraction(self.trunc24, 24)})" if self.trunc24 < INF24 else ""
        return " + ".join(parts) + more + tail


def _to_units(x, scale: int, name: str) -> int:
    """The exact rational exponent x in units of 1/scale; TypeError on a
    float, a bool or any other inexact value, as the constructor raises."""
    if type(x) is int:
        return x * scale
    f = Fraction(canonical_rational(x, name)) * scale
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
    for (q24, y2), c in s.terms.items():
        groups.setdefault(q24, []).append((y2, c))
    return sorted(groups.items())

