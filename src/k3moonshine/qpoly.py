"""Rational functions in t with cyclotomic denominators.

Used for the symmetric-power generating series chi(X, S_t T), the
per-class rational forms r_g(t) and the multiplicity functions m_chi(t).
The exact scalar rules are defined here alone, and every layer imports
them from here: ``canonical_rational`` (an int exactly when integral),
``exact_quotient`` (a / b in that form, never a float),
``_over_common_denominator`` (rationals as ints over one denominator),
``require_int`` (an int, not a bool), ``euler_phi`` and ``moebius``;
``memoized`` is the package's one cache, on arguments read by
``require_int``.

Every r_g(t) is a Molien-type series whose denominator is a product of
cyclotomic polynomials, and ``RationalFunction`` supports only such
denominators.  It stores c * N(t) / prod_d Phi_d(t)^e_d as three fields:
one rational content c, a primitive integer numerator N with positive
leading coefficient, and the exponent map {d: e_d}.  A form is a value:
it is built, compared, expanded, read at a pole and scaled by a rational,
and ``linear_combinations`` alone sums forms.  Distinct Phi_d are
coprime, so no gcd is ever needed: a sum lifts the numerators to the
exponent-wise maximum of their maps with int x int products, and every
result is reduced by exact trial division of N by each Phi_d in its map.
The form is canonical, so ``==`` compares fields, and the pole order at
t = 1 is the exponent of Phi_1; a constant equals its scalar and hashes
as it.  ``num`` (canonical rationals) and ``den`` (monic integers) read
it back as the ascending coefficient tuples of a reduced quotient.  The
loops run on ints over one denominator: ``expand`` on the integer
numerator, multiplying the content in once (ints when it is integral),
``linear_combinations`` on the numerators scaled by the contents over
their common denominator, and ``reconstruct_rational`` on the integer
coefficients of a cyclotomic denominator.

The constructor takes the denominator only as its exponent map, so
every denominator is a cyclotomic product by construction and none is
ever factored.  Phi_d comes from ``_cyclotomic_coeffs``, built by exact
integer division and cached per process, and only for the d a
denominator contains.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import lru_cache, wraps
from math import gcd, lcm
from numbers import Number, Rational

__all__ = ["RationalFunction", "euler_phi", "linear_combinations"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def euler_phi(n: int) -> int:
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            result *= p - 1
            m //= p
            while m % p == 0:
                result *= p
                m //= p
        p += 1
    if m > 1:
        result *= m - 1
    return result


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


def canonical_rational(x, name: str = ""):
    """The exact rational ``x`` as an ``int`` when integral, else a Fraction.

    Raises TypeError, naming the argument ``name`` if given, for anything
    that is not an exact rational, floats and bools included, so an
    inexact value fails loudly instead of rounding and a flag is not
    read as 0 or 1.
    """
    if type(x) is int:
        return x
    if type(x) is Fraction:
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, Rational) and type(x) is not bool:
        return canonical_rational(Fraction(x))
    raise TypeError(f"exact rational expected{name and ' for ' + name}, "
                    f"got {type(x).__name__} {x!r}")


def require_int(name: str, value, least=None) -> int:
    """``value`` if it is an ``int`` (not a ``bool``) and not below
    ``least``; else TypeError, or ValueError, naming the argument."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def memoized(fn, context=None):
    """``lru_cache(maxsize=None)`` over ``fn``, keyed on ``context()`` as
    well when one is given, that reads each argument but a ``str`` through
    ``require_int`` before it asks the cache: an equal float or bool hashes
    as the int, and the cache would serve it the int's entry.  Keeps
    ``cache_info``, ``cache_clear`` and ``__wrapped__``."""
    names = fn.__code__.co_varnames[:fn.__code__.co_argcount]
    cached = lru_cache(maxsize=None)(
        fn if context is None else lambda key, *args: fn(*args))

    @wraps(fn)
    def wrapper(*args):
        for name, value in zip(names, args):
            if type(value) is not str:
                require_int(name, value)
        return cached(*args) if context is None else cached(context(), *args)

    wrapper.cache_info = cached.cache_info
    wrapper.cache_clear = cached.cache_clear
    return wrapper


def _int_mul(a, b) -> list[int]:
    """Product of two integer coefficient lists (ascending)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _int_divexact(a, b):
    """Quotient a / b of integer coefficient lists, or None if b does not
    divide a.  ``b`` must be monic, so every quotient is integral."""
    db = len(b) - 1
    rem = list(a)
    n = len(rem) - db
    if n <= 0:
        return None if any(rem) else []
    q = [0] * n
    lower = [(j, y) for j, y in enumerate(b[:-1]) if y]
    for shift in range(n - 1, -1, -1):
        c = rem[shift + db]
        if c:
            q[shift] = c
            for j, y in lower:
                rem[shift + j] -= c * y
    return None if any(rem[:db]) else q


def _horner(coeffs, x):
    """The polynomial with ascending ``coeffs`` at x, exactly."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@memoized
def _cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of Phi_n, cached per process.

    Phi_n = (t^n - 1) / prod_{d | n, d < n} Phi_d, by exact division.
    """
    p = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            p = _int_divexact(p, _cyclotomic_coeffs(d))
    return tuple(p)


def _product_coeffs(exps) -> list[int]:
    """Integer coefficients of prod Phi_d^e over the (d, e) pairs."""
    out = [1]
    for d, e in exps:
        for _ in range(e):
            out = _int_mul(out, _cyclotomic_coeffs(d))
    return out


def exact_quotient(a, b):
    """a / b exactly, never a float: an int or a Fraction for two ints, a
    numeric quotient through ``canonical_rational`` and any other one (in
    the tests' cyclotomic field) as it is."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return canonical_rational(q) if isinstance(q, Number) else q


def _over_common_denominator(coords) -> tuple[list, int]:
    """(numerators, d): the rational coordinates as ints over their least
    common denominator d (the coordinates themselves when all are ints)."""
    d, ints = 1, True
    for x in coords:
        if type(x) is not int:
            d, ints = lcm(d, x.denominator), False
    if ints:
        return coords, 1
    return [x * d if type(x) is int else x.numerator * (d // x.denominator)
            for x in coords], d


def _primitive(coeffs) -> tuple[Fraction, list[int]]:
    """Split int or Fraction coefficients as content * a primitive integer
    list with positive leading coefficient; zero gives (0, [])."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if not coeffs:
        return _ZERO, []
    ints, scale = _over_common_denominator(coeffs)
    g = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
    return Fraction(g, scale), [x // g for x in ints]


def _phi_divides(coeffs, d: int) -> bool:
    """Whether Phi_d divides the integer polynomial ``coeffs``.  Phi_d
    divides t^d - 1, so it divides ``coeffs`` exactly when it divides the
    remainder mod t^d - 1, the fold of the exponents modulo d, which has
    degree below d however long ``coeffs`` is."""
    fold = [sum(coeffs[r::d]) for r in range(d)]
    return _int_divexact(fold, _cyclotomic_coeffs(d)) is not None


def _canonical(content, coeffs, exps) -> tuple:
    """Lowest terms of content * coeffs(t) / prod Phi_d^e.

    ``coeffs`` are rationals and ``exps`` maps d to e.  Returns the
    content, the primitive integer numerator with positive leading
    coefficient, and the sorted (d, e) pairs left after exact trial
    division by each Phi_d; distinct Phi_d are coprime, so no gcd is needed.
    Each division runs only where ``_phi_divides`` finds that it is exact.
    """
    scale, coeffs = _primitive(coeffs)
    if not scale or not content:
        return _ZERO, (), ()
    kept = []
    for d in sorted(exps):
        e = exps[d]
        while e and _phi_divides(coeffs, d):
            coeffs, e = _int_divexact(coeffs, _cyclotomic_coeffs(d)), e - 1
        if e:
            kept.append((d, e))
    return content * scale, tuple(coeffs), tuple(kept)


def _scaled(content, ints) -> list:
    """content * x for each int x, canonical: ints when the content is
    integral, one product each otherwise."""
    if content.denominator == 1:
        return [content.numerator * x for x in ints]
    return [canonical_rational(content * x) for x in ints]


class RationalFunction:
    """c * N(t) / prod_d Phi_d(t)^e_d in lowest terms (see the module
    docstring); ``num`` and ``den`` read it as a reduced quotient with
    monic denominator, each an ascending coefficient tuple.  Read-only, as
    ``TruncatedSeries`` is, so one instance can be shared
    (``genus.rational_form`` memoizes its result)."""

    __slots__ = ("_c", "_n", "_e")

    def __init__(self, num, den=None):
        """``num`` is a rational or an ascending sequence of rationals,
        ``den`` the exponent map {d: e} of the denominator prod Phi_d^e
        (None for 1).  Every coefficient goes through
        ``canonical_rational``, so a float raises TypeError, as does a d or
        an e that is not an int."""
        exps = {} if den is None else den
        if not isinstance(exps, Mapping):
            raise ValueError(f"bad cyclotomic exponent map {den!r}")
        for d, e in exps.items():
            if type(d) is not int or type(e) is not int:
                raise TypeError(f"exponent map entry {d!r}: {e!r} is not "
                                "a pair of ints")
            if d < 1 or e < 0:
                raise ValueError(f"bad cyclotomic exponent map {den!r}")
        coeffs = num if isinstance(num, Sequence) else (num,)
        self._set(*_canonical(
            _ONE, [canonical_rational(c) for c in coeffs], exps))

    @classmethod
    def _of(cls, content, numerator, exps) -> "RationalFunction":
        """From canonical fields, without checks."""
        self = object.__new__(cls)
        self._set(content, numerator, exps)
        return self

    def _set(self, content, numerator: tuple, exps: tuple) -> None:
        object.__setattr__(self, "_c", content)
        object.__setattr__(self, "_n", numerator)
        object.__setattr__(self, "_e", exps)

    def __setattr__(self, name, value):
        raise AttributeError(f"RationalFunction is read-only: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(
            f"RationalFunction is read-only: cannot delete {name}")

    @property
    def num(self) -> tuple:
        return tuple(_scaled(self._c, self._n))

    @property
    def den(self) -> tuple[int, ...]:
        return tuple(_product_coeffs(self._e))

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return (self._c, self._n, self._e) == (other._c, other._n, other._e)
        if isinstance(other, (int, Fraction)):
            return self == RationalFunction(other)
        return NotImplemented

    def __hash__(self):
        # a constant (numerator () or (1,), no denominator) equals its
        # scalar, the content, so it hashes as the scalar
        if not self._e and len(self._n) < 2:
            return hash(self._c)
        return hash((self._c, self._n, self._e))

    def __mul__(self, other):
        other = canonical_rational(other)
        if not other:
            return RationalFunction(0)
        return RationalFunction._of(self._c * other, self._n, self._e)

    __rmul__ = __mul__

    def expand(self, terms: int) -> list:
        """Power-series coefficients at t=0, length ``terms``, canonical:
        the recurrence runs on the integer numerator, and the content
        multiplies each coefficient once (ints when it is integral)."""
        den = _product_coeffs(self._e)
        d0 = den[0]  # +-1: Phi_1(0) = -1 and Phi_d(0) = 1 for d > 1
        num = self._n
        out = []
        for k in range(require_int("terms", terms, 0)):
            acc = num[k] if k < len(num) else 0
            for j in range(1, min(k, len(den) - 1) + 1):
                acc -= den[j] * out[k - j]
            out.append(acc * d0)
        return _scaled(self._c, out)

    def pole_coefficient(self, at: Fraction, order: int) -> Fraction:
        """Coefficient of 1/(t-at)^order in the partial-fraction expansion.

        Requires (t-at)^order to divide the denominator exactly and the
        remaining denominator to be nonzero at the point.  The only
        rational roots of a cyclotomic product are t = 1 (Phi_1) and
        t = -1 (Phi_2), so the order is read off the exponent map.  The
        integer polynomials are evaluated by Horner's rule, on ints when
        ``at`` is an integer.  ``at`` is read by ``canonical_rational`` and
        ``order`` is an int >= 0 (order 0 reads the value at a non-pole).
        """
        x = canonical_rational(at)
        require_int("pole order", order, 0)
        d = {1: 1, -1: 2}.get(x)
        exps = dict(self._e)
        if order > exps.get(d, 0):
            raise ValueError(f"(t - {at})^{order} does not divide denominator")
        if order < exps.get(d, 0):
            raise ValueError("pole order higher than requested")
        rest = 1
        for dd, e in self._e:
            if dd != d:
                rest *= _horner(_cyclotomic_coeffs(dd), x) ** e
        return self._c * Fraction(_horner(self._n, x), rest)

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {dict(self._e)!r})"


def linear_combinations(forms, rows) -> list[RationalFunction]:
    """[sum_i row[i] * forms[i] for row in rows], over one denominator.

    The forms are lifted once to the exponent-wise maximum of their maps:
    each numerator times the common denominator over its own, one exact
    division, and times its content's numerator k_i, where the contents
    are k_i / L over their common denominator L.  Each row of weights,
    taken over its own common denominator m, then costs one integer
    weighted sum and one trial-division reduction of content 1/(L m).
    A row holds one weight per form, each read by ``canonical_rational``.
    """
    forms = list(forms)
    common: dict = {}
    for f in forms:
        for d, e in f._e:
            common[d] = max(common.get(d, 0), e)
    den = _product_coeffs(common.items())
    contents, L = _over_common_denominator([f._c for f in forms])
    lifted = [[k * x for x in _int_mul(f._n, _int_divexact(
                   den, _product_coeffs(f._e)))]
              for k, f in zip(contents, forms)]
    width = max(map(len, lifted), default=0)
    out = []
    for row in rows:
        row = [canonical_rational(w) for w in row]
        if len(row) != len(forms):
            raise ValueError(f"{len(row)} weights for {len(forms)} forms")
        weights, m = _over_common_denominator(row)
        acc = [0] * width
        for w, coeffs in zip(weights, lifted):
            if w:
                for i, x in enumerate(coeffs):
                    acc[i] += w * x
        out.append(RationalFunction._of(*_canonical(
            Fraction(1, L * m), acc, common)))
    return out


def reconstruct_rational(series: list, exps: Mapping):
    """Fit ``series`` = P(t) / prod_d Phi_d(t)^e_d for the exponent map
    ``exps`` = {d: e}; return P's ascending coefficients, canonical
    rationals without trailing zeros, or None.

    The numerator is read off from series * den on the denominator's
    integer coefficients; the fit is accepted only if every available
    higher coefficient of series * den vanishes (no forced fit).  Raises
    ValueError when too few terms are given to see past the numerator
    degree.
    """
    den = _product_coeffs(exps.items())
    n, d = len(series), len(den) - 1
    if n < d + 2:
        raise ValueError("insufficient series terms to reconstruct numerator")
    prod = []
    for k in range(n):
        acc = 0
        for j in range(min(k, d) + 1):
            acc += den[j] * series[k - j]
        prod.append(acc)
    if any(prod[d + 1:]):
        return None
    num = prod[:d + 1]
    while num and not num[-1]:
        num.pop()
    return tuple(map(canonical_rational, num))
