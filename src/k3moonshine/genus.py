"""Genus computations on K3 surfaces.

Twisted Todd genera of symmetric powers of the tangent bundle, the
two-variable elliptic genus, and the equivariant versions for the seven
finite symplectic automorphism orders via the holomorphic Lefschetz
fixed-point formula.  All of them are weak Jacobi forms of index 1, each
a phi_{0,1} + F phi_{-2,1} built on its y^0 and y^1 columns
(``modforms.jacobi_form_columns``): the elliptic genus is 2 phi_{0,1},
and a fixed-point term is phi_{0,1}/12 + wp(u) phi_{-2,1}, with wp(u) a
q-series over Q(zeta_n).  Every number these routes sum is real, and
chi(g, O_X) = 2 gives every unit the same weight w_n (``unit_weight``,
Table 1 derived), so each Table-1 Galois sum is w_n times a trace to Q.
The traces come from two integer tables per conductor (``_traces``):
those of the roots of unity and, times 12, of the roots divided by the
fixed-point denominator (1 - zeta_n)(1 - zeta_n^-1).  So no route here
computes in Q(zeta_n): the columns and sums are built on ints over one
denominator, and each coefficient is divided once.
``jacobi_split`` and ``verify_moonshine_class`` compare columns at scale
12, on ints for an integral genus, and the split divides h by 12 once;
the latter reads e(g) from M24 (``mckay``, imported on call).
The Chern-root product of the elliptic genus is kept as
``chern_root_elliptic_genus``, the cross-check of acceptance criterion 3,
which so tests the elliptic law instead of assuming it.  It multiplies
out its factors on plain dicts keyed by the powers of q and y, each key
carrying the zeroth, first and second moments of the Chern-root powers
in its terms, which is all the integration over K3 reads; so it runs
through none of the series kernels it checks.  ``expand_product`` keeps
the fermion number as a third grading for the free-field character
``n4char.ch_v_product``, whose z-slices criterion 5 reads.

All series follow the moonshine sign convention in which the elliptic
genus has q^0 part 2/y + 20 + 2y and equals twice the weight-0 index-1
weak Jacobi form; the Euler-characteristic specialization is y -> 1 in
this convention (the chi_y bookkeeping calls the same point y = -1).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .chartab import CLASS_ORDER, SYMPLECTIC_CLASSES, format_rational
from .qpoly import (
    RationalFunction, canonical_rational, euler_phi, exact_quotient,
    memoized, moebius, reconstruct_rational, require_int, require_key,
)
from .records import Record
from .series import NotInSpanError, TruncatedSeries
from .modforms import (
    euler_specialization, index_one_form, jacobi_form_columns,
    weak_jacobi_columns, weak_jacobi_phi,
)

__all__ = [
    "SYMPLECTIC_CLASSES",
    "CLASS_ORDER",
    "unit_weight",
    "fixed_point_types",
    "fixed_point_count",
    "chi_sym_power",
    "chi_symt_series",
    "rational_form",
    "RATIONAL_FORM_DENOMINATORS",
    "elliptic_genus",
    "chern_root_elliptic_genus",
    "expand_product",
    "equivariant_elliptic_genus",
    "jacobi_split",
    "MoonshineReport",
    "verify_moonshine_class",
]


def unit_weight(n: int) -> Fraction:
    """w_n, the fixed points of a symplectic g of order n per unit a mod n.

    g acts trivially on H^(0,2), so the holomorphic Lefschetz formula is
    chi(g, O_X) = sum 1/((1 - zeta_n^a)(1 - zeta_n^-a)) = 2 over its fixed
    points, of types (zeta_n^a, zeta_n^-a).  The units permute the types,
    and the uniform weight w_n U_n(0) = 2 solves it: w_n = 24 / 12 U_n(0).
    """
    return Fraction(24, _traces(require_int("n", n, 2))[1][0])


def fixed_point_types(n: int) -> tuple:
    """Table 1 for order n: a pair (a, 2 w_n) for each pair {a, -a} of
    units mod n, a < n/2, meaning 2 w_n fixed points of type
    (zeta_n^a, zeta_n^-a); (1, w_n) at n = 2.  ValueError when 2 w_n is
    not an integer, as for every n > 8 (Nikulin)."""
    mult = unit_weight(n) * (1 if n == 2 else 2)
    if mult.denominator != 1:
        raise ValueError(f"no symplectic automorphism of order {n}: "
                         f"{mult} fixed points of each type")
    return tuple((a, mult.numerator) for a in range(1, n // 2 + 1)
                 if gcd(a, n) == 1)


def fixed_point_count(label: str) -> int:
    """The fixed points of the class: 24 at 1A, else w_n phi(n)."""
    n = require_key("label", label, CLASS_ORDER)
    return 24 if n == 1 else canonical_rational(unit_weight(n) * euler_phi(n))


def chi_sym_power(n: int) -> int:
    """chi(X, S^n T) for K3: Chern roots (x, -x), c_2[X] = 24.

    Td * ch evaluates each summand e^(m x) of ch(S^n T) to 2 - 12 m^2.
    """
    require_int("n", n, 0)
    return 2 * (n + 1) - 12 * sum((n - 2 * i) ** 2 for i in range(n + 1))


def chi_symt_series(label: str, terms: int) -> list[Fraction]:
    """Equivariant chi(g; X, S_t T) as a t-series for a nontrivial class:
    at t^k, w_n sum_(i <= k) U_n((2i - k) mod n), the Table-1 sum of the
    real sum_(i <= k) zeta_n^(2i - k) / ((1 - zeta_n)(1 - zeta_n^-1)),
    summed on the ints 12 U_n of ``_traces`` and divided once."""
    n = require_key("label", label, CLASS_ORDER)
    require_int("terms", terms, 0)
    if n == 1:
        return [chi_sym_power(k) for k in range(terms)]
    u12 = _traces(n)[1]
    w = unit_weight(n)
    return [exact_quotient(
        w.numerator * sum(u12[(2 * i - k) % n] for i in range(k + 1)),
        12 * w.denominator) for k in range(terms)]


@memoized
def _traces(n: int) -> tuple:
    """The traces to Q of zeta_n^k and, times 12, of
    zeta_n^k / ((1 - zeta_n)(1 - zeta_n^-1)), for k = 0..n-1: two integer
    tables.

    The first is the Ramanujan sum c_n(k) = sum_(m | gcd(n, k)) mu(n/m) m.
    The second is the Moebius inversion of the same quotient summed over
    all m-th roots of unity but 1, m | n, which is
    (m^2 - 1)/12 - r (m - r)/2 with r = k mod m:
    12 U_n(k) = sum_(m | n) mu(n/m) (m^2 - 1 - 6 r (m - r)).  Memoized per
    process on the conductor (the tables are read-only).
    """
    divisors = [m for m in range(1, n + 1) if n % m == 0]
    ramanujan = tuple(sum(moebius(n // m) * m for m in divisors if k % m == 0)
                      for k in range(n))
    u12 = tuple(sum(moebius(n // m) * (m * m - 1 - 6 * (k % m) * (m - k % m))
                    for m in divisors) for k in range(n))
    return ramanujan, u12


# Exponent maps {d: e} of the cyclotomic denominators prod Phi_d^e: a class
# of order n has Phi_n, to the power 4 at 1A and 2 at 2A.
RATIONAL_FORM_DENOMINATORS = {label: {n: {1: 4, 2: 2}.get(n, 1)}
                              for label, n in CLASS_ORDER.items()}


@memoized
def rational_form(label: str) -> RationalFunction:
    """Fit chi(g; X, S_t T) to its cyclotomic-denominator closed form.

    The numerator is read off 2 deg + 4 terms of the series over the
    denominator of ``RATIONAL_FORM_DENOMINATORS`` (degree deg); for every
    class but 1A it must be palindromic of degree deg - 2, which is
    checked on its coefficient tuple.  Memoized per process on the label
    (the result is read-only).
    """
    exps = require_key("label", label, RATIONAL_FORM_DENOMINATORS)
    degree = sum(euler_phi(d) * e for d, e in exps.items())
    num = reconstruct_rational(chi_symt_series(label, 2 * degree + 4), exps)
    if num is None:
        raise ArithmeticError(f"series for {label} does not fit P/{exps!r}")
    if label != "1A" and (num != num[::-1] or len(num) != degree - 1):
        raise ArithmeticError(f"numerator for {label} is not palindromic")
    return RationalFunction(num, exps)


# -- elliptic genus -----------------------------------------------------------

def elliptic_genus(trunc24: int) -> TruncatedSeries:
    """The K3 elliptic genus: q^0 part 2/y + 20 + 2y, built as 2 phi_{0,1}."""
    return weak_jacobi_phi(0, trunc24) * 2


def expand_product(lead: tuple, fermions: list, bosons: list,
                   trunc24: int) -> dict:
    """The monomial ``lead`` times prod (1 + c q^a y^b z^f) over the
    fermion factors (c, a, b, f) and prod (1 - z^f q^a)^-2 over the boson
    factors (a, f), multiplied out below q^(trunc24/24) on a plain dict
    keyed (q24, y2, z): a in 24ths of q, b in halves of y, and z the third
    grading (the fermion number of ``n4char.ch_v_product``).  Every a is
    >= 0 and every boson's a > 0, so the terms below the truncation are
    exact after each factor.
    """
    terms = {lead: 1} if lead[0] < require_int("trunc24", trunc24) else {}
    # the coefficients of the powers k = 0, 1, ... of q^a y^b z^f: 1 + x,
    # and (k + 1) x^k as far as any term below trunc24 can reach
    factors = [((a, b, f), (1, c)) for c, a, b, f in fermions]
    factors += [((a, 0, f), range(1, (trunc24 - lead[0]) // a + 2))
                for a, f in bosons]
    for (a, b, f), coeffs in factors:
        out: dict = {}
        for (q24, y2, z), v in terms.items():
            for k, c in enumerate(coeffs):
                if q24 + k * a >= trunc24:
                    break
                key = (q24 + k * a, y2 + k * b, z + k * f)
                out[key] = out.get(key, 0) + c * v
        terms = {k: v for k, v in out.items() if v}
    return terms


def chern_root_elliptic_genus(trunc24: int) -> TruncatedSeries:
    """Cross-check oracle: the elliptic genus from its Chern-root product.

    Multiplies out y^-1 (1 - y x)(1 - y/x) times, for n >= 1, the factors
    (1 - y^+-1 x^+-1 q^n) over all four sign pairs and (1 - x^+-1 q^n)^-2
    in the Chern roots (x, 1/x), then integrates over K3:
    x^m -> chi = 2 - 12 m^2.  So each (q24, y2) key carries only the
    moments (M0, M1, M2) = sum over its terms c x^m of c (1, m, m^2); a
    term c x^s of a factor maps them to
    c (M0, M1 + s M0, M2 + 2 s M1 + s^2 M0), and the genus is 2 M0 - 12 M2.
    Acceptance criterion 3, which compares it with ``elliptic_genus``, is
    its one caller outside the tests.
    """
    orders = range(24, trunc24, 24)
    # ((a, b, s), coefficients of the powers k = 0, 1, ... of q^a y^b x^s)
    factors = [((0, 2, 1), (1, -1)), ((0, 2, -1), (1, -1))]
    factors += [((a, y2, s), (1, -1)) for a in orders for y2 in (2, -2)
                for s in (1, -1)]
    factors += [((a, 0, s), range(1, trunc24 // a + 2)) for a in orders
                for s in (1, -1)]
    moments = {(0, -2): (1, 0, 0)} if trunc24 > 0 else {}
    for (a, b, s), coeffs in factors:
        out = dict(moments)         # the power k = 0, coefficient 1
        for (q24, y2), (m0, m1, m2) in moments.items():
            for k, c in enumerate(coeffs[1:], 1):
                if q24 + k * a >= trunc24:
                    break
                t = k * s
                key = (q24 + k * a, y2 + k * b)
                n0 = c * m0
                n1 = c * m1 + t * n0
                n2 = c * m2 + t * (2 * c * m1 + t * n0)
                if key in out:
                    o0, o1, o2 = out[key]
                    out[key] = (o0 + n0, o1 + n1, o2 + n2)
                else:
                    out[key] = (n0, n1, n2)
        moments = {k: v for k, v in out.items() if any(v)}
    return TruncatedSeries({key: 2 * m0 - 12 * m2
                            for key, (m0, _m1, m2) in moments.items()},
                           trunc24)


@memoized
def equivariant_elliptic_genus(label: str, trunc24: int) -> TruncatedSeries:
    """chi_{-y}(g; q, LX) from the fixed-point formula over Table-1 data.

    A fixed point with eigenvalues (lam, lam^-1), lam = zeta_n, contributes
    the holomorphic Lefschetz quotient -theta1(z+u) theta1(z-u) / theta1(u)^2
    with e(u) = lam.  As a function of z it is an index-1 form with Euler
    value 1, so it equals phi_{0,1}/12 + wp(u) phi_{-2,1} with wp(u) the
    Weierstrass function up to a constant and a factor:
        wp(u) = 1/12 - 1/((1 - lam)(1 - lam^-1))
                + sum_(m>=1) sum_(d | m) d (lam^d - 2 + lam^-d) q^m.
    Its coefficients are real, so the Table-1 sum is w_n times the trace:
    w_n phi(n)/12 phi_{0,1} + F phi_{-2,1}, F_0 = w_n (phi(n)/12 - U_n(0))
    and F_m = w_n sum_(d | m) 2 d (c_n(d) - phi(n)) by one divisor sieve.
    The columns are built on the ints 12 F / w_n and divided once.
    Memoized per process on the exact arguments (the series is read-only).
    """
    n = require_key("label", label, CLASS_ORDER)
    if n == 1:
        return elliptic_genus(trunc24)
    ramanujan, u12 = _traces(n)
    phi = ramanujan[0]
    top = (trunc24 - 1) // 24          # the last integral q-order below
    f12 = [phi - u12[0]] + [0] * top
    for d in range(1, top + 1):
        v = 24 * d * (ramanujan[d % n] - phi)
        for m in range(d, top + 1, d):
            f12[m] += v
    w = unit_weight(n)
    f = TruncatedSeries({(24 * m, 0): w.numerator * x
                         for m, x in enumerate(f12)}, trunc24)
    return index_one_form(*(
        column.divide_scalar(12 * w.denominator)
        for column in jacobi_form_columns(w.numerator * phi, f, trunc24)))


# -- decomposition against the weak Jacobi basis ------------------------------

def _columns(s: TruncatedSeries) -> list:
    """The y^0 and y^1 columns of s."""
    return [s.y_coefficient(y2) for y2 in (0, 2)]


def jacobi_split(s: TruncatedSeries):
    """Write s = a * phi_{0,1} + h(q) * phi_{-2,1}.

    s must first equal the index-1 form rebuilt from its own columns: the
    elliptic law, tested rather than assumed.  ``a`` is read off the
    Euler specialization (value e_0/12, the paper's "y = -1" anchor) and
    must be consistent at every computed order; the first order where
    either fails is reported.  ``h`` is y-free, so 12 h is the quotient of
    the y^0 columns of 12 s - e_0 phi_{0,1} and phi_{-2,1}, which runs on
    ints for an integral s; the y^1 columns must then match at the same
    scale, and the first order where they do not is the first order where
    s leaves the span.  h is divided by 12 once, at the end.
    """
    if s.is_zero():
        return 0, s
    columns = _columns(s)
    off = s - index_one_form(*columns)
    e = euler_specialization(s)
    offenders = [k for k in e.q_support() if k]
    if off.terms:
        offenders.append(off.min_q24)
    if offenders:
        raise NotInSpanError(
            "series is not an index-one form with a constant Euler value",
            q24=min(offenders))
    e0 = e.terms.get((0, 0), 0)
    phi0 = weak_jacobi_columns(0, s.trunc24)
    y0, y1 = (col * 12 - p * e0 for col, p in zip(columns, phi0))
    phim2 = weak_jacobi_columns(-2, s.trunc24)
    # rem / phi_{-2,1} is known below this order
    lead = min((c.min_q24 for c in (y0, y1) if c.terms), default=y0.trunc24)
    known = min(y0.trunc24, phim2[0].trunc24 + lead)
    h12 = y0.divide_exact(phim2[0]).truncate(known)
    residual = y1 - h12 * phim2[1]
    if residual.terms:
        raise NotInSpanError("series is not a phi_{0,1} + h(q) phi_{-2,1}",
                             q24=residual.min_q24)
    return exact_quotient(e0, 12), h12.divide_scalar(12)


class MoonshineReport(Record):
    __slots__ = ("label", "ok", "first_mismatch_q24", "checked_trunc24")

    def __str__(self):
        text, q24 = (("agree to", self.checked_trunc24) if self.ok
                     else ("first mismatch at", self.first_mismatch_q24))
        return f"{self.label}: {text} q^{format_rational(Fraction(q24, 24))}"


def verify_moonshine_class(label: str, f_g: TruncatedSeries,
                           trunc24: int) -> MoonshineReport:
    """Compare the fixed-point genus with e(g)/12 phi_{0,1} + f_g phi_{-2,1},
    e(g) the fixed points of the M24 class (``mckay.euler_character_value``).

    Both sides are index-1 forms, so they agree wherever their y^0 and y^1
    columns agree, and the first column mismatch is the first mismatch.
    The columns are compared at scale 12, 12 times the genus's against
    those of e(g) phi_{0,1} + 12 f_g phi_{-2,1}, so nothing is divided.
    """
    from .mckay import euler_character_value  # the M24 tables, on demand
    genus = equivariant_elliptic_genus(label, trunc24)
    lhs = [c * 12 for c in _columns(genus)]
    rhs = jacobi_form_columns(euler_character_value(label), f_g * 12, trunc24)
    diffs = [left - right for left, right in zip(lhs, rhs)]
    t = min(d.trunc24 for d in diffs)
    bad = [d.min_q24 for d in diffs if d.terms]
    if not bad:
        return MoonshineReport(label, True, None, t)
    return MoonshineReport(label, False, min(bad), t)
