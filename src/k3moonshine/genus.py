"""Genus computations on K3 surfaces.

Twisted Todd genera of symmetric powers of the tangent bundle, the
two-variable elliptic genus, and the equivariant versions for the seven
finite symplectic automorphism orders via the holomorphic Lefschetz
fixed-point formula.  All of them are weak Jacobi forms of index 1, each
a phi_{0,1} + F phi_{-2,1} built on its y^0 and y^1 columns
(``modforms.jacobi_form_columns``): the elliptic genus is 2 phi_{0,1},
and a fixed-point term is phi_{0,1}/12 + wp(u) phi_{-2,1}, with wp(u) a
q-series over Q(zeta_n) from a divisor sieve, so the Table-1 Galois sums
and the traces run on the coefficients of one q-series.  Their values,
with a, are taken over one common denominator d, the columns are built
on ints, and each column coefficient is divided once by d.
``jacobi_split`` and ``verify_moonshine_class`` compare columns at scale
12, on ints for an integral genus, and the split divides h by 12 once.
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
from functools import lru_cache

from .chartab import format_rational
from .cyclotomic import CyclotomicNumber, DomainError, euler_phi, zeta
from .qpoly import (
    RationalFunction, _over_common_denominator, reconstruct_rational,
)
from .records import Record
from .series import NotInSpanError, TruncatedSeries, exact_quotient
from .modforms import (
    euler_specialization, index_one_form, jacobi_form_columns,
    weak_jacobi_columns, weak_jacobi_phi,
)

__all__ = [
    "SYMPLECTIC_CLASSES",
    "CLASS_ORDER",
    "FIXED_POINT_EIGENVALUES",
    "fixed_point_count",
    "chi_sym_power",
    "chi_symt_series",
    "rational_form",
    "RATIONAL_FORM_DENOMINATORS",
    "elliptic_genus",
    "chern_root_elliptic_genus",
    "expand_product",
    "equivariant_elliptic_genus",
    "weighted_equivariant_genus",
    "jacobi_split",
    "MoonshineReport",
    "verify_moonshine_class",
]

CLASS_ORDER = {
    "1A": 1, "2A": 2, "3A": 3, "4A": 4, "5A": 5, "6A": 6, "7AB": 7, "8A": 8,
}
SYMPLECTIC_CLASSES = tuple(CLASS_ORDER)

# Isolated fixed points of a symplectic automorphism of order n: pairs
# (a, multiplicity) meaning ``multiplicity`` fixed points with tangent
# eigenvalues (zeta_n^a, zeta_n^-a).
FIXED_POINT_EIGENVALUES = {
    2: ((1, 8),),
    3: ((1, 6),),
    4: ((1, 4),),
    5: ((1, 2), (2, 2)),
    6: ((1, 2),),
    7: ((1, 1), (2, 1), (3, 1)),
    8: ((1, 1), (3, 1)),
}

# Lemma-style weights m(N) turning the sum over all units of Z/N into the
# Table-1 fixed-point multiset.
UNIT_SUM_WEIGHTS = {
    2: 8, 3: 3, 4: 2, 5: 1, 6: 1, 7: Fraction(1, 2), 8: Fraction(1, 2),
}


def fixed_point_count(label: str) -> int:
    n = CLASS_ORDER[label]
    if n == 1:
        return 24
    return sum(mult for _, mult in FIXED_POINT_EIGENVALUES[n])


def chi_sym_power(n: int) -> int:
    """chi(X, S^n T) for K3: Chern roots (x, -x), c_2[X] = 24.

    Td * ch evaluates each summand e^(m x) of ch(S^n T) to 2 - 12 m^2.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return 2 * (n + 1) - 12 * sum((n - 2 * i) ** 2 for i in range(n + 1))


def chi_symt_series(label: str, terms: int) -> list[Fraction]:
    """Equivariant chi(g; X, S_t T) as a t-series for a nontrivial class."""
    n = CLASS_ORDER[label]
    if n == 1:
        return [chi_sym_power(k) for k in range(terms)]
    # the pair of zeta_n^a contributes sigma_a of the zeta_n term, so each
    # coefficient is one Table-1 Galois sum of that term; the inverse
    # denominator is taken over its common denominator d, so the products
    # and sums run on ints and each coefficient is divided once by d
    pairs = FIXED_POINT_EIGENVALUES[n]
    num, d = _over_common_denominator(_inverse_denominator(n).c)
    dnum = CyclotomicNumber(n, num)
    out = []
    for k in range(terms):
        # sum_i zeta_n^(2i - k), as counts of n-th roots
        counts = [0] * n
        for i in range(k + 1):
            counts[(2 * i - k) % n] += 1
        term = dnum * CyclotomicNumber.from_root_counts(n, counts)
        out.append(exact_quotient(term.galois_sum(pairs).rational_value(), d))
    return out


@lru_cache(maxsize=None)
def _inverse_denominator(n: int) -> CyclotomicNumber:
    """1/((1 - zeta_n)(1 - zeta_n^-1)), the inverse denominator of a
    fixed point with eigenvalues (zeta_n, zeta_n^-1), which both
    ``chi_symt_series`` and ``_wp_series`` read.  Memoized per process on
    the conductor (the number is read-only)."""
    return ((1 - zeta(n, 1)) * (1 - zeta(n, -1))).inverse()


# Exponent maps {d: e} of the cyclotomic denominators prod Phi_d^e.
RATIONAL_FORM_DENOMINATORS = {
    "1A": {1: 4},
    "2A": {2: 2},
    "3A": {3: 1},
    "4A": {4: 1},
    "5A": {5: 1},
    "6A": {6: 1},
    "7AB": {7: 1},
    "8A": {8: 1},
}


@lru_cache(maxsize=None)
def rational_form(label: str) -> RationalFunction:
    """Fit chi(g; X, S_t T) to its cyclotomic-denominator closed form.

    The numerator is read off 2 deg + 4 terms of the series over the
    denominator of ``RATIONAL_FORM_DENOMINATORS`` (degree deg); for every
    class but 1A it must be palindromic of degree deg - 2, which is
    checked on its coefficient tuple.  Memoized per process on the label
    (the result is read-only).
    """
    exps = RATIONAL_FORM_DENOMINATORS[label]
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
    terms = {lead: 1} if lead[0] < trunc24 else {}
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


@lru_cache(maxsize=None)
def _wp_series(n: int, trunc24: int) -> TruncatedSeries:
    """The q-series wp(u) of one fixed-point term over Q(zeta_n).

    The term, with eigenvalues (zeta_n, zeta_n^-1) in chi_{-y} form, is the
    holomorphic Lefschetz quotient -theta1(z+u) theta1(z-u) / theta1(u)^2
    with e(u) = lam = zeta_n.  As a function of z it is an index-1 form
    with Euler value 1, so it equals phi_{0,1}/12 + wp(u) phi_{-2,1} with
    wp(u) the Weierstrass function up to a constant and a factor:
        wp(u) = 1/12 - 1/((1 - lam)(1 - lam^-1))
                + sum_(m>=1) sum_(d | m) d (lam^d - 2 + lam^-d) q^m,
    whose divisor sums come from one sieve.  The eigenvalue pair of
    zeta_n^a contributes the Galois conjugate sigma_a.  Memoized per
    process on the exact arguments (the series is read-only).
    """
    top = (trunc24 - 1) // 24          # the last integral q-order below
    counts = [[0] * n for _ in range(top + 1)]
    for d in range(1, top + 1):
        for m in range(d, top + 1, d):
            counts[m][d % n] += d
            counts[m][-d % n] += d
            counts[m][0] -= 2 * d
    lead = Fraction(1, 12) - _inverse_denominator(n)
    terms = {(0, 0): lead}
    for m in range(1, top + 1):
        terms[(24 * m, 0)] = CyclotomicNumber.from_root_counts(n, counts[m])
    return TruncatedSeries(terms, trunc24)


def _fixed_point_sum(n: int, trunc24: int, a, value,
                     weight=1) -> TruncatedSeries:
    """weight (a phi_{0,1} + F phi_{-2,1}), F the series of the rational
    value(c) on the coefficients c of wp(u).  a and the values of F are
    brought over their common denominator d, so the column products run
    on ints, and each column coefficient is divided once, by d over the
    weight."""
    wp = _wp_series(n, trunc24)
    w = Fraction(weight)
    nums, d = _over_common_denominator([a, *map(value, wp.terms.values())])
    a_num, *f_nums = (w.numerator * x for x in nums)
    f = TruncatedSeries(dict(zip(wp.terms, f_nums)), trunc24)
    return index_one_form(*(
        column.divide_scalar(d * w.denominator)
        for column in jacobi_form_columns(a_num, f, trunc24)))


@lru_cache(maxsize=None)
def equivariant_elliptic_genus(label: str, trunc24: int) -> TruncatedSeries:
    """chi_{-y}(g; q, LX) from the fixed-point formula over Table-1 data.

    The sum of mult * sigma_a(term) over the Table-1 eigenvalue pairs is
    e(g)/12 phi_{0,1} + F phi_{-2,1}, F the same sum of the conjugates of
    wp(u): each coefficient of wp(u) goes once through the integer matrix
    of the whole sum, and every non-rational coordinate of the result must
    vanish.  Memoized per process on the exact arguments (the series is
    read-only).
    """
    n = CLASS_ORDER[label]
    if n == 1:
        return elliptic_genus(trunc24)
    pairs = FIXED_POINT_EIGENVALUES[n]
    try:
        return _fixed_point_sum(
            n, trunc24, exact_quotient(fixed_point_count(label), 12),
            lambda c: c.galois_sum(pairs).rational_value())
    except DomainError as exc:  # pragma: no cover - corrupted data guard
        raise ArithmeticError(
            f"fixed-point sum for {label} is not rational: {exc}") from exc


def weighted_equivariant_genus(label: str, trunc24: int) -> TruncatedSeries:
    """The m(N)-weighted sum over all units of Z/N (shifted-phi quotients).

    The sum of sigma_a(term) over all units a is
    phi(N)/12 phi_{0,1} + Tr(wp(u)) phi_{-2,1}, the field trace taken
    coefficient by coefficient on wp(u); the weight m(N) joins the one
    division of ``_fixed_point_sum``.
    """
    n = CLASS_ORDER[label]
    if n == 1:
        raise ValueError("weighted form applies to nontrivial classes")
    return _fixed_point_sum(n, trunc24, Fraction(euler_phi(n), 12),
                            CyclotomicNumber.trace, UNIT_SUM_WEIGHTS[n])


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
    """Compare the fixed-point genus with e(g)/12 phi_{0,1} + f_g phi_{-2,1}.

    Both sides are index-1 forms, so they agree wherever their y^0 and y^1
    columns agree, and the first column mismatch is the first mismatch.
    The columns are compared at scale 12, 12 times the genus's against
    those of e(g) phi_{0,1} + 12 f_g phi_{-2,1}, so nothing is divided.
    """
    genus = equivariant_elliptic_genus(label, trunc24)
    lhs = [c * 12 for c in _columns(genus)]
    rhs = jacobi_form_columns(fixed_point_count(label), f_g * 12, trunc24)
    diffs = [left - right for left, right in zip(lhs, rhs)]
    t = min(d.trunc24 for d in diffs)
    bad = [d.min_q24 for d in diffs if d.terms]
    if not bad:
        return MoonshineReport(label, True, None, t)
    return MoonshineReport(label, False, min(bad), t)
