"""The N=4 character engine at central charge six.

Builds the three-variable character of the free-field algebra V as
{f: series in (q, y)} over the fermion number f, extracts the
SL(2)-isotypic characters ch_{V_N} two independent ways (from the z^f
slices of the product formula, and the closed Appell-Lerch form),
computes the Fourier parts h_N and the polar part of g_1, and inverts the
elliptic-genus decomposition to recover symmetric-power traces from
twining genera.  N=4 multiplicities are read in closed form (Table 3's
rows, H's); ``decompose_into_n4`` is criterion 7's cross-check.

The Appell-Lerch sums are written term by term.  Each factor 1/(1 + x)
with x = y^(+-1) q^e, e in Z + 1/2, is expanded toward positive q-powers,
as sum_j (-x)^j for e > 0 and sum_j (-1)^j x^(-1-j) for e < 0, so
``g_sum`` adds the products of two such expansions into one dict, and the
polar part is the closed double sum
    P = sum over odd a >= 1 and k >= 0 of (-1)^k (y^m + y^(-m)) q^(a(a+2+4k)/8),
    m = (a+1)/2 + k.
Neither forms a series product.  For N != 1 the m-sum of g_N telescopes
to (N - 1)/(1 - q^(N-1)), so h_N eta^3 is a Lambert series and h_N's
coefficient at q^(k-1/8) is |N - 1| times a running sum, with stride
|N - 1|, of eta^-3's coefficients.  h_1, the mock part, is 2 F_2 / eta^3,
with the F_2 of Mathieu moonshine's H = (-2 E_2 + 48 F_2)/eta^3
(``_f2_column`` builds it once; ``h_series``, ``_h_column`` and
``mathieu_h`` read it).  Table 3's rows (``_typical_row``) add four h
columns on ints, with the weights of ch_{V_N}'s combination of g_N
(``_V_WEIGHTS``), and the term-by-term g_sum checks the closed forms
(g_N = theta3 h_N, criterion 5).

The inverse problem reads neither Table 3 nor H: a twining
a phi_{0,1} + f phi_{-2,1} has multiplicities linear in (a, f), and by the
Lambert form of h_N the traces are a Moebius inversion of a E_2 - f
followed by a four-term recurrence (``twining_to_symtraces``).  The Ramond
characters ch_{M_N} are built only as a reconstruction oracle for tests.

Sector bookkeeping: NS characters carry q-exponents in -1/4 + (1/2)Z; the
flow ch_M(y;q) = q^(1/4) y ch_V(y q^(1/2); q) maps them to the Ramond
sector.  The elliptic genus pairs with the *signed* flow (fermion-number
signs, y -> -y before flowing); the choice is pinned by the anchors
A_0 = -2 and atypical multiplicity 24 and frozen in the tests.
"""

from __future__ import annotations

from fractions import Fraction

from .qpoly import (
    _over_common_denominator, canonical_rational, exact_quotient, memoized,
    require_int,
)
from .series import InsufficientPrecisionError, NotInSpanError, TruncatedSeries
from .modforms import eisenstein_e2, eta_power, jacobi_theta
from .genus import chi_sym_power, expand_product
from .records import Record

__all__ = [
    "ch_v_product",
    "ch_vn_extract",
    "g_series",
    "h_series",
    "polar_part",
    "atypical_ns",
    "ch_vn_closed",
    "ch_vn_h_form",
    "N4Multiplicities",
    "decompose_into_n4",
    "GenusDecomposition",
    "genus_A_coefficients",
    "mathieu_h",
    "symmetric_power_crosscheck",
    "ramond_basis_character",
    "decomposition_truncation",
    "twining_truncation",
    "twining_to_symtraces",
]

# Every series builder below is exact below the trunc24 it is asked for and
# states it: a product is known below min(t_a + lead_b, t_b + lead_a), so
# each factor is built below trunc24 minus the other's lead order (q24).
# theta3, theta3^2, g_sum, h_N eta^3 (a geometric series or 2 F_2) and
# the polar part lead at q^0 or later; eta^-3, theta3/eta^3 and
# each h_N at -_ETA3_LEAD.
_ETA3_LEAD = 3                  # eta^3 = q^(1/8) + ...


# -- the free-field character and isotypic extraction ------------------------

def ch_v_product(trunc24: int) -> dict:
    """tr_V q^(L0 - 1/4) z^f y^(J0) as a product, as {f: the series in
    (q, y) at z^f}.

    q^(-1/4) times, for n >= 1, the fermion factors (1 + z^+-1 y^+-1
    q^(n-1/2)) over all four sign pairs and the boson factors
    (1 - z^+-1 q^n)^-2, multiplied out by ``genus.expand_product``.  Every
    power of f present below the truncation is a key, f = 0 always.
    """
    # the factors that reach below trunc24 from the lead q^(-1/4)
    fermions = [(1, a, y2, f) for a in range(12, trunc24 + 6, 24)
                for f, y2 in ((1, 2), (1, -2), (-1, 2), (-1, -2))]
    bosons = [(a, f) for a in range(24, trunc24 + 6, 24) for f in (1, -1)]
    slices: dict = {0: {}}
    for (q24, y2, f), c in expand_product(
            (-6, 0, 0), fermions, bosons, trunc24).items():
        slices.setdefault(f, {})[(q24, y2)] = c
    return {f: TruncatedSeries(terms, trunc24, _clean=True)
            for f, terms in slices.items()}


def ch_vn_extract(N: int, product: dict) -> TruncatedSeries:
    """ch_{V_N} as the z^N minus z^(N+2) coefficient of ``product``, the
    ``ch_v_product`` slices; a power of z that they lack is zero below
    their truncation."""
    require_int("N", N)
    zero = TruncatedSeries.zero(product[0].trunc24)
    return product.get(N, zero) - product.get(N + 2, zero)


# -- Appell-Lerch machinery ----------------------------------------------------

@memoized
def g_sum(N: int, trunc24: int) -> TruncatedSeries:
    """sum_m 1/((1 + y q^(m-1/2)) (1 + y^(-1) q^(N-m-1/2))).

    Each factor is expanded toward positive q-powers (``_fermion_terms``).
    The m-sum runs over the band between 0 and N and outward from it until
    the nearer rewritten factor starts at trunc24; every product of the two
    expansions is added into one dict.  Memoized per process on the exact
    arguments (the series is read-only).
    """
    lo, hi = min(0, N), max(0, N)
    m_values = list(range(lo, hi + 1))
    k = 1
    while 12 * (2 * k + 1) < trunc24:  # degree of the nearer rewritten factor
        m_values += [hi + k, lo - k]
        k += 1
    acc: dict = {}
    for m in m_values:
        first = _fermion_terms(2 * m - 1, 2, trunc24)
        second = _fermion_terms(2 * (N - m) - 1, -2, trunc24)
        for q1, y1, c1 in first:
            for q2, y2, c2 in second:
                if q1 + q2 >= trunc24:
                    break
                key = (q1 + q2, y1 + y2)
                acc[key] = acc.get(key, 0) + c1 * c2
    terms = {key: c for key, c in acc.items() if c}
    return TruncatedSeries(terms, trunc24, _clean=True)


def _fermion_terms(exp2: int, y2: int, trunc24: int) -> list:
    """The terms (q24, y2, c) below trunc24, in increasing q-order, of
    1/(1 + x) with x = y^(y2/2) q^(exp2/2): (-x)^j for exp2 > 0 and
    (-1)^j x^(-1-j) for exp2 < 0 (exp2 is odd, so never 0)."""
    step, first = 12 * abs(exp2), int(exp2 < 0)
    ystep = -y2 if first else y2
    return [(q24, ystep * (first + j), (-1) ** j)
            for j, q24 in enumerate(range(first * step, trunc24, step))]


@memoized
def _theta3_over_eta3(trunc24: int) -> TruncatedSeries:
    """theta3/eta^3, the prefactor of g_N, atypical_ns and ch_vn_closed.
    Memoized per process on the truncation (the series is read-only)."""
    return jacobi_theta(3, trunc24 + _ETA3_LEAD) * eta_power(-3, trunc24)


def g_series(N: int, trunc24: int) -> TruncatedSeries:
    """g_N = (theta3/eta^3) sum_m 1/((1+y q^(m-1/2))(1+y^(-1) q^(N-m-1/2)))."""
    return _theta3_over_eta3(trunc24) * g_sum(N, trunc24 + _ETA3_LEAD)


@memoized
def h_series(N: int, trunc24: int) -> TruncatedSeries:
    """The Fourier coefficient h_N(q) of g_N = theta3 h_N (plus the polar
    part at N = 1), a pure q-series read off ``_h_column``.  Memoized per
    process on the exact arguments (the series is read-only).

    For N != 1, h_N = (N - 1) / ((1 - q^(N-1)) eta^3).  Write
    a = y q^(m-1/2) and b = y^(-1) q^(N-m-1/2), so ab = q^(N-1) and
        1/((1+a)(1+b)) = (1/(1+a) + 1/(1+b) - 1) / (1 - q^(N-1)).
    With 1/(1+a) - 1 = -1/(1+1/a), the m-sum of the numerator is
    sum_m [F(N-m) - F(1-m)], F(k) = 1/(1 + y^(-1) q^(k-1/2)), which
    telescopes to N - 1 (Zwegers, arXiv:0807.4834; Eguchi-Hikami,
    arXiv:1008.4924).  So g_sum(N) = (N - 1)/(1 - q^(N-1)) is y-free and
    g_N = theta3 h_N; criterion 5 checks that against the term-by-term
    g_sum.  h_N eta^3 is then the Lambert series (N - 1) sum_(j>=0)
    q^((N-1)j) for N >= 2 and (1 - N) sum_(j>=1) q^((1-N)j) for N <= 0.

    h_1, the mock part, is 2 F_2 / eta^3 (``_f2_column``).  The genus
    2 phi_{0,1} is sum_n c_n ch_{M_n} with c_n = chi(X, S^n T), and
    sum_n c_n t^n = (2 - 28t + 2t^2)/(1 - t)^4 (criterion 1).  In
    ``twining_to_symtraces``'s notation (a = 2, f = 0) that is
    b = (2, -24, -50, -48, -48, ...), so the Lambert part
    sum_(N != 1) b_N (N - 1)/(1 - q^(N-1)) is 2 - 48 sum_m sigma_1(m) q^m
    = 2 E_2, and the genus's typical multiplicities are
    -H = (2 E_2 - 24 h_1 eta^3)/eta^3.  With H = (-2 E_2 + 48 F_2)/eta^3
    (Cheng, arXiv:1005.5415; Gaberdiel-Hohenegger-Volpato,
    arXiv:1008.3778) that is h_1 eta^3 = 2 F_2, and
    H = 24 h_1 - 2 E_2/eta^3.
    """
    # h_N lies on the keys q24 = 24 k - 3, and those below trunc24 are k < ncols
    column = _h_column(N, (trunc24 + 26) // 24)
    terms = {(24 * k - 3, 0): c for k, c in enumerate(column) if c}
    return TruncatedSeries(terms, trunc24, _clean=True)


def _eta3_column(ncols: int) -> list:
    """e_k, the coefficient of eta^-3 at q^(k - 1/8), for k < ncols."""
    eta = eta_power(-3, 24 * ncols - 26).terms
    return [eta.get((24 * k - 3, 0), 0) for k in range(ncols)]


def _f2_column(ncols: int) -> list:
    """F_2 = sum over r > s > 0, r - s odd, of (-1)^r s q^(rs/2) at q^j for
    j < ncols (rs is even, so every power is integral): the one builder
    of F_2, which h_1 and H read."""
    f2 = [0] * ncols
    s = 1
    while s * (s + 1) < 2 * ncols:          # the least r is s + 1
        for r in range(s + 1, -(-2 * ncols // s), 2):  # rs/2 < ncols
            f2[r * s // 2] += -s if r % 2 else s
        s += 1
    return f2


@memoized
def _h_column(N: int, ncols: int) -> tuple:
    """h_N at q^(k - 1/8) for k < ncols (the last at q24 = 24 ncols - 27),
    memoized per process: every reader of h_N's coefficients goes through
    it (``h_series``, ``_typical_row``).

    With e_k eta^-3's coefficients (``_eta3_column``) and M = |N - 1|,
    the Lambert form of h_N (N != 1, ``h_series``) makes its coefficient
    M s_k, where s_k = e_k + s_(k-M) for N >= 2 and s_k = e_(k-M) + s_(k-M)
    for N <= 0: a running sum.  h_1 = 2 F_2 / eta^3 is
    2 sum_j F_2,j e_(k-j), on ints.
    """
    e = _eta3_column(ncols)
    if N == 1:
        f2 = _f2_column(ncols)
        return tuple(2 * sum(f2[j] * e[k - j] for j in range(1, k + 1))
                     for k in range(ncols))
    M = abs(N - 1)
    lag = M if N < 1 else 0         # for N <= 0 the sum starts at j = 1
    s: list = []
    for k in range(ncols):
        s.append((e[k - lag] if k >= lag else 0)
                 + (s[k - M] if k >= M else 0))
    return tuple(M * x for x in s)


def polar_part(trunc24: int) -> TruncatedSeries:
    """The Appell-Lerch polar part of g_1:
    P = sum over alpha in Z+1/2 of y^(alpha+1/2) q^(alpha(alpha+1)/2) / (1+y q^alpha).

    Expanding each 1/(1 + y q^alpha) toward positive q-powers makes
    alpha = a/2 and alpha = -a/2 (a odd) mirror images under y -> 1/y,
    which gives the closed double sum of the module docstring; no two
    (a, k) share a key.  (The exponent alpha(alpha+1)/2 is the one
    consistent with g_1 - theta3 h_1; see the residue computation.)
    """
    terms = {}
    a = 1
    while 3 * a * (a + 2) < trunc24:
        for k, q24 in enumerate(range(3 * a * (a + 2), trunc24, 12 * a)):
            y2 = a + 1 + 2 * k
            terms[(q24, y2)] = terms[(q24, -y2)] = (-1) ** k
        a += 2
    return TruncatedSeries(terms, trunc24, _clean=True)


def atypical_ns(trunc24: int) -> TruncatedSeries:
    """(theta3/eta^3) times the polar sum: the massless NS building block."""
    return _theta3_over_eta3(trunc24) * polar_part(trunc24 + _ETA3_LEAD)


# ch_{V_N} = (theta3/eta^3) sum of weight * g_(N + offset) over these
# (offset, weight) pairs: g_N - 2 g_(N+1) + 2 g_(N+3) - g_(N+4).
_V_WEIGHTS = ((0, 1), (1, -2), (3, 2), (4, -1))


def ch_vn_closed(N: int, trunc24: int) -> TruncatedSeries:
    """ch_{V_N} = (theta3/eta^3)(g_N - 2 g_(N+1) + 2 g_(N+3) - g_(N+4))."""
    require_int("N", N)
    pref = _theta3_over_eta3(trunc24 + _ETA3_LEAD)
    return (pref * pref) * _v_combo(g_sum, N, trunc24 + 2 * _ETA3_LEAD)


def _atypical_coefficient(N: int) -> int:
    """ch_{V_N}'s massless multiplicity: the weight of ``_V_WEIGHTS`` that
    lands on g_1, the only g_n with a polar part (g_1 = theta3 h_1 + P)."""
    return sum(w for offset, w in _V_WEIGHTS if N + offset == 1)


def _v_combo(part, N: int, trunc24: int) -> TruncatedSeries:
    """The ``_V_WEIGHTS`` combination of part_(N + offset), that of
    ch_{V_N}: on h_series its typical multiplicities, at h on q^(h - 3/8)."""
    terms = [part(N + offset, trunc24) * w for offset, w in _V_WEIGHTS]
    return sum(terms[1:], terms[0])


@memoized
def _typical_prefactor(trunc24: int) -> TruncatedSeries:
    """theta3^2 / eta^3, the shape of every typical NS character.
    Memoized per process on the truncation (the series is read-only)."""
    return jacobi_theta(3, trunc24 + _ETA3_LEAD) * _theta3_over_eta3(trunc24)


def ch_vn_h_form(N: int, trunc24: int) -> TruncatedSeries:
    """ch_{V_N} assembled from the Fourier parts h_N and the polar part."""
    require_int("N", N)
    t = trunc24 + _ETA3_LEAD
    out = _typical_prefactor(t) * _v_combo(h_series, N, t)
    a = _atypical_coefficient(N)
    return out + atypical_ns(trunc24) * a if a else out


# -- decomposition into N=4 characters ----------------------------------------

class N4Multiplicities(Record):
    """Atypical coefficient and typical multiplicities keyed by weight h
    (``typical`` maps the Fraction h to its multiplicity).

    ``horizon24``: multiplicities at weights h with 24(h - 3/8) at or
    beyond it are outside the computed window; ``table_row`` raises there.
    """

    __slots__ = ("atypical", "typical", "horizon24")

    def table_row(self, columns) -> list:
        """Multiplicities at h = 1/4 + k for the requested integer columns,
        at q24 = 24 k - 3 on the horizon's grid."""
        row = []
        for k in columns:
            h = Fraction(4 * k + 1, 4)
            if 24 * k - 3 >= self.horizon24:
                raise InsufficientPrecisionError(
                    f"weight {h} beyond the computed horizon")
            row.append(self.typical.get(h, 0))
        return row


# The first y-dependent key of polar_part / theta3 and its coefficient:
# polar_part's a = 1, k = 0 term, as theta3's first y-term is at q24 = 12.
_POLAR_LEAD, _POLAR_LEAD_COEFF = (9, -2), 1


def decompose_into_n4(s: TruncatedSeries) -> N4Multiplicities:
    """Solve s = a * atypical + sum_h mult(h) ch_h for an NS-sector s,
    exactly to truncation: criterion 7's cross-check of the genus against H.

    With u = s * eta^3 / theta3, the typical quotient
    h = (u - a * polar) / theta3 must be y-independent.  ``a`` is read at
    the first y-dependent term of polar / theta3, from u / theta3 cut just
    past it, so an input that ends before that term raises
    InsufficientPrecisionError.  theta3 = 1 + O(q^(1/2)) has y^0 column 1,
    so h is the y^0 column of u - a * polar, and u - a * polar - theta3 * h
    must vanish: its lowest term is the lowest y-dependent term of the
    quotient, which raises NotInSpanError at that order.  ``horizon24`` is
    the input's trunc24 + 3 (eta^3 and theta3 are built that far past the
    lowest orders of s and of u); ``decomposition_truncation`` is derived
    from it.
    """
    t = s.trunc24
    lowest = min((q24 for q24, _y2 in s.terms), default=t - 1)
    theta = jacobi_theta(3, t - lowest)
    u = (s * eta_power(3, t + _ETA3_LEAD - lowest)).divide_exact(theta)
    if _POLAR_LEAD[0] >= u.trunc24:
        raise InsufficientPrecisionError(
            "input ends before the atypical coefficient can be read")
    head = u.truncate(_POLAR_LEAD[0] + 1).divide_exact(theta)
    a = exact_quotient(head.terms.get(_POLAR_LEAD, 0), _POLAR_LEAD_COEFF)
    rest = u - polar_part(u.trunc24) * a
    h = rest.y_coefficient(0)
    off = rest - theta * h
    if off.terms:
        raise NotInSpanError("input is not in the N=4 span", q24=off.min_q24)
    typical = {Fraction(q24, 24) + Fraction(3, 8): c
               for (q24, _y2), c in h.terms.items()}
    return N4Multiplicities(a, typical, h.trunc24)


# -- the elliptic-genus decomposition ------------------------------------------

def ramond_basis_character(N: int, trunc24: int) -> TruncatedSeries:
    """The Ramond-sector character ch_{M_N} graded to pair with the genus.

    This is the spectral flow of ch_{V_N} with fermion-number signs
    (y -> -y before flowing); the convention is pinned by the identity
    elliptic_genus = sum_n chi(X, S^n T) * ch_{M_n}, which the tests use to
    check ``twining_to_symtraces`` by reconstruction.
    """
    return ch_vn_h_form(N, trunc24).substitute_y_sign().spectral_flow(+1)


class GenusDecomposition(Record):
    __slots__ = ("atypical", "A")


def genus_A_coefficients(nmax: int, genus: TruncatedSeries) -> GenusDecomposition:
    """Decompose the K3 elliptic genus: 24 massless + sum A_n ch^R_(1/4+n).
    It pairs with the fermion-parity-signed flow: flow back, undo y's sign."""
    require_int("nmax", nmax, 0)
    dec = decompose_into_n4(genus.spectral_flow(-1).substitute_y_sign())
    a_list = [-m for m in dec.table_row(range(nmax + 1))]
    return GenusDecomposition(-dec.atypical, a_list)


# Bundle combinations of the A_n display: A_n = -chi(X, combo) with combo a
# multiset of symmetric powers S^k T (k -> multiplicity).
A_COEFFICIENT_BUNDLES = {
    0: {0: 1},
    1: {2: 1},
    2: {0: 1, 3: 2},
    3: {1: 2, 2: 1, 4: 3},
    4: {0: 1, 1: 2, 2: 3, 3: 2, 4: 1, 5: 4},
}


def symmetric_power_crosscheck(dec: GenusDecomposition) -> dict:
    """Check A_n = -chi(X, bundle combination) for the tabulated n <= 4."""
    report = {}
    for n in range(min(len(dec.A), len(A_COEFFICIENT_BUNDLES))):
        combo = A_COEFFICIENT_BUNDLES[n]
        expected = -sum(mult * chi_sym_power(k) for k, mult in combo.items())
        report[n] = (dec.A[n], expected, dec.A[n] == expected)
    return report


# -- recovering symmetric-power traces from twinings ---------------------------

def decomposition_truncation(ncols: int) -> int:
    """The least trunc24 at which ``decompose_into_n4`` reads, from an NS
    ch_{V_N} (from q^(-1/4) on), the massless multiplicity (q24 = 9) and
    the columns k < ncols (to 24 ncols - 27) below its trunc24 + 3."""
    return max(24 * require_int("ncols", ncols, 0) - 27, 9) - 2


def twining_truncation(tmax: int) -> int:
    """The least genus trunc24 = 24 m for A_0 .. A_(tmax - 1): the flow back
    from q^0, whose y-envelope costs 6 m + 18, reaches
    ``decomposition_truncation(tmax)``."""
    require_int("tmax", tmax, 0)
    return 24 * -(-(decomposition_truncation(tmax) + 18) // 18)


@memoized
def _typical_row(N: int, ncols: int) -> tuple:
    """Row N of Table 3, ch_{V_N}'s typical multiplicities at h = 1/4 + k,
    k < ncols (the last at q24 = 24 ncols - 27), memoized per process:
    the ``_V_WEIGHTS`` combination of the h columns, added on ints.
    Criterion 6 and ``n4-decompose`` read it; nothing decomposes."""
    scaled = [[w * c for c in _h_column(N + offset, ncols)]
              for offset, w in _V_WEIGHTS]
    return tuple(map(sum, zip(*scaled)))


@memoized
def mathieu_h(trunc24: int) -> TruncatedSeries:
    """Mathieu moonshine's H = 2 q^(-1/8) (-1 + 45 q + 231 q^2 + ...) in
    closed form: H = (-2 E_2 + 48 F_2) / eta^3 = 24 h_1 - 2 E_2 / eta^3,
    with ``_f2_column``'s F_2 (Cheng, arXiv:1005.5415;
    Gaberdiel-Hohenegger-Volpato, arXiv:1008.3778).  Its coefficient at
    q^(k - 1/8) is A_k of the genus decomposition.  Memoized per process
    on the exact arguments (the series is read-only).
    """
    t = trunc24 + _ETA3_LEAD
    f2 = {(24 * j, 0): c for j, c in enumerate(_f2_column(-(-t // 24))) if c}
    body = eisenstein_e2(t) * -2 + TruncatedSeries(f2, t, _clean=True) * 48
    return body * eta_power(-3, trunc24)


@memoized
def _genus_multiplicities(ncols: int) -> tuple:
    """The elliptic genus's massless multiplicity, then its typical ones at
    h = 1/4 + k for k < ncols, memoized per process.  The massive
    characters vanish at y = 1, so the massless one is minus the Euler
    number 24; the typical ones are minus H at q^(k - 1/8)."""
    h = mathieu_h(24 * ncols - 2)
    return (-24, *(-h.at(24 * k - 3) for k in range(ncols)))


def twining_to_symtraces(a, f: TruncatedSeries, tmax: int) -> list:
    """Solve a phi_{0,1} + f phi_{-2,1} = sum_(n <= tmax) c_n ch_{M_n} for
    c_n = chi(g; X, S^n T), by Moebius inversion.

    The N=4 multiplicities are linear in (a, f): phi_{0,1} is half the
    genus, with massless multiplicity -24 and typical ones -H, and
    f phi_{-2,1} = -(f eta^-3) theta1^2/eta^3 adds -f eta^-3 to the typical
    ones.  So the massless multiplicity is -12 a, and the typical ones
    times eta^3 are a E_2 - 24 a F_2 - f (``mathieu_h``).  Row n of Table 3
    is the ``_V_WEIGHTS`` combination of h_(n+offset), and those weights
    are 1 - 2t + 2t^3 - t^4 = (1 - t)^3 (1 + t); with
    B(t) = (1 - t)^3 (1 + t) sum_n c_n t^n the typical side is
    sum_N b_N h_N eta^3.  Only rows 0 and 1 have a massless part, so the
    massless equation is b_1 = c_1 - 2 c_0 = -12 a; as h_1 eta^3 = 2 F_2,
    b_1 h_1 eta^3 cancels -24 a F_2, and what is left is Lambert
    (``h_series``):
        sum_(N != 1) b_N (N - 1)/(1 - q^(N-1)) = a E_2 - f = sum_m P_m q^m.
    Row by row the constant terms vanish but row 0's, so c_0 = P_0; at
    q^m, m >= 1, P_m = b_0 + sum_(d | m) d b_(d+1), and Moebius inversion,
    d beta_d = sum_(e | d) mu(d/e) P_e, gives b_(d+1) = beta_d - [d = 1] P_0.
    So B(t) = R(t) = P_0 - 12 a t - P_0 t^2 + sum_(d >= 1) beta_d t^(d+1)
    and c_n = R_n + 2 c_(n-1) - 2 c_(n-3) + c_(n-4).

    P_m runs on ints over one common denominator D, the sieve subtracts
    each d's sum from its multiples, and each beta_d is one exact division
    by d D: integrality is not assumed.  f must start at q^0 or later, or
    ValueError, and reach 24 max(tmax, 1) - 23, or
    InsufficientPrecisionError; ``a`` is exact and ``tmax`` an int >= 0.
    """
    a = canonical_rational(a, "a")
    require_int("tmax", tmax, 0)
    if f.terms and f.min_q24 < 0:
        raise ValueError("f must start at q^0 or later")
    n = max(tmax, 1)
    e2 = eisenstein_e2(24 * n - 23)
    (A, *fs), D = _over_common_denominator(
        [a, *(f.at(24 * m) for m in range(n))])
    p = [A * e2.at(24 * m) - fm for m, fm in enumerate(fs)]
    for d in range(1, n):           # the Moebius sieve: p[d] = d beta_d D
        for m in range(2 * d, n, d):
            p[m] -= p[d]
    c0 = exact_quotient(p[0], D)
    r = [c0, -12 * a, *(exact_quotient(p[d], d * D) for d in range(1, n))]
    if tmax >= 2:
        r[2] -= c0
    c: list = []
    for k in range(tmax + 1):       # divide R by the weights (lead 1)
        c.append(canonical_rational(r[k] - sum(
            w * c[k - o] for o, w in _V_WEIGHTS[1:] if o <= k)))
    return c
