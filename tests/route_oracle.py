"""The full-division and per-pair routes of the library, kept as oracles.

The library reads its y-free quotients off one column and its Galois
sums off two integer trace tables.  The routes here do the same work the
long way, as the library once did, and the tests compare the two:

  * ``decompose_two_divisions``: s * eta^3 divided twice by theta3, and
    the full polar_part / theta3 quotient subtracted;
  * ``jacobi_split_by_division``: the bivariate division by phi_{-2,1},
    whose lead -(y - 2 + 1/y) only ``division_oracle`` divides by;
  * ``galois_conjugate`` and ``table1_sum``: sigma_a applied to every
    coefficient, pair by pair, over Q(zeta_n);
  * ``table1_weight``: the weight w_n of each unit, read off the paper's
    Table 1 (``acceptance.TABLE1_FIXED_POINTS``), which every Table-1
    route here reads instead of the library's derivation from
    chi(g, O_X) = 2;
  * ``chi_symt_per_pair``: one inverse and one root-count sum per pair,
    over Q(zeta_n);
  * ``pole_coefficient_in_fractions``: Horner evaluation in Fractions;
  * ``weak_jacobi_phi_by_products``, ``fixed_point_term_by_division``,
    ``equivariant_genus_by_division``, ``weighted_genus_by_division``,
    ``twining_genus_by_products`` and ``moonshine_report_by_series``: the
    index-1 forms built as whole (q, y) series, by bivariate products and
    divisions, where the library builds their y^0 and y^1 columns as
    a phi_{0,1} + F phi_{-2,1} and rebuilds the rest by the elliptic law.
    Here phi_{0,1} is sum_k theta_k^2 * 4 theta_k(0)^-2 (three
    inversions), where the library applies the heat operator to
    phi_{-2,1}, and the fixed-point term is the lacunary double sum
    divided by theta1(u)^2 over Q(zeta_n), where the library reads it as
    phi_{0,1}/12 + wp(u) phi_{-2,1};
  * ``eta_power_by_inversion`` and ``weak_jacobi_columns_by_e2``: eta
    powers from the pentagonal eta (the inverse of eta raised to a power
    by products) and the columns of phi_{-2,1} and phi_{0,1} with the heat
    operator's E_2 product, where the library divides Jacobi's lacunary
    eta^3 and reads E_2 eta^-6 as -4 D(eta^-6);
  * ``polar_part_by_products`` and ``g_sum_by_products``: the Appell-Lerch
    sums as sums of products of geometric series (``inverse_fermion_factor``),
    padded by one q-order, where the library writes their closed double
    sums term by term.
  * ``twining_to_symtraces_by_decomposition``: the inverse problem on the
    whole (q, y) twining, flowed back to NS, sign-flipped in y and
    decomposed into N=4 characters once per twining, where the library
    reads the multiplicities linearly off the (a, f) pair;
  * ``twining_to_symtraces_by_solve``: the inverse problem on the (a, f)
    pair as a triangular solve against Table 3's rows and H's
    multiplicities, where the library Moebius-inverts a E_2 - f;
  * ``genus_multiplicities_by_decomposition``: the genus's N=4
    multiplicities from the whole (q, y) genus, decomposed into N=4
    characters, where the library reads H's closed form;
  * ``n4_decompose_by_decomposition`` and
    ``genus_decompose_by_decomposition``: the reports of the CLI's
    ``n4-decompose`` and ``genus-decompose`` from a (q, y) series built
    and decomposed into N=4 characters (ch_{V_N}, flowed to the Ramond
    sector and back for ``--sector R``, at ``truncation_in_sector``; the
    genus at ``twining_truncation``), where the CLI reads Table 3's rows
    and H in closed form;
  * ``h_triple_sum``: h_N eta^3 as the Appell-Lerch triple sum, for every
    N, where the library reads the Lambert series for N != 1 and 2 F_2 for
    N = 1, and ``h_triple_sum_pruned_without_cross_term``, the same sum
    with its loops bounded by the exponent less its cross term only;
  * ``h_series_by_product`` and ``typical_row_by_series``: h_N for N != 1
    as the geometric series (N - 1)/(1 - q^(N-1)) times eta^-3, one series
    product, and Table 3's rows read off the series combination
    h_N - 2 h_(N+1) + 2 h_(N+3) - h_(N+4), where the library adds running
    sums of eta^-3's coefficients on ints;
  * ``n4_character``: the typical N=4 characters q^(h-3/8) theta^2/eta^3
    as (q, y) series, which the library never builds: it reads every
    multiplicity in closed form, and the tests decompose these;
  * ``chern_root_elliptic_genus_z_graded``: the Chern-root product
    multiplied out with the Chern-root power as a third grading
    (``genus.expand_product``) and integrated term by term, where the
    library carries three moments of that power per (q, y) key.
  * ``fixed_point_sum_in_fractions`` (with ``equivariant_genus_in_fractions``
    and ``weighted_genus_in_fractions``), ``jacobi_split_in_fractions``,
    ``f_from_traces_in_fractions``, ``fit_in_m2_in_fractions`` (Gauss-Jordan
    on Fractions, with ``f_series_in_fractions``),
    ``linear_combinations_in_fractions`` (with
    ``m_chi_rational_in_fractions``) and ``expand_in_fractions``: the
    rational kernels with Fraction coefficients in their loops, where the
    library carries each over one integer denominator and divides once.
  * ``order_lattice_by_kernel``, ``intersect`` and
    ``smith_normal_form_by_elimination``: N_i as the integer kernel of the
    equal-order conditions projected to {1..8} plus the absent orders'
    unit vectors, the intersection of two lattices through the kernel of
    their stacked bases, and the Smith form by its own pivot search and
    row and column xgcd steps, where the library cuts N_i and N out by
    their orthogonality congruences and alternates Hermite forms;
  * ``nullspace_mod_by_gauss_jordan``, ``congruence_lattice_by_hermite``
    and ``contains_by_reduce``: the kernel mod p read off the reduced
    echelon form, the congruence lattice from the Hermite form of
    [m I; rows] and the columns of m H^-1 put into Hermite form again,
    and membership as a zero remainder modulo the basis, where the
    library eliminates forward and substitutes back, takes the Hermite
    form on the rows' distinct nonzero residues and on reversed
    coordinates, and tests a few congruences.

``fixed_point_term`` is no replaced route but one fixed-point term,
phi_{0,1}/12 + wp(u) phi_{-2,1} over Q(zeta_n), built on
``fixed_point_sum_in_fractions`` from ``wp_series``: the library only
reads the traces of its coefficients, and the tests compare the single
term with the division and product routes.
"""

from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, lcm

from k3moonshine.acceptance import TABLE1_FIXED_POINTS
from k3moonshine.chartab import format_rational
from k3moonshine.cyclotomic import CyclotomicNumber, zeta
from k3moonshine.genus import (
    CLASS_ORDER, MoonshineReport,
    _columns, chi_sym_power, elliptic_genus, expand_product,
)
from k3moonshine.lattice import (
    IntegerLattice, _integer_vector, _xgcd, hermite_normal_form, hnf_basis,
    integer_kernel,
)
from k3moonshine.mckay import (
    CLASS_LEVEL, euler_character_value, f_series, k_layer_trace, m2_basis,
    sigma_coefficients,
)
from k3moonshine.modforms import (
    eisenstein_e2, eta_power, eta_scaled, euler_specialization, index_one_form,
    jacobi_form_columns, jacobi_theta, weak_jacobi_columns, weak_jacobi_phi,
)
from k3moonshine.n4char import (
    _ETA3_LEAD, N4Multiplicities, _atypical_coefficient, _eta3_column,
    _genus_multiplicities, _typical_prefactor, _typical_row, ch_vn_h_form,
    decompose_into_n4, decomposition_truncation, genus_A_coefficients,
    polar_part, twining_truncation,
)
from k3moonshine.qpoly import (
    RationalFunction, _canonical, _cyclotomic_coeffs, _horner, _int_divexact,
    _int_mul, _over_common_denominator, _product_coeffs, canonical_rational,
    euler_phi, exact_quotient,
)
from k3moonshine.series import (
    InsufficientPrecisionError, NotInSpanError, TruncatedSeries,
)
from division_oracle import divide_by_slices
from series_tools import (
    as_rational, galois, galois_sum, geometric_factor, rational_value,
    root_sum, theta4, theta_s, trace,
)


def decompose_two_divisions(s):
    t = s.trunc24
    theta = jacobi_theta(3, t + 12)
    p_over_theta = polar_part(t + 12).divide_exact(theta)
    lead = min((k for k in p_over_theta.terms if k[1]), default=None)
    u = (s * eta_power(3, t + 12)).divide_exact(theta)
    h_full = u.divide_exact(theta)
    if lead is None or lead[0] >= h_full.trunc24:
        raise InsufficientPrecisionError(
            "input ends before the atypical coefficient can be read")
    a = exact_quotient(h_full.terms.get(lead, 0), p_over_theta.terms[lead])
    h = h_full - p_over_theta * a
    bad = [k for k in h.terms if k[1]]
    if bad:
        raise NotInSpanError("input is not in the N=4 span",
                             q24=min(k[0] for k in bad))
    typical = {Fraction(q24, 24) + Fraction(3, 8): c
               for (q24, _y2), c in h.terms.items()}
    return N4Multiplicities(a, typical, h.trunc24)


def jacobi_split_by_division(s):
    if s.is_zero():
        return 0, s
    lo = s.min_q24
    if any(abs(y2) > 2 for (q24, y2) in s.terms if q24 == lo):
        raise NotInSpanError("series does not have index-one shape", q24=lo)
    e = euler_specialization(s)
    support = e.q_support()
    if not support:
        a = 0
    elif support == [0]:
        a = exact_quotient(e.terms[(0, 0)], 12)
    else:
        raise NotInSpanError("Euler specialization is not constant",
                             q24=next(k for k in support if k != 0))
    phi0 = weak_jacobi_phi(0, s.trunc24)
    phim2 = weak_jacobi_phi(-2, s.trunc24)
    h = divide_by_slices(s - phi0 * a, phim2)
    if any(y2 for (_, y2) in h.terms):
        bad = min(q24 for (q24, y2) in h.terms if y2)
        raise NotInSpanError("split quotient depends on y", q24=bad)
    recon = phi0 * a + h * phim2
    if recon != s.truncate(min(recon.trunc24, s.trunc24)):
        raise NotInSpanError("reconstruction mismatch", q24=None)
    return a, h


def galois_conjugate(s, a):
    """zeta -> zeta^a on every coefficient of a cyclotomic series."""
    return TruncatedSeries({k: galois(c, a) for k, c in s.terms.items()},
                           s.trunc24)


@lru_cache(maxsize=None)
def wp_series(n, trunc24):
    """The q-series wp(u) of one fixed-point term over Q(zeta_n):
        wp(u) = 1/12 - 1/((1 - lam)(1 - lam^-1))
                + sum_(m>=1) sum_(d | m) d (lam^d - 2 + lam^-d) q^m
    at lam = zeta_n (``genus.equivariant_elliptic_genus``), the divisor
    sums as root counts from one sieve.  Memoized on the exact arguments
    (the series is read-only)."""
    top = (trunc24 - 1) // 24
    counts = [[0] * n for _ in range(top + 1)]
    for d in range(1, top + 1):
        for m in range(d, top + 1, d):
            counts[m][d % n] += d
            counts[m][-d % n] += d
            counts[m][0] -= 2 * d
    lead = Fraction(1, 12) - ((1 - zeta(n, 1)) * (1 - zeta(n, -1))).inverse()
    terms = {(0, 0): lead}
    for m in range(1, top + 1):
        terms[(24 * m, 0)] = root_sum(n, counts[m])
    return TruncatedSeries(terms, trunc24)


@lru_cache(maxsize=None)
def fixed_point_term(n, trunc24):
    """One fixed-point term as a (q, y) series over Q(zeta_n).  Memoized on
    the exact arguments (the series is read-only)."""
    twelfth = CyclotomicNumber.from_rational(n, Fraction(1, 12))
    return fixed_point_sum_in_fractions(n, trunc24, twelfth, lambda c: c)


def table1_weight(n):
    """w_n from the published Table 1: its fixed points over phi(n)."""
    return Fraction(sum(m for _, m in TABLE1_FIXED_POINTS[n]), euler_phi(n))


def table1_sum(label, trunc24):
    n = CLASS_ORDER[label]
    term = fixed_point_term(n, trunc24)
    total = TruncatedSeries.zero(trunc24)
    for a, mult in TABLE1_FIXED_POINTS[n]:
        total = total + galois_conjugate(term, a) * mult
    return as_rational(total)


def chi_symt_per_pair(label, terms):
    n = CLASS_ORDER[label]
    if n == 1:
        return [chi_sym_power(k) for k in range(terms)]
    pieces = []
    for a, mult in TABLE1_FIXED_POINTS[n]:
        dinv = ((1 - zeta(n, a)) * (1 - zeta(n, n - a))).inverse()
        pieces.append((a, dinv * mult))
    out = []
    for k in range(terms):
        total = CyclotomicNumber.from_rational(n, 0)
        for a, weight in pieces:
            counts = [0] * n
            for i in range(k + 1):
                counts[a * (2 * i - k) % n] += 1
            total = total + weight * root_sum(n, counts)
        out.append(rational_value(total))
    return out


def pole_coefficient_in_fractions(f, at, order):
    x = Fraction(at)
    d = {1: 1, -1: 2}.get(x)
    exps = dict(f._e)
    if order > exps.get(d, 0):
        raise ValueError(f"(t - {at})^{order} does not divide denominator")
    if order < exps.get(d, 0):
        raise ValueError("pole order higher than requested")
    rest = Fraction(1)
    for dd, e in f._e:
        if dd != d:
            rest *= _horner(_cyclotomic_coeffs(dd), x) ** e
    return f._c * _horner(f._n, x) / rest


# -- eta powers and weak Jacobi columns from the pentagonal eta -------------------

@lru_cache(maxsize=None)
def eta_power_by_inversion(power, trunc24):
    """eta^power as a product of pentagonal etas, or for a negative power
    the inverse of eta (one long division) multiplied -power times."""
    if power >= 0:
        out = TruncatedSeries.const(1, trunc24)
        for _ in range(power):
            out = out * eta_scaled(1, trunc24)
        return out.truncate(trunc24)
    inv = eta_scaled(1, trunc24 - power + 1).invert()
    out = inv
    for _ in range(-power - 1):
        out = out * inv
    return out.truncate(trunc24)


@lru_cache(maxsize=None)
def weak_jacobi_columns_by_e2(weight, trunc24):
    """The y^0 and y^1 columns of phi_{-2,1}, the lacunary columns of -S^2
    times eta^-6, and of phi_{0,1} by the heat operator with its E_2
    product: c_01 = (q24 - 6 r^2) c_r + 5 E_2 c_r on the y^r column."""
    t = trunc24 + 6
    y0, y1 = {}, {}
    i = 0
    while 24 * i * i + 6 < t:
        y1[(24 * i * i + 6, 0)] = -2 if i else -1
        if 6 * (2 * i + 1) ** 2 < t:
            y0[(6 * (2 * i + 1) ** 2, 0)] = 2
        i += 1
    if weight == -2:
        eta = eta_power_by_inversion(-6, t)
        return tuple((TruncatedSeries(c, t) * eta).truncate(trunc24)
                     for c in (y0, y1))
    e2 = eisenstein_e2(trunc24)
    columns = []
    for r, c in enumerate(weak_jacobi_columns_by_e2(-2, trunc24)):
        heat = TruncatedSeries({(q24, 0): (q24 - 6 * r * r) * v
                                for (q24, _y2), v in c.terms.items()},
                               c.trunc24)
        columns.append(heat + (e2 * c) * 5)
    return tuple(columns)


# -- index-1 forms as whole (q, y) series ----------------------------------------

@lru_cache(maxsize=None)
def weak_jacobi_phi_by_products(weight, trunc24):
    """phi_{0,1} as sum_k theta_k^2 * 4 theta_k(0)^-2, phi_{-2,1} as
    -S^2 eta^-6, each theta square a bivariate product."""
    t = trunc24 + 6
    if weight == -2:
        s = theta_s(t)
        return (-(s * s * eta_power_by_inversion(-6, t))).truncate(trunc24)
    total = TruncatedSeries.zero(trunc24)
    for theta in (jacobi_theta(2, t), jacobi_theta(3, t), theta4(t)):
        theta_null = euler_specialization(theta)
        inverse = (theta_null * theta_null).invert() * 4
        total = total + (theta * theta * inverse).truncate(trunc24)
    return total


@lru_cache(maxsize=None)
def fixed_point_term_by_division(n, trunc24):
    """-theta1(z+u) theta1(z-u) / theta1(u)^2 at e(u) = zeta_n: the whole
    lacunary double sum divided by its value at y = 1."""
    top = trunc24 + 6
    j_max = 1
    while 3 * (j_max + 2) ** 2 + 3 < top:
        j_max += 2
    odd = range(-j_max, j_max + 1, 2)
    num: dict = {}
    den: dict = {}
    for j in odd:
        for jj in odd:
            q24 = 3 * (j * j + jj * jj)
            if q24 >= top:
                continue
            sign = 1 if (j + jj) % 4 == 2 else -1
            e = (j - jj) // 2 % n
            num.setdefault((q24, j + jj), [0] * n)[e] += sign
            den.setdefault(q24, [0] * n)[e] += sign
    numerator = TruncatedSeries(
        {key: root_sum(n, c) for key, c in num.items()}, top)
    theta1_u_sq = TruncatedSeries(
        {(q24, 0): root_sum(n, c) for q24, c in den.items()}, top)
    return numerator.divide_exact(theta1_u_sq)


def _on_the_term(label, trunc24, value):
    term = fixed_point_term_by_division(CLASS_ORDER[label], trunc24)
    out = {key: value(c) for key, c in term.terms.items()}
    return TruncatedSeries(out, term.trunc24)


def equivariant_genus_by_division(label, trunc24):
    if CLASS_ORDER[label] == 1:
        return weak_jacobi_phi_by_products(0, trunc24) * 2
    pairs = TABLE1_FIXED_POINTS[CLASS_ORDER[label]]
    return _on_the_term(
        label, trunc24, lambda c: rational_value(galois_sum(c, pairs)))


def weighted_genus_by_division(label, trunc24):
    weight = table1_weight(CLASS_ORDER[label])
    return _on_the_term(label, trunc24, trace) * weight


def twining_genus_by_products(label, trunc24):
    e = exact_quotient(euler_character_value(label), 12)
    split = f_series(label, trunc24) * weak_jacobi_phi_by_products(-2, trunc24)
    if not e:
        return split
    return weak_jacobi_phi_by_products(0, trunc24) * e + split


def moonshine_report_by_series(label, f_g, trunc24):
    lhs = equivariant_genus_by_division(label, trunc24)
    a = exact_quotient(euler_character_value(label), 12)
    rhs = (weak_jacobi_phi_by_products(0, trunc24) * a
           + f_g * weak_jacobi_phi_by_products(-2, trunc24))
    t = min(lhs.trunc24, rhs.trunc24)
    diff = lhs - rhs
    if diff.is_zero():
        return MoonshineReport(label, True, None, t)
    return MoonshineReport(label, False, diff.min_q24, t)


# -- Appell-Lerch sums as products of geometric series -------------------------

def inverse_fermion_factor(exp2, y2, trunc24):
    """1/(1 + y^(y2/2) q^(exp2/2)) expanded in the region 0 < |q| < 1.

    ``exp2`` is twice the (half-integral, nonzero) q-exponent.  Negative
    exponents are rewritten toward positive powers of q before expanding.
    """
    if exp2 == 0:
        raise ValueError("exponent must be nonzero")
    if exp2 > 0:
        return geometric_factor(-1, 12 * exp2, y2, trunc24)
    flip = geometric_factor(-1, -12 * exp2, -y2, trunc24)
    pref = TruncatedSeries.monomial(1, -12 * exp2, -y2)
    return pref * flip


def g_sum_by_products(N, trunc24):
    """sum_m 1/((1 + y q^(m-1/2)) (1 + y^(-1) q^(N-m-1/2))), one product
    of two geometric series per m."""
    total = TruncatedSeries.zero(trunc24)
    lo, hi = min(0, N), max(0, N)
    m_values = list(range(lo, hi + 1))
    k = 1
    while 12 * (2 * k - 1) < trunc24:
        m_values.append(hi + k)
        m_values.append(lo - k)
        k += 1
    for m in m_values:
        a2 = 2 * m - 1
        b2 = 2 * (N - m) - 1
        mindeg = (-12 * a2 if a2 < 0 else 0) + (-12 * b2 if b2 < 0 else 0)
        if mindeg >= trunc24:
            continue
        total = total + inverse_fermion_factor(a2, 2, trunc24) * \
            inverse_fermion_factor(b2, -2, trunc24)
    return total


def polar_part_by_products(trunc24):
    """sum over alpha in Z+1/2 of y^(alpha+1/2) q^(alpha(alpha+1)/2) /
    (1+y q^alpha), each term a monomial times a geometric series built
    below trunc24 + 24."""
    total = TruncatedSeries.zero(trunc24)
    a2 = 1
    while True:
        alpha = Fraction(a2, 2)
        base = alpha * (alpha + 1) / 2
        if a2 > 1 and 24 * base >= trunc24:
            break
        pref = TruncatedSeries.monomial(1, int(24 * base), a2 + 1)
        total = total + pref * inverse_fermion_factor(a2, 2, trunc24 + 24)
        a2 += 2
    a2 = -1
    while True:
        alpha = Fraction(a2, 2)
        base = alpha * (alpha - 1) / 2  # alpha(alpha+1)/2 - alpha, rewritten
        if 24 * base >= trunc24:
            break
        pref = TruncatedSeries.monomial(1, int(24 * base), a2 - 1)
        total = total + pref * inverse_fermion_factor(-a2, -2, trunc24 + 24)
        a2 -= 2
    return total.truncate(trunc24)


# -- the typical N=4 characters as (q, y) series ---------------------------------

_THETA2_SQUARED_LEAD = 6        # theta2^2 = (y + 2 + 1/y) q^(1/4) + ...


def n4_character(h, sector: str, trunc24: int) -> TruncatedSeries:
    """Typical character q^(h-3/8) theta^2/eta^3 (theta3 NS, theta2 Ramond),
    the zero series when it leads at or past trunc24.

    The Ramond shape theta2^2 comes from spectral flow of the NS one.
    """
    h = Fraction(h)
    shift = int(24 * (h - Fraction(3, 8)))
    if 24 * (h - Fraction(3, 8)) != shift:
        raise ValueError("h - 3/8 must lie in (1/24) Z")
    lead = shift - _ETA3_LEAD + {"NS": 0, "R": _THETA2_SQUARED_LEAD}[sector]
    if lead >= trunc24:
        return TruncatedSeries.zero(trunc24)
    if sector == "NS":
        body = _typical_prefactor(trunc24 - shift)
    else:   # theta2 leads at q^(1/8), so theta2^2 is known 3 past theta2
        th = jacobi_theta(2, trunc24 - shift)
        body = th * th * eta_power(-3, trunc24 - shift - _THETA2_SQUARED_LEAD)
    return TruncatedSeries.monomial(1, shift) * body


# -- the inverse problem on the whole (q, y) twining, and by Table 3's rows -----

def twining_to_symtraces_by_decomposition(twining: TruncatedSeries, tmax: int,
                                          c1=None) -> list:
    """Solve twining = sum_(n <= tmax) c_n ch_{M_n} for c_n = chi(g; X, S^n T).

    The twining is flowed back to NS and decomposed into N=4 characters
    once; leftover y-dependence raises NotInSpanError there.  The
    multiplicities are then solved against Table 3's rows
    (``solve_against_table3``); ``c1`` pins c_1 in place of the massless
    equation.  The twining must reach ``twining_truncation(tmax)``; below
    that this raises InsufficientPrecisionError.
    """
    dec = decompose_into_n4(twining.spectral_flow(-1).substitute_y_sign())
    return solve_against_table3(
        dec.table_row(range(max(tmax, 1))), dec.atypical, tmax, c1)


def twining_to_symtraces_by_solve(a, f: TruncatedSeries, tmax: int) -> list:
    """c_n = chi(g; X, S^n T) from the (a, f) pair by a triangular solve
    against Table 3's rows.

    The typical multiplicities are a/2 times the genus's (minus H) minus
    [f eta^-3] at q^(k - 1/8), on ints over f's common denominator, and
    the massless one is a/2 times the genus's (``solve_against_table3``
    takes both).  f must start at q^0 or later, or ValueError, and reach
    24 max(tmax, 1) - 23, or InsufficientPrecisionError.
    """
    ncols = max(tmax, 1)
    if f.terms and f.min_q24 < 0:
        raise ValueError("f must start at q^0 or later")
    atypical, *genus = _genus_multiplicities(ncols)
    fs, d = _over_common_denominator([f.at(24 * j) for j in range(ncols)])
    e = _eta3_column(ncols)
    mults = [exact_quotient(a * m, 2)
             - exact_quotient(sum(fs[j] * e[k - j] for j in range(k + 1)), d)
             for k, m in enumerate(genus)]
    return solve_against_table3(
        mults, exact_quotient(a * atypical, 2), tmax)


def solve_against_table3(mults, massless, tmax: int, c1=None) -> list:
    """c_0 .. c_tmax from the typical multiplicities mults[k] at
    h = 1/4 + k and the massless one.

    The system is triangular: row n of Table 3 leads at column n - 1 for
    n >= 2, and row 1, the only row besides row 0 with a massless block,
    leads at column 3.  So c_0 comes from column 0, c_1 from the massless
    equation and c_(k+1) from column k, each by one exact division.
    ``c1`` pins c_1 instead and drops the massless equation: the typical
    columns alone leave a one-parameter family.  Integrality is not
    assumed.
    """
    rows = [_typical_row(n, max(tmax, 1)) for n in range(tmax + 1)]
    coeffs: dict = {}

    def solve_column(k):
        unknown = [n for n in range(tmax + 1) if rows[n][k] and n not in coeffs]
        if len(unknown) != 1:
            raise NotInSpanError(f"column {k} has unknowns {unknown}",
                                 q24=24 * k - 3)
        known = sum(c * rows[n][k] for n, c in coeffs.items())
        n = unknown[0]
        coeffs[n] = exact_quotient(mults[k] - known, rows[n][k])

    solve_column(0)
    if tmax >= 1:
        if c1 is not None:
            coeffs[1] = canonical_rational(c1)
        else:
            coeffs[1] = exact_quotient(
                massless - _atypical_coefficient(0) * coeffs[0],
                _atypical_coefficient(1))
    for k in range(1, tmax):
        solve_column(k)
    return [coeffs[n] for n in range(tmax + 1)]


# -- the genus's multiplicities by decomposition ---------------------------------

def genus_multiplicities_by_decomposition(ncols: int) -> tuple:
    """The elliptic genus's massless multiplicity, then its typical ones at
    h = 1/4 + k for k < ncols: one decomposition per process and ncols."""
    dec = genus_A_coefficients(
        ncols - 1, elliptic_genus(twining_truncation(ncols)))
    return (-dec.atypical, *(-a for a in dec.A))


# -- the CLI's decomposing commands ---------------------------------------------

def flow_truncation(need: int, lowest24: int) -> int:
    """The least T = lowest24 + 24 m at which a series from lowest24 on
    flows (either way) to below need: the y-envelope costs 6 m + 18."""
    return lowest24 + 24 * -(-(need - lowest24 + 18) // 18)


def truncation_in_sector(ncols: int, sector: str) -> int:
    """The trunc24 at which ch_{V_N} is built to read the columns k < ncols:
    for NS ``decomposition_truncation``, for R the trunc24 whose flow
    to the Ramond sector reaches ``twining_truncation(ncols)``."""
    if sector == "R":
        return flow_truncation(twining_truncation(ncols), -6)
    return decomposition_truncation(ncols)


def n4_decompose_by_decomposition(n: int, q_order: int, sector: str):
    """``n4-decompose``'s (report, exit code): ch_{V_N} decomposed, and for
    R flowed to the Ramond sector and back first."""
    s = ch_vn_h_form(n, truncation_in_sector(q_order, sector))
    if sector == "R":
        s = s.spectral_flow(+1).spectral_flow(-1)
    dec = decompose_into_n4(s)
    cols = list(range(q_order))
    return {"title": f"N=4 decomposition of ch_V{n} ({sector})",
            "atypical": format_rational(dec.atypical),
            "columns": [f"h=1/4+{k}" for k in cols],
            "rows": [[format_rational(v) for v in dec.table_row(cols)]]}, 0


def genus_decompose_by_decomposition(q_order: int):
    """``genus-decompose``'s (report, exit code): the (q, y) genus
    decomposed, exit code 1 unless the massless multiplicity is 24."""
    genus = elliptic_genus(twining_truncation(q_order + 1))
    dec = genus_A_coefficients(q_order, genus)
    return {"title": "elliptic genus into N=4 characters",
            "massless_multiplicity": format_rational(dec.atypical),
            "columns": ["n", "A_n"],
            "rows": [[n, format_rational(a)] for n, a in enumerate(dec.A)]}, \
        0 if dec.atypical == 24 else 1


# -- h_N eta^3 as the Appell-Lerch triple sum, pruned two ways ------------------

def h_triple_sum(M: int, trunc24: int) -> TruncatedSeries:
    """h_N eta^3 at M = N - 1: the triple sum over m, r, s in Z + 1/2 with
    r, s > 0 of (-1)^(r+s+1) q^(r|m| + s|M-m| + (sgn(m) r + sgn(m-M) s)^2/2 - M/2),
    the oracle of every h_N."""
    # On the doubled odd indices m2 = 2m, rr = 2r, ss = 2s the exponent is
    # 24 E = 6 rr |m2| + 6 ss |2M - m2| + 3 (sg rr + tg ss)^2 - 12 M, an
    # integer by construction, so every term lies on the (1/24) grid.  The
    # cross term is >= 0, so 6 rr |m2| + 6 ss |2M - m2| - 12 M < trunc24
    # bounds all loops.  24 E itself grows in ss where sg = tg, and where
    # sg = -tg (cross term 3 (rr - ss)^2) once ss >= rr, so there the ss
    # loop stops at the first term at or past trunc24.  Each term of row
    # rr + 2 exceeds one of row rr ((rr, ss) -> (rr + 2, ss + 2) adds
    # 2 am + 2 bm or more, and ss = 1 grows too), so a row with no term
    # below trunc24 ends the rr loop.
    acc: dict = {}
    width = trunc24 // 12 + abs(M) + 4
    m2_lo = 2 * min(0, M) - width
    if m2_lo % 2 == 0:
        m2_lo -= 1
    m2_hi = 2 * max(0, M) + width
    for m2 in range(m2_lo, m2_hi + 1, 2):
        am, bm = 6 * abs(m2), 6 * abs(2 * M - m2)
        sg = 1 if m2 > 0 else -1
        tg = 1 if m2 > 2 * M else -1
        rr = 1
        while rr * am + bm - 12 * M < trunc24:
            base = rr * am - 12 * M
            ss, row_empty = 1, True
            while base + ss * bm < trunc24:
                q24 = base + ss * bm + 3 * (sg * rr + tg * ss) ** 2
                if q24 < trunc24:
                    row_empty = False
                    c = acc.get(q24, 0) + (1 if (rr + ss) // 2 % 2 else -1)
                    if c:
                        acc[q24] = c
                    else:
                        del acc[q24]
                elif sg == tg or ss >= rr:
                    break
                ss += 2
            if row_empty:
                break
            rr += 2
    terms = {(q24, 0): c for q24, c in acc.items()}
    return TruncatedSeries(terms, trunc24, _clean=True)


def h_triple_sum_pruned_without_cross_term(M: int, trunc24: int) -> TruncatedSeries:
    # On the doubled odd indices m2 = 2m, rr = 2r, ss = 2s the exponent is
    # 24 E = 6 rr |m2| + 6 ss |2M - m2| + 3 (sg rr + tg ss)^2 - 12 M, an
    # integer by construction, so every term lies on the (1/24) grid.  The
    # cross term is >= 0, so 6 rr |m2| + 6 ss |2M - m2| - 12 M < trunc24
    # prunes all loops.
    acc: dict = {}
    width = trunc24 // 12 + abs(M) + 4
    m2_lo = 2 * min(0, M) - width
    if m2_lo % 2 == 0:
        m2_lo -= 1
    m2_hi = 2 * max(0, M) + width
    for m2 in range(m2_lo, m2_hi + 1, 2):
        am, bm = 6 * abs(m2), 6 * abs(2 * M - m2)
        sg = 1 if m2 > 0 else -1
        tg = 1 if m2 > 2 * M else -1
        rr = 1
        while rr * am + bm - 12 * M < trunc24:
            base = rr * am - 12 * M
            ss = 1
            while base + ss * bm < trunc24:
                q24 = base + ss * bm + 3 * (sg * rr + tg * ss) ** 2
                if q24 < trunc24:
                    c = acc.get(q24, 0) + (1 if (rr + ss) // 2 % 2 else -1)
                    if c:
                        acc[q24] = c
                    else:
                        del acc[q24]
                ss += 2
            rr += 2
    terms = {(q24, 0): c for q24, c in acc.items()}
    return TruncatedSeries(terms, trunc24, _clean=True)


# -- h_N and Table 3 by series products, the Chern-root product z-graded -------

@lru_cache(maxsize=None)
def h_series_by_product(N: int, trunc24: int) -> TruncatedSeries:
    """h_N = (N - 1)/((1 - q^(N-1)) eta^3) for N != 1: (N-1) sum_(j>=0)
    q^((N-1)j) for N >= 2 and (1-N) sum_(j>=1) q^((1-N)j) for N <= 0,
    times eta^-3; h_1 the triple sum over eta^3, where the library reads
    2 F_2.  Memoized on the exact
    arguments (the series is read-only)."""
    t = trunc24 + 3
    M = N - 1
    if M:
        step = 24 * abs(M)
        body = TruncatedSeries(
            {(q24, 0): abs(M) for q24 in range(step if M < 0 else 0, t, step)},
            t)
    else:
        body = h_triple_sum(0, t)
    return body * eta_power(-3, trunc24)


def typical_row_by_series(N: int, ncols: int) -> tuple:
    """Row N of Table 3 off the series h_N - 2 h_(N+1) + 2 h_(N+3) - h_(N+4)
    at 24 ncols - 26, read at q^(k - 1/8) for k < ncols."""
    t = 24 * ncols - 26
    h = partial(h_series_by_product, trunc24=t)
    combo = h(N) - h(N + 1) * 2 + h(N + 3) * 2 - h(N + 4)
    return tuple(combo.at(24 * k - 3) for k in range(ncols))


def chern_root_elliptic_genus_z_graded(trunc24: int) -> TruncatedSeries:
    """y^-1 (1 - y x)(1 - y/x) prod_(n>=1) (1 - y^+-1 x^+-1 q^n) over the
    four sign pairs and (1 - x^+-1 q^n)^-2, multiplied out with the power
    m of x as a third grading, each x^m then integrated to 2 - 12 m^2."""
    orders = range(24, trunc24, 24)
    fermions = [(-1, 0, 2, 1), (-1, 0, 2, -1)]
    fermions += [(-1, a, y2, m) for a in orders for y2 in (2, -2)
                 for m in (1, -1)]
    bosons = [(a, m) for a in orders for m in (1, -1)]
    out: dict = {}
    for (q24, y2, m), c in expand_product(
            (0, -2, 0), fermions, bosons, trunc24).items():
        out[(q24, y2)] = out.get((q24, y2), 0) + c * (2 - 12 * m * m)
    return TruncatedSeries(out, trunc24)


# -- the rational kernels with Fractions in their loops -------------------------

def fixed_point_sum_in_fractions(n, trunc24, a, value):
    """a phi_{0,1} + F phi_{-2,1}, F the series of value(c) on the
    coefficients c of wp(u), the products on the values as they come."""
    wp = wp_series(n, trunc24)
    f = TruncatedSeries({k: value(c) for k, c in wp.terms.items()}, trunc24)
    return index_one_form(*jacobi_form_columns(a, f, trunc24))


def equivariant_genus_in_fractions(label, trunc24):
    n = CLASS_ORDER[label]
    pairs = TABLE1_FIXED_POINTS[n]
    return fixed_point_sum_in_fractions(
        n, trunc24, exact_quotient(sum(m for _, m in pairs), 12),
        lambda c: rational_value(galois_sum(c, pairs)))


def weighted_genus_in_fractions(label, trunc24):
    n = CLASS_ORDER[label]
    return fixed_point_sum_in_fractions(
        n, trunc24, Fraction(euler_phi(n), 12), trace) * table1_weight(n)


def jacobi_split_in_fractions(s):
    """a = e_0/12 first, then h from the y^0 columns of s - a phi_{0,1}."""
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
    a = exact_quotient(e.terms.get((0, 0), 0), 12)
    phi0 = weak_jacobi_columns(0, s.trunc24)
    y0, y1 = (col - p * a for col, p in zip(columns, phi0))
    phim2 = weak_jacobi_columns(-2, s.trunc24)
    lead = min((c.min_q24 for c in (y0, y1) if c.terms), default=y0.trunc24)
    known = min(y0.trunc24, phim2[0].trunc24 + lead)
    h = y0.divide_exact(phim2[0]).truncate(known)
    residual = y1 - h * phim2[1]
    if residual.terms:
        raise NotInSpanError("series is not a phi_{0,1} + h(q) phi_{-2,1}",
                             q24=residual.min_q24)
    return a, h


def f_from_traces_in_fractions(label):
    """eta^3 (Sigma_g - e(g)/24 Sigma) with the Fraction e(g)/24."""
    A = sigma_coefficients()
    e = Fraction(euler_character_value(label), 24)
    t = len(A) * 24
    diff = TruncatedSeries({(24 * n - 3, 0): k_layer_trace(n, label) - e * a
                            for n, a in enumerate(A)}, t - 3)
    f = diff * eta_power(3, t)
    return [f.coeff(n) for n in range(len(A))]


def _solve_square(mat, vec):
    """Gauss-Jordan elimination on Fractions; None for a singular mat."""
    n = len(vec)
    for col in range(n):
        piv = next((i for i in range(col, n) if mat[i][col]), None)
        if piv is None:
            return None
        mat[col], mat[piv] = mat[piv], mat[col]
        vec[col], vec[piv] = vec[piv], vec[col]
        inv = exact_quotient(1, mat[col][col])
        mat[col] = [x * inv for x in mat[col]]
        vec[col] = vec[col] * inv
        for i in range(n):
            if i != col and mat[i][col]:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[col])]
                vec[i] = vec[i] - f * vec[col]
    return vec


def fit_in_m2_in_fractions(prefix, level, trunc24, basis=None):
    """The fit on Fraction coefficients; ``basis`` defaults to m2_basis."""
    if basis is None:
        basis = m2_basis(level, max(trunc24, 24 * len(prefix)))
    dim = len(basis)
    if len(prefix) < dim + 1:
        raise ValueError(f"need more than {dim} coefficients at level {level}")
    rows = [[b.coeff(n) for b in basis] for n in range(len(prefix))]
    coeffs = _solve_square([row[:] for row in rows[:dim]], list(prefix[:dim]))
    if coeffs is None:
        raise ArithmeticError(f"M_2 basis at level {level} is degenerate")
    for n in range(dim, len(prefix)):
        got = sum(c * rows[n][j] for j, c in enumerate(coeffs))
        if got != prefix[n]:
            raise ArithmeticError(
                f"level-{level} fit fails at q^{n}: {got} != {prefix[n]}")
    return sum((b * c for c, b in zip(coeffs, basis)),
               TruncatedSeries.zero(trunc24))


def f_series_in_fractions(label, trunc24):
    if label == "1A":
        return TruncatedSeries.zero(trunc24)
    return fit_in_m2_in_fractions(
        f_from_traces_in_fractions(label), CLASS_LEVEL[label], trunc24)


def linear_combinations_in_fractions(forms, rows):
    """Each row's weights times the forms' contents as Fractions."""
    forms = list(forms)
    common: dict = {}
    for f in forms:
        for d, e in f._e:
            common[d] = max(common.get(d, 0), e)
    den = _product_coeffs(common.items())
    lifted = [_int_mul(f._n, _int_divexact(den, _product_coeffs(f._e)))
              for f in forms]
    width = max(map(len, lifted), default=0)
    out = []
    for row in rows:
        scales = [Fraction(w) * f._c for w, f in zip(row, forms)]
        scale = lcm(*(s.denominator for s in scales))
        acc = [0] * width
        for s, coeffs in zip(scales, lifted):
            k = s.numerator * (scale // s.denominator)
            if k:
                for i, x in enumerate(coeffs):
                    acc[i] += k * x
        out.append(RationalFunction._of(*_canonical(
            Fraction(1, scale), acc, common)))
    return out


def m_chi_rational_in_fractions(table, forms):
    weights = [[Fraction(c.size) * ch.values[idx] / table.order / ch.orbit_size
                for idx, c in enumerate(table.classes)]
               for ch in table.characters]
    sums = linear_combinations_in_fractions(
        [forms[c.label] for c in table.classes], weights)
    return {ch.name: (m, m.pole_coefficient(Fraction(1), 4))
            for ch, m in zip(table.characters, sums)}


def expand_in_fractions(f, terms):
    """The power series of f with its content multiplied in as a Fraction."""
    den = _product_coeffs(f._e)
    out = []
    for k in range(terms):
        acc = f._n[k] if k < len(f._n) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc * den[0])
    return [f._c * x for x in out]


# -- the lattice suite by kernels, intersections and a Smith elimination ------

def order_lattice_by_kernel(table) -> IntegerLattice:
    """N_i: the characters constant on classes of equal element order,
    projected to the occurring orders, plus a unit vector per absent
    order."""
    by_order: dict = {}
    for idx, c in enumerate(table.classes):
        by_order.setdefault(c.order, []).append(idx)
    conditions = [(a, b) for idxs in by_order.values()
                  for a, b in zip(idxs, idxs[1:])]
    chars = table.characters
    if conditions:
        kernel = integer_kernel([[ch.values[a] - ch.values[b]
                                  for a, b in conditions] for ch in chars])
    else:
        kernel = [[int(i == j) for j in range(len(chars))]
                  for i in range(len(chars))]
    vecs = []
    for coeffs in kernel:
        vec = [0] * 8
        for o, idxs in by_order.items():
            vec[o - 1] = sum(c * ch.values[idxs[0]]
                             for c, ch in zip(coeffs, chars))
        vecs.append(vec)
    vecs.extend([int(i == o - 1) for i in range(8)]
                for o in range(1, 9) if o not in by_order)
    return hnf_basis(vecs, ambient=8)


def intersect(a: IntegerLattice, b: IntegerLattice) -> IntegerLattice:
    """a meet b: the kernel of a's and b's stacked bases, read on a's."""
    kern = integer_kernel([list(r) for r in a.basis + b.basis])
    vecs = []
    for x in kern:
        vec = [0] * a.ambient
        for c, row in zip(x, a.basis):
            vec = [u + c * v for u, v in zip(vec, row)]
        vecs.append(vec)
    return IntegerLattice(a.ambient, vecs)


def smith_normal_form_by_elimination(matrix):
    """Invariant factors by pivot search and row and column xgcd steps."""
    if not matrix or not matrix[0]:
        return []
    a = [_integer_vector(row) for row in matrix]
    m, n = len(a), len(a[0])
    factors = []
    top = 0
    while top < m and top < n:
        piv = next(((i, j) for i in range(top, m) for j in range(top, n)
                    if a[i][j]), None)
        if piv is None:
            break
        i0, j0 = piv
        a[top], a[i0] = a[i0], a[top]
        for row in a:
            row[top], row[j0] = row[j0], row[top]
        while True:
            for i in range(top + 1, m):
                while a[i][top]:
                    p, v = a[top][top], a[i][top]
                    if v % p == 0:
                        a[i] = [x - v // p * y for x, y in zip(a[i], a[top])]
                    else:
                        g, x, y = _xgcd(p, v)
                        r_top, r_i = a[top], a[i]
                        a[top] = [x * s + y * t for s, t in zip(r_top, r_i)]
                        a[i] = [-(v // g) * s + (p // g) * t
                                for s, t in zip(r_top, r_i)]
            row_clear = True
            for j in range(top + 1, n):
                while a[top][j]:
                    p, v = a[top][top], a[top][j]
                    if v % p == 0:
                        for row in a:
                            row[j] -= v // p * row[top]
                    else:
                        g, x, y = _xgcd(p, v)
                        for row in a:
                            s, t = row[top], row[j]
                            row[top] = x * s + y * t
                            row[j] = -(v // g) * s + (p // g) * t
                        row_clear = False
            if row_clear and all(a[i][top] == 0 for i in range(top + 1, m)):
                break
        factors.append(abs(a[top][top]))
        top += 1
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            x, y = factors[i], factors[i + 1]
            if y % x:
                factors[i], factors[i + 1] = gcd(x, y), x * y // gcd(x, y)
                changed = True
    return factors


def nullspace_mod_by_gauss_jordan(a, p):
    """Basis of {v : a v = 0 mod p}, read off the reduced echelon form."""
    n_rows = len(a)
    n_cols = len(a[0])
    a = [list(row) for row in a]
    pivots = []
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if a[i][c] % p), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(n_rows):
            if i != r and a[i][c] % p:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n_cols
        v[fc] = 1
        for row_i, pc in enumerate(pivots):
            v[pc] = (-a[row_i][fc]) % p
        basis.append(v)
    return basis


def congruence_lattice_by_hermite(rows, modulus, ambient) -> IntegerLattice:
    """{x : r . x = 0 mod modulus}: the columns of modulus H^-1 for H the
    Hermite form of [modulus I; rows], by back substitution."""
    if modulus < 1:
        raise ValueError(f"modulus {modulus} is not positive")
    h = hermite_normal_form(
        [[modulus if i == j else 0 for j in range(ambient)]
         for i in range(ambient)] + list(rows))
    columns = []
    for j in range(ambient):
        x = [0] * ambient
        x[j] = modulus // h[j][j]
        for i in range(j - 1, -1, -1):
            x[i] = -sum(h[i][k] * x[k] for k in range(i + 1, j + 1)) // h[i][i]
        columns.append(x)
    return IntegerLattice(ambient, columns)


def contains_by_reduce(lattice: IntegerLattice, vec) -> bool:
    """Membership as a zero remainder modulo the Hermite basis."""
    v, _ = lattice.reduce(vec)
    return not any(v)
