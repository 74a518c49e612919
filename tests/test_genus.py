from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest

from k3moonshine.acceptance import TABLE1_FIXED_POINTS
from k3moonshine.cyclotomic import zeta
from k3moonshine.qpoly import RationalFunction
from k3moonshine.series import NotInSpanError, TruncatedSeries
from k3moonshine.modforms import euler_specialization, weak_jacobi_phi
from k3moonshine.genus import (
    CLASS_ORDER, SYMPLECTIC_CLASSES, chern_root_elliptic_genus,
    chi_sym_power, chi_symt_series, elliptic_genus, equivariant_elliptic_genus, fixed_point_count,
    fixed_point_types, MoonshineReport, _traces, jacobi_split, rational_form,
    unit_weight, verify_moonshine_class,
)
from k3moonshine.qpoly import euler_phi
from route_oracle import (
    fixed_point_term, galois_conjugate, table1_sum, table1_weight,
)
from series_tools import (
    as_rational, binomial_factor, galois, geometric_factor, is_y_symmetric,
    root_sum, trace,
)

T5 = 5 * 24


@lru_cache(maxsize=None)
def product_fixed_point_term(n, a, trunc24):
    """Oracle: the fixed point of (zeta_n^a, zeta_n^-a) as the product

        y^-1 (1 - lam y)(1 - y / lam) / ((1 - lam)(1 - 1/lam))
        * prod_k (1 - lam y q^k)(1 - q^k / (lam y))(1 - y q^k / lam)
                 (1 - lam q^k / y) / ((1 - lam q^k)^2 (1 - q^k / lam)^2),

    multiplied out factor by factor in Q(zeta_n); the y-free factors are
    collected in their own q-series first.
    """
    lam = zeta(n, a)
    lam_inv = zeta(n, n - a)
    dinv = ((1 - lam) * (1 - lam_inv)).inverse()
    num = (TruncatedSeries.monomial(Fraction(1), 0, -2, trunc24)
           * binomial_factor(-lam, 0, 2) * binomial_factor(-lam_inv, 0, 2))
    den = TruncatedSeries.const(dinv, trunc24)
    k = 1
    while 24 * k < trunc24:
        for lam_f, y2 in ((lam, 2), (lam_inv, -2), (lam_inv, 2), (lam, -2)):
            num = num * binomial_factor(-lam_f, 24 * k, y2)
        for root in (lam, lam_inv):
            den = den * geometric_factor(root, 24 * k, 0, trunc24, power=2)
        k += 1
    return num * den


def _units(n):
    return [a for a in range(1, n) if gcd(a, n) == 1]


def _same(s, t):
    return s.trunc24 == t.trunc24 and dict(s.terms) == dict(t.terms)


def test_chi_sym_power_values():
    assert [chi_sym_power(n) for n in range(7)] == \
        [2, -20, -90, -232, -470, -828, -1330]


def test_chi_symt_series_2a():
    assert chi_symt_series("2A", 4) == [2, -4, 6, -8]


def test_chi_symt_leading_is_two_everywhere():
    for label in SYMPLECTIC_CLASSES:
        assert chi_symt_series(label, 1)[0] == 2


def test_chi_symt_integrality():
    for label in SYMPLECTIC_CLASSES:
        for c in chi_symt_series(label, 12):
            assert c.denominator == 1


def test_chi_symt_8a_matches_rational_form():
    expected = RationalFunction((2, 2, 2), {8: 1}).expand(10)
    assert chi_symt_series("8A", 10) == expected


def test_rational_forms_match_published_display():
    expected = {
        "1A": RationalFunction((2, -28, 2), {1: 4}),
        "2A": RationalFunction(2, {2: 2}),
        "3A": RationalFunction(2, {3: 1}),
        "4A": RationalFunction(2, {4: 1}),
        "5A": RationalFunction((2, 2, 2), {5: 1}),
        "6A": RationalFunction(2, {6: 1}),
        "7AB": RationalFunction((2, 3, 4, 3, 2), {7: 1}),
        "8A": RationalFunction((2, 2, 2), {8: 1}),
    }
    for label, want in expected.items():
        assert rational_form(label) == want, label


def test_rational_form_numerators_palindromic():
    for label in SYMPLECTIC_CLASSES:
        if label == "1A":
            continue
        r = rational_form(label)
        assert r.num == r.num[::-1]
        assert len(r.num) == len(r.den) - 2


def test_elliptic_genus_q0():
    eg = elliptic_genus(T5)
    assert eg.coeff(0, y=-1) == 2
    assert eg.coeff(0, y=0) == 20
    assert eg.coeff(0, y=1) == 2
    assert is_y_symmetric(eg)


def test_elliptic_genus_euler_constant_24():
    eg = elliptic_genus(T5)
    e = euler_specialization(eg)
    assert e.coeff(0) == 24
    for k in range(1, 5):
        assert e.coeff(k) == 0


def test_elliptic_genus_equals_twice_phi01():
    # the theta-built 2 phi_{0,1} against the Chern-root product oracle:
    # same terms and the same trunc24, past the genus-decompose default (q^8)
    for q_order in (1, 5, 6, 8, 16):
        t = q_order * 24
        assert _same(elliptic_genus(t), chern_root_elliptic_genus(t)), q_order


def test_equivariant_2a():
    s = equivariant_elliptic_genus("2A", 4 * 24)
    assert s.coeff(0, y=-1) == 2
    assert s.coeff(0, y=0) == 4
    assert s.coeff(0, y=1) == 2
    e = euler_specialization(s)
    assert e.coeff(0) == 8
    for k in range(1, 4):
        assert e.coeff(k) == 0


def test_equivariant_euler_equals_fixed_point_count():
    for label in SYMPLECTIC_CLASSES:
        if label == "1A":
            continue
        s = equivariant_elliptic_genus(label, 3 * 24)
        e = euler_specialization(s)
        assert e.coeff(0) == fixed_point_count(label), label
        assert e.coeff(1) == 0 and e.coeff(2) == 0


def test_equivariant_genus_is_memoized():
    first = equivariant_elliptic_genus("3A", 2 * 24)
    hits = equivariant_elliptic_genus.cache_info().hits
    assert equivariant_elliptic_genus("3A", 2 * 24) is first
    assert equivariant_elliptic_genus.cache_info().hits == hits + 1


def test_weighted_form_matches_fixed_point_formula():
    # the genus, w_n times a trace, against the Table-1 sum pair by pair
    for label in ("2A", "5A", "7AB", "8A"):
        a = equivariant_elliptic_genus(label, 3 * 24)
        b = table1_sum(label, 3 * 24)
        assert a == b, label


@pytest.mark.parametrize("n", range(2, 13))
def test_trace_tables_match_the_unit_sums(n):
    # the sum of sigma_a(x) over the units a, on zeta powers, for
    # x = zeta_n^k and zeta_n^k / ((1 - zeta_n)(1 - zeta_n^-1)), every k
    ramanujan, u12 = _traces(n)
    dinv = ((1 - zeta(n)) * (1 - zeta(n, -1))).inverse()
    assert len(ramanujan) == len(u12) == n
    for k in range(n):
        root = root_sum(n, [int(j == k) for j in range(n)])
        assert ramanujan[k] == trace(root) and type(ramanujan[k]) is int
        assert u12[k] == 12 * trace(root * dinv) and type(u12[k]) is int


def _unique_solution(columns, rhs):
    """The one x with sum_j x_j columns[j] = rhs, over Q, or None when the
    system has no solution or more than one (Gauss-Jordan elimination)."""
    rows = [[Fraction(c[i]) for c in columns] + [Fraction(rhs[i])]
            for i in range(len(rhs))]
    k, rank = len(columns), 0
    for j in range(k):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][j]), None)
        if pivot is None:
            return None
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank]
        lead[:] = [v / lead[j] for v in lead]
        for r, row in enumerate(rows):
            if r != rank and row[j]:
                row[:] = [v - row[j] * w for v, w in zip(row, lead)]
        rank += 1
    if any(row[k] for row in rows[rank:]):
        return None
    return [rows[j][k] for j in range(k)]


@pytest.mark.parametrize("n", range(2, 31))
def test_lefschetz_formula_has_the_uniform_weight_alone(n):
    # chi(g, O_X) = 2: sum_a m_a / ((1 - zeta^a)(1 - zeta^-a)) = 2 over the
    # units, m_a = m_-a, solved in the coordinates of Q(zeta_n); a type
    # {a, -a} with m_a fixed points per unit enters for a and -a, but once
    # at n = 2, where a = -a
    x = ((1 - zeta(n)) * (1 - zeta(n, -1))).inverse()
    reps = [a for a in _units(n) if 2 * a <= n]
    columns = [(galois(x, a) * (1 if 2 * a == n else 2)).c for a in reps]
    two = [2] + [0] * (euler_phi(n) - 1)
    assert _unique_solution(columns, two) == [unit_weight(n)] * len(reps)


def test_the_seven_orders_are_derived():
    # 2 w_n fixed points of each type is an integer for the orders of the
    # seven classes and for no other n <= 30 (Nikulin's bound n <= 8)
    orders = {n for n in CLASS_ORDER.values() if n > 1}
    assert {n for n in range(2, 31)
            if (2 * unit_weight(n)).denominator == 1} == orders
    for n in set(range(2, 31)) - orders:
        with pytest.raises(ValueError, match=f"order {n}"):
            fixed_point_types(n)


@pytest.mark.parametrize("label", SYMPLECTIC_CLASSES[1:])
def test_derived_fixed_points_match_table1_and_m24(label):
    # the derived types are the published Table 1, and w_n phi(n) fixed
    # points are the 1-cycles of the class's M24 cycle shape
    from k3moonshine.mckay import euler_character_value
    n = CLASS_ORDER[label]
    assert fixed_point_types(n) == TABLE1_FIXED_POINTS[n]
    assert unit_weight(n) == table1_weight(n)
    assert unit_weight(n) * euler_phi(n) == fixed_point_count(label) \
        == euler_character_value(label)


@pytest.mark.parametrize("n", sorted(TABLE1_FIXED_POINTS))
def test_fixed_point_term_matches_product_oracle(n):
    for t in (24, 2 * 24, 4 * 24, 6 * 24, 12 * 24):
        term = fixed_point_term(n, t)
        for a in _units(n):
            assert _same(galois_conjugate(term, a),
                         product_fixed_point_term(n, a, t)), (a, t)


@pytest.mark.parametrize("t", (4 * 24, 6 * 24))
def test_public_genera_match_product_sums(t):
    for label in SYMPLECTIC_CLASSES[1:]:
        n = CLASS_ORDER[label]
        table1 = TruncatedSeries.zero(t)
        for a, mult in TABLE1_FIXED_POINTS[n]:
            table1 = table1 + product_fixed_point_term(n, a, t) * mult
        assert _same(equivariant_elliptic_genus(label, t),
                     as_rational(table1)), label
        units = TruncatedSeries.zero(t)
        for a in _units(n):
            units = units + product_fixed_point_term(n, a, t)
        assert _same(equivariant_elliptic_genus(label, t),
                     as_rational(units * table1_weight(n))), label


@pytest.mark.parametrize("t", (24, 5 * 24, 8 * 24))
def test_fixed_point_term_truncation_is_sound(t):
    # the term built with one more q-order agrees below the stated trunc24
    for n in TABLE1_FIXED_POINTS:
        term = fixed_point_term(n, t)
        assert term.trunc24 == t
        assert dict(fixed_point_term(n, t + 24).truncate(t).terms) == \
            dict(term.terms), n


def test_jacobi_split_of_genus():
    a, h = jacobi_split(elliptic_genus(T5))
    assert a == 2
    assert h.is_zero()


def test_jacobi_split_of_phi_m21():
    a, h = jacobi_split(weak_jacobi_phi(-2, T5))
    assert a == 0
    assert h.coeff(0) == 1
    assert h == TruncatedSeries.const(Fraction(1), h.trunc24)


def test_jacobi_split_equivariant():
    s = equivariant_elliptic_genus("2A", 4 * 24)
    a, h = jacobi_split(s)
    assert a == Fraction(8, 12)
    recon = weak_jacobi_phi(0, 4 * 24) * a + h * weak_jacobi_phi(-2, 4 * 24)
    assert recon == s.truncate(min(recon.trunc24, s.trunc24))


def test_jacobi_split_rejects_off_span():
    bad = elliptic_genus(3 * 24) + TruncatedSeries.monomial(
        Fraction(1), 24, 0, 3 * 24)
    with pytest.raises(NotInSpanError):
        jacobi_split(bad)


def test_verify_moonshine_roundtrip():
    for label in ("2A", "3A", "6A"):
        s = equivariant_elliptic_genus(label, 4 * 24)
        _a, h = jacobi_split(s)
        report = verify_moonshine_class(label, h, 4 * 24)
        assert report.ok, label


def test_verify_moonshine_1a_with_zero_f():
    # non-equivariant case: a = 2, f = 0
    report = verify_moonshine_class("1A", TruncatedSeries.zero(4 * 24), 4 * 24)
    assert report.ok


@pytest.mark.parametrize("report, text", [
    (MoonshineReport("7AB", False, 1009, 2400),
     "7AB: first mismatch at q^1009/24"),
    (MoonshineReport("2A", False, 25, 48), "2A: first mismatch at q^25/24"),
    (MoonshineReport("5A", False, 48, 96), "5A: first mismatch at q^2"),
    (MoonshineReport("7AB", True, None, 24000), "7AB: agree to q^1000"),
    (MoonshineReport("3A", True, None, 100), "3A: agree to q^25/6"),
])
def test_moonshine_report_prints_exact_q_orders(report, text):
    # the orders print as exact rationals, as the CLI prints them, never
    # rounded (1009/24 is not q^42, 1000 is not q^1e+03)
    assert str(report) == text


def test_corrupted_fixed_point_data_detected(monkeypatch):
    # the genus reads the derived w_n alone, so acceptance criterion 4
    # checks the published Table 1 against the derivation: one fixed point
    # of 5A dropped from the published entry
    from k3moonshine.acceptance import check_4_theorem_split
    monkeypatch.setitem(TABLE1_FIXED_POINTS, 5, ((1, 2), (2, 1)))
    assert check_4_theorem_split(q_order=1) == (False, (
        "order 5: Table 1 ((1, 2), (2, 1)), derived ((1, 2), (2, 2))"))


def test_moonshine_comparisons_read_e_from_m24(monkeypatch):
    # the genus is compared with e(g) of the M24 class, not with Table 1's
    # count, which it carries itself: a wrong e(g) for 7AB is caught at
    # q^0 by verify_moonshine_class and by criterion 4's split constant
    from k3moonshine import mckay
    from k3moonshine.acceptance import check_4_theorem_split
    f = mckay.f_series("7AB", 5 * 24)
    e = mckay.euler_character_value
    monkeypatch.setattr(mckay, "euler_character_value",
                        lambda label: 2 if label == "7AB" else e(label))
    report = verify_moonshine_class("7AB", f, 5 * 24)
    assert (report.ok, report.first_mismatch_q24) == (False, 0)
    assert check_4_theorem_split(q_order=1) == (False, "7AB: a = 1/4")
