from fractions import Fraction

import pytest

from k3moonshine.series import (
    InsufficientPrecisionError, NotInSpanError, TruncatedSeries,
)
from k3moonshine.modforms import eta_power, jacobi_theta
from canonical import all_canonical
from series_tools import is_y_symmetric, q_slice, substitute_y_value
from k3moonshine.genus import chi_sym_power, chi_symt_series, \
    elliptic_genus, equivariant_elliptic_genus, jacobi_split
from k3moonshine.n4char import (
    atypical_ns, ch_v_product, ch_vn_closed, ch_vn_extract, ch_vn_h_form,
    decompose_into_n4, g_series, genus_A_coefficients, h_series,
    polar_part, ramond_basis_character, symmetric_power_crosscheck,
    twining_to_symtraces, twining_truncation,
)
from route_oracle import n4_character

T3 = 3 * 24


@pytest.fixture(scope="module")
def product():
    return ch_v_product(T3)


def test_ch_v_leading_terms(product):
    assert product[0].coeff(Fraction(-1, 4)) == 1
    # q^(-1/4+1/2) coefficient is (z + 1/z)(y + 1/y)
    slices = {f: q_slice(s, 6) for f, s in product.items()}
    assert {f: sl for f, sl in slices.items() if sl} == {
        1: {2: Fraction(1), -2: Fraction(1)},
        -1: {2: Fraction(1), -2: Fraction(1)}}


def test_denominator_identity(product):
    # ch_V = theta3^2/eta^6 (1 - 1/z)^2 sum_{m,m'} z^(m+m') /
    #        ((1+y q^(m-1/2))(1+y^(-1) q^(m'-1/2)))  to q^2, per power of z
    from route_oracle import inverse_fermion_factor
    t = 2 * 24
    zwin = 10
    zero = TruncatedSeries.zero(t + 6)
    total = {}                       # the double sum, per power of z
    for m in range(-3, zwin + 4):
        fm = inverse_fermion_factor(2 * m - 1, 2, t + 6)
        for mp in range(-3, zwin + 4):
            fmp = inverse_fermion_factor(2 * mp - 1, -2, t + 6)
            if fm.min_q24 is None or fmp.min_q24 is None:
                continue
            if fm.min_q24 + fmp.min_q24 >= t + 6:
                continue
            total[m + mp] = total.get(m + mp, zero) + fm * fmp
    th3 = jacobi_theta(3, t + 18)
    pref = th3 * th3 * eta_power(-6, t + 18)
    # compare inside a safe z-window (the double sum was truncated in z)
    for z in range(-2, 3):
        # (1 - 1/z)^2 = 1 - 2/z + 1/z^2 brings z^(z+1) and z^(z+2) to z^z
        body = (total.get(z, zero) - total.get(z + 1, zero) * 2
                + total.get(z + 2, zero))
        rhs = (pref * body).truncate(t)
        assert rhs == product[z].truncate(t), z


def test_extraction_leading(product):
    v0 = ch_vn_extract(0, product)
    assert v0.min_q24 == -6 and v0.coeff(Fraction(-1, 4)) == 1
    v1 = ch_vn_extract(1, product)
    assert v1.min_q24 == 6
    assert v1.coeff(Fraction(1, 4), y=1) == 1
    assert v1.coeff(Fraction(1, 4), y=-1) == 1


def test_dimension_count(product):
    # sum (N+1) ch_{V_N} = ch_V at z = 1, through q^2
    t = 2 * 24
    total = TruncatedSeries.zero(t)
    # V_N for N > 6 has no support below q^2 (z-charge 8 costs more)
    for n in range(0, 7):
        total = total + ch_vn_extract(n, product) * (n + 1)
    at_z_one = TruncatedSeries.zero(product[0].trunc24)
    for s in product.values():
        at_z_one = at_z_one + s
    assert total == at_z_one.truncate(t)


def test_closed_equals_extraction(product):
    for n in range(0, 5):
        assert ch_vn_closed(n, T3) == ch_vn_extract(n, product), n


def test_h_form_equals_closed():
    for n in range(0, 4):
        assert ch_vn_h_form(n, T3) == ch_vn_closed(n, T3), n


def test_fourier_split_holomorphic_cases():
    th3 = jacobi_theta(3, T3)
    for n in (0, 2, 3, 4, 5):
        assert g_series(n, T3) == th3 * h_series(n, T3), n


def test_polar_split_of_g1():
    th3 = jacobi_theta(3, T3)
    lhs = g_series(1, T3) - th3 * h_series(1, T3)
    assert lhs == polar_part(T3)


def test_g_sum_symmetry():
    # the defining m-sum of g_0 is invariant under y -> 1/y
    from k3moonshine.n4char import g_sum
    s = g_sum(0, T3)
    assert is_y_symmetric(s)


def test_h_truncation_stability():
    # recomputing with a larger window changes nothing below the horizon
    for n in (1, 2, 5):
        a = h_series(n, T3)
        b = h_series(n, T3 + 48).truncate(T3)
        assert a == b, n


def _h_triple_sum_fraction(M, trunc24):
    """The triple sum of h_N on Fraction indices: the oracle for the
    integer-index route of ``route_oracle.h_triple_sum``."""
    terms = {}
    bound = Fraction(trunc24, 24)
    half_M = Fraction(M, 2)
    width = int(2 * (bound + Fraction(abs(M), 2))) + 4
    m2_lo = 2 * min(0, M) - width
    if m2_lo % 2 == 0:
        m2_lo -= 1
    m2_hi = 2 * max(0, M) + width
    for m2 in range(m2_lo, m2_hi + 1, 2):
        m = Fraction(m2, 2)
        am, bm = abs(m), abs(M - m)
        if (am + bm) / 2 - half_M >= bound:
            continue
        sg = 1 if m > 0 else -1
        tg = 1 if m > M else -1
        rr = 1
        while Fraction(rr, 2) * am + bm / 2 - half_M < bound:
            r = Fraction(rr, 2)
            ss = 1
            while r * am + Fraction(ss, 2) * bm - half_M < bound:
                s = Fraction(ss, 2)
                expo = r * am + s * bm + (sg * r + tg * s) ** 2 / 2 - half_M
                if expo < bound:
                    q24 = 24 * expo
                    assert q24.denominator == 1
                    rs = (rr + ss) // 2
                    sign = 1 if rs % 2 else -1
                    key = (int(q24), 0)
                    acc = terms.get(key, Fraction(0)) + sign
                    if acc:
                        terms[key] = acc
                    else:
                        terms.pop(key, None)
                ss += 2
            rr += 2
    return TruncatedSeries(terms, trunc24, _clean=True)


@pytest.mark.parametrize("trunc24", [3 * 24 + 3, 13 * 24 + 9, 31 * 24 + 9])
def test_h_triple_sum_matches_fraction_oracle(trunc24):
    from route_oracle import h_triple_sum
    for M in range(-1, 27):
        got = h_triple_sum(M, trunc24)
        want = _h_triple_sum_fraction(M, trunc24)
        assert got.trunc24 == want.trunc24
        # same terms in the same order, so every downstream product
        # iterates them alike
        assert list(got.terms.items()) == list(want.terms.items()), M
        assert all_canonical(got)


def test_h_series_is_memoized_and_read_only():
    first = h_series(2, T3)
    hits = h_series.cache_info().hits
    assert h_series(2, T3) is first
    assert h_series.cache_info().hits == hits + 1
    with pytest.raises(TypeError):
        first.terms[(0, 0)] = Fraction(1)
    with pytest.raises(TypeError):
        del first.terms[first.q_support()[0], 0]


def test_atypical_relation():
    # ch_(1/4) = 2 ch_(1/4,0) + ch_(1/4,1) with nonnegative leading term
    t = T3
    massless_sum = n4_character(Fraction(1, 4), "NS", t)
    ch_141 = massless_sum - atypical_ns(t) * 2
    lead = q_slice(ch_141, ch_141.min_q24)
    assert all(c > 0 for c in lead.values())


def test_typical_character_leading():
    # q^(h-3/8) theta3^2/eta^3 has leading exponent h - 1/2
    ch3 = n4_character(3, "NS", 5 * 24)
    assert ch3.min_q24 == 24 * 3 - 12
    r = n4_character(Fraction(5, 4), "R", 5 * 24)
    assert r.min_q24 == 24  # h - 1/4 = 1 for the flowed theta2^2 shape
    e = substitute_y_value(r, 1)
    assert e.coeff(1) == 4  # (y + 2 + 1/y) at y=1


def test_n4_character_past_its_truncation_is_zero():
    # q^(h - 3/8) theta^2/eta^3 leads at q^(h - 1/2) in NS and q^(h - 1/4)
    # in R: at or past trunc24 the character is the zero series
    for h, sector, t in (("11/8", "NS", 6), ("7/8", "R", 1)):
        s = n4_character(h, sector, t)
        assert s.is_zero() and s.trunc24 == t
    for sector, offset in (("NS", Fraction(1, 2)), ("R", Fraction(1, 4))):
        for t in (1, 6, 24):
            for k in range(30):             # leading at q24 = t + k
                s = n4_character(Fraction(t + k, 24) + offset, sector, t)
                assert s.is_zero() and s.trunc24 == t
    # leading at trunc24 - 1: one term, theta3^2 = 1 + ... times eta^-3
    s = n4_character(1, "NS", 13)
    assert dict(s.terms) == {(12, 0): 1} and s.trunc24 == 13


def test_decompose_table3_first_rows():
    t = 7 * 24
    expected = {
        0: (-2, [1, 0, 1, 0, 1, 3]),
        1: (1, [0, 0, 0, 2, 2, 2]),
        2: (0, [0, 1, 0, 1, 3, 5]),
        3: (0, [0, 0, 2, 0, 2, 6]),
    }
    for n, (atyp, row) in expected.items():
        dec = decompose_into_n4(ch_vn_h_form(n, t))
        assert dec.atypical == atyp, n
        assert dec.table_row(range(6)) == row, n


def test_decompose_pure_typical():
    t = 5 * 24
    s = n4_character(3, "NS", t)
    dec = decompose_into_n4(s)
    assert dec.atypical == 0
    nonzero = {h: c for h, c in dec.typical.items() if c}
    assert nonzero == {Fraction(3): Fraction(1)}


def test_decompose_rejects_off_span():
    t = 4 * 24
    bad = n4_character(3, "NS", t) + jacobi_theta(3, t)
    with pytest.raises(NotInSpanError):
        decompose_into_n4(bad)


def test_flow_consistency_of_multiplicities():
    v1 = ch_vn_h_form(1, 6 * 24)
    m_ns = decompose_into_n4(v1)
    m_r = decompose_into_n4(v1.spectral_flow(+1).spectral_flow(-1))
    assert m_ns.atypical == m_r.atypical
    hz = min(m_ns.horizon24, m_r.horizon24)
    for h in set(m_ns.typical) | set(m_r.typical):
        if 24 * (h - Fraction(3, 8)) < hz:
            assert m_ns.typical.get(h, 0) == m_r.typical.get(h, 0)


def test_ramond_lattice_is_integral():
    flowed = ch_vn_h_form(2, 5 * 24).spectral_flow(+1)
    assert all(q24 % 24 == 0 for (q24, _) in flowed.terms)


def test_genus_decomposition_anchors():
    genus = elliptic_genus(7 * 24)
    dec = genus_A_coefficients(4, genus)
    assert dec.atypical == 24
    assert dec.A == [-2, 90, 462, 1540, 4554]
    assert all(a.denominator == 1 for a in dec.A)


def test_symmetric_power_crosscheck():
    genus = elliptic_genus(7 * 24)
    report = symmetric_power_crosscheck(genus_A_coefficients(4, genus))
    assert all(ok for (_, _, ok) in report.values())


def test_twining_solve_identity_class():
    genus = elliptic_genus(6 * 24)
    want = [chi_sym_power(n) for n in range(5)]
    assert twining_to_symtraces(*jacobi_split(genus), 4) == want
    # an exactly known f: eta^-3 is built only as far as the columns read
    assert twining_to_symtraces(2, TruncatedSeries.zero(), 4) == want
    # [f eta^-3] is read from f's coefficients at q^0 and later
    with pytest.raises(ValueError):
        twining_to_symtraces(2, TruncatedSeries.monomial(1, -24), 4)


def test_twining_solve_equivariant():
    t = 6 * 24
    for label in ("2A", "8A"):
        tw = equivariant_elliptic_genus(label, t)
        cs = twining_to_symtraces(*jacobi_split(tw), 4)
        assert cs == chi_symt_series(label, 5), label


def test_twining_solve_with_pinned_c1():
    # c_1 pinned in place of the massless equation, on the decomposition
    from route_oracle import twining_to_symtraces_by_decomposition
    genus = elliptic_genus(6 * 24)
    cs = twining_to_symtraces_by_decomposition(genus, 4, c1=Fraction(-20))
    assert cs == [chi_sym_power(n) for n in range(5)]


def test_twining_solve_reconstructs_the_twining():
    # oracle: the Ramond characters ch_{M_n} the solve never builds;
    # sum c_n ch_{M_n} must equal the twining below the order where
    # ch_{M_(tmax+1)} starts
    from k3moonshine.mckay import twining_genus
    tmax = 5
    t = twining_truncation(tmax)
    basis = [ramond_basis_character(n, t + 48) for n in range(tmax + 2)]
    marker = basis[tmax + 1].min_q24
    twinings = {"1A": elliptic_genus(t),
                "2A": equivariant_elliptic_genus("2A", t),
                "7AB": equivariant_elliptic_genus("7AB", t),
                "11A": twining_genus("11A", t),
                "2B": twining_genus("2B", t)}
    for label, tw in twinings.items():
        cs = twining_to_symtraces(*jacobi_split(tw), tmax)
        rebuilt = sum((b * c for b, c in zip(basis, cs)),
                      TruncatedSeries.zero())
        residual = rebuilt - tw
        assert marker < residual.trunc24, label
        assert residual.truncate(marker).is_zero(), label


@pytest.mark.parametrize("tmax", [1, 2, 6, 21])
def test_twining_truncation_is_the_smallest_that_solves(tmax):
    # f_g phi_{-2,1}'s multiplicity at h = 1/4 + k is [f eta^-3] at
    # q^(k - 1/8), and eta^-3 leads at q^(-1/8): the last column,
    # k = max(tmax, 1) - 1, needs f below 24 max(tmax, 1) - 23
    from k3moonshine.mckay import twining_pair
    t = 24 * max(tmax, 1) - 23
    want = twining_to_symtraces(*twining_pair("11A", t + 48), tmax)
    assert twining_to_symtraces(*twining_pair("11A", t), tmax) == want
    with pytest.raises(InsufficientPrecisionError):
        twining_to_symtraces(*twining_pair("11A", t - 1), tmax)


def test_a_second_solve_decomposes_nothing(monkeypatch):
    # the genus's multiplicities come from H's closed form: from cold
    # caches no solve builds the (q, y) genus or decomposes anything
    import importlib
    import pkgutil
    import k3moonshine
    from k3moonshine import n4char
    from k3moonshine.mckay import twining_pair
    n4char._genus_multiplicities.cache_clear()
    n4char.mathieu_h.cache_clear()
    calls = []
    for info in pkgutil.iter_modules(k3moonshine.__path__):
        module = importlib.import_module(f"k3moonshine.{info.name}")
        for name in ("decompose_into_n4", "elliptic_genus"):
            real = getattr(module, name, None)
            if real is not None:
                monkeypatch.setattr(
                    module, name, lambda *args, _name=name, _real=real:
                    calls.append(_name) or _real(*args))
    first = twining_to_symtraces(*twining_pair("11A", 6 * 24), 6)
    for label in ("11A", "2B", "23AB"):
        twining_to_symtraces(*twining_pair(label, 6 * 24), 6)
    assert twining_to_symtraces(*twining_pair("11A", 6 * 24), 6) == first
    assert calls == []


def test_polar_lead_is_the_first_y_dependent_term_of_the_quotient():
    from k3moonshine.n4char import _POLAR_LEAD, _POLAR_LEAD_COEFF
    quotient = polar_part(24).divide_exact(jacobi_theta(3, 24))
    lead = min(k for k in quotient.terms if k[1])
    assert (lead, quotient.terms[lead]) == (_POLAR_LEAD, _POLAR_LEAD_COEFF)


@pytest.mark.parametrize("ncols", range(1, 22))
def test_typical_row_is_read_below_its_truncation(ncols, monkeypatch):
    # the last column sits at q24 = 24 ncols - 27, so the rows read the h
    # columns k < ncols, which h_series wraps at 24 ncols - 26; read one
    # lower, the last column raises
    from k3moonshine import n4char
    from k3moonshine.n4char import _h_column, _typical_row, _v_combo

    def row(N, trunc24):
        combo = _v_combo(h_series, N, trunc24)
        return tuple(combo.coeff(Fraction(8 * k - 1, 8))
                     for k in range(ncols))

    built = []
    with monkeypatch.context() as m:
        m.setattr(n4char, "_h_column", lambda N, n:
                  built.append(n) or _h_column(N, n))
        rows = [_typical_row.__wrapped__(N, ncols) for N in range(ncols + 1)]
    assert set(built) == {ncols}
    for N, got in enumerate(rows):
        assert got == row(N, 24 * ncols + 24)
        assert row(N, 24 * ncols - 26) == got
        with pytest.raises(InsufficientPrecisionError):
            row(N, 24 * ncols - 27)


def test_table3_pivots_and_diagonals_follow_from_the_closed_form():
    # below column 2N - 2, h_N's combination for row N >= 2 is
    # (N-1) q^(N-1) - 2N q^N + 2(N+2) q^(N+2) - (N+3) q^(N+3) over eta^3,
    # so row N leads at column N - 1 with N - 1, and on diagonal j
    # (column N - 1 + j) its entry is a_j N + b_j for every N >= j + 2,
    # with e_m the coefficients of prod (1 - q^n)^-3
    from k3moonshine.n4char import _typical_row
    ncols = 40
    eta = eta_power(-3, 24 * ncols)
    e = [eta.at(24 * m - 3) for m in range(ncols)]

    def E(m):
        return e[m] if m >= 0 else 0

    a = [E(j) - 2 * E(j - 1) + 2 * E(j - 3) - E(j - 4) for j in range(ncols)]
    b = [-E(j) + 4 * E(j - 3) - 3 * E(j - 4) for j in range(ncols)]
    assert a[:8] == [1, 1, 3, 6, 12, 21, 40, 67]
    assert b[:8] == [-1, -3, -9, -18, -42, -81, -160, -291]
    for N in range(2, ncols + 1):
        row = _typical_row(N, ncols)
        assert not any(row[:N - 1]) and row[N - 1] == N - 1, N
        for j in range(min(N - 1, ncols - N + 1)):
            assert row[N - 1 + j] == a[j] * N + b[j], (N, j)


def test_decompose_needs_the_first_massless_term():
    # the atypical coefficient is read at q24 = 9; an input that ends there
    # must not decompose with atypical 0
    assert decompose_into_n4(ch_vn_h_form(0, 10)).atypical == -2
    with pytest.raises(InsufficientPrecisionError):
        decompose_into_n4(ch_vn_h_form(0, 6))
    assert genus_A_coefficients(0, elliptic_genus(2 * 24)).atypical == 24
    with pytest.raises(InsufficientPrecisionError):
        genus_A_coefficients(0, elliptic_genus(24))


def test_flowed_vacuum_ground_states():
    # ch_{M_0} = q^(1/4) y ch_{V_0}(y q^(1/2)): two Ramond ground states
    v0 = ch_vn_h_form(0, 6 * 24)
    m0 = v0.spectral_flow(+1)
    assert q_slice(m0, 0) == {2: Fraction(1), -2: Fraction(1)}


def test_flow_consistency_vacuum_deeper():
    # Remark-style: the flowed vacuum decomposes with the NS multiplicities
    v0 = ch_vn_h_form(0, 11 * 24)
    m_ns = decompose_into_n4(v0)
    m_r = decompose_into_n4(v0.spectral_flow(+1).spectral_flow(-1))
    assert m_ns.atypical == m_r.atypical == -2
    hz = min(m_ns.horizon24, m_r.horizon24)
    assert hz >= 5 * 24
    for h in set(m_ns.typical) | set(m_r.typical):
        if 24 * (h - Fraction(3, 8)) < hz:
            assert m_ns.typical.get(h, 0) == m_r.typical.get(h, 0), h
