"""The one-column, one-matrix routes against their full-division oracles.

``route_oracle`` keeps the routes the library replaced.  Every comparison
here is exact: the same multiplicities, horizons, series and truncations,
and on inputs outside the span the same exception type at the same q24.
One split test pins the case where the routes differ: with two defects,
the column route reports the earlier one.
The truncation tests check that a builder asked for T states T and
equals itself at T + 24 cut to T, that a kernel's result below its
trunc24 ignores any input perturbed at or past its own trunc24, and that
the N=4 decomposition's horizon is its input's trunc24 + 3.  Every
index-1 form the library builds from its y^0 and y^1 columns is compared
with its whole-series route, at several truncations, one of them not a
whole q-order, and one test pins that building them divides by eta^3
alone.  The eta powers and the columns of
the weak Jacobi forms are compared with their pentagonal-eta, E_2 route.
Another records every divisor of
one acceptance pass: each has a one-term lowest q-slice, the only kind
``divide_exact`` takes.  The Appell-Lerch sums, written term by term from
their closed double sums, are compared with their geometric-series
products.  The inverse problem on a twining's (a, f) pair is compared with
the decomposition of the whole (q, y) twining, in values and types, and
the genus's multiplicities from H's closed form with the decomposition of
the genus.  The h triple sum, whose loops stop where the full exponent is
monotone, is compared term by term and in order with its loops bounded
without the cross term, and h_N in closed form (N != 1) with the triple
sum.  The rational kernels that run on ints over one denominator (the
equivariant and weighted genera, the Jacobi split, f_g's traces and fit,
the m_chi combinations and the power series of a rational form) are
compared with their Fraction routes in values and types.
"""

from fractions import Fraction
from functools import partial

import pytest

from canonical import all_canonical
from k3moonshine.acceptance import TABLE1_FIXED_POINTS, run_criteria
from k3moonshine.genus import (
    SYMPLECTIC_CLASSES, chern_root_elliptic_genus,
    chi_symt_series, elliptic_genus, equivariant_elliptic_genus, jacobi_split,
    verify_moonshine_class,
)
from k3moonshine.mckay import (
    CLASS_LEVEL, GEOMETRIC_CLASSES, MOONSHINE_CLASSES, euler_character_value,
    f_from_traces, f_series, fit_in_m2, m2_basis, twining_genus, twining_pair,
)
from k3moonshine.modforms import (
    eisenstein_e2, eta_power, jacobi_theta, weak_jacobi_columns,
    weak_jacobi_phi,
)
from k3moonshine.n4char import (
    _genus_multiplicities, _typical_row, atypical_ns,
    ch_vn_closed, ch_vn_h_form, decompose_into_n4, decomposition_truncation,
    g_series, g_sum, h_series, mathieu_h, polar_part, ramond_basis_character, twining_to_symtraces, twining_truncation,
)
from k3moonshine.qpoly import (
    RationalFunction, exact_quotient, linear_combinations,
)
from k3moonshine.series import (
    InsufficientPrecisionError, NotInSpanError, TruncatedSeries,
)
from route_oracle import (
    chern_root_elliptic_genus_z_graded, chi_symt_per_pair,
    decompose_two_divisions, equivariant_genus_by_division,
    equivariant_genus_in_fractions, eta_power_by_inversion,
    expand_in_fractions, f_from_traces_in_fractions, f_series_in_fractions,
    fixed_point_term, fixed_point_term_by_division, flow_truncation,
    g_sum_by_products, genus_decompose_by_decomposition,
    genus_multiplicities_by_decomposition, h_triple_sum,
    h_triple_sum_pruned_without_cross_term, jacobi_split_by_division,
    jacobi_split_in_fractions, linear_combinations_in_fractions,
    m_chi_rational_in_fractions, moonshine_report_by_series, n4_character,
    n4_decompose_by_decomposition, pole_coefficient_in_fractions,
    polar_part_by_products, table1_sum,
    twining_genus_by_products, twining_to_symtraces_by_decomposition,
    twining_to_symtraces_by_solve, typical_row_by_series,
    weak_jacobi_columns_by_e2, weak_jacobi_phi_by_products,
    weighted_genus_by_division, weighted_genus_in_fractions,
)
from test_caches import SAMPLE_ARGS, _cached_builders

TWININGS = GEOMETRIC_CLASSES + MOONSHINE_CLASSES


def _outcome(fn, *args):
    """The result, or the exception type and q24 (None if it has none)."""
    try:
        return fn(*args)
    except (NotInSpanError, InsufficientPrecisionError) as exc:
        return type(exc), getattr(exc, "q24", None)


def _same_series(a, b):
    assert a.trunc24 == b.trunc24
    assert dict(a.terms) == dict(b.terms)
    assert [type(c) for c in a.terms.values()] == \
        [type(b.terms[k]) for k in a.terms]


def _ns_twining(label, t):
    return twining_genus(label, t).spectral_flow(-1).substitute_y_sign()


# -- the N=4 decomposition -----------------------------------------------------

@pytest.mark.parametrize("n", range(11))
def test_decompose_matches_two_divisions_on_table3(n):
    s = ch_vn_h_form(n, 13 * 24)
    dec = decompose_into_n4(s)
    assert dec == decompose_two_divisions(s)
    assert type(dec.atypical) is type(decompose_two_divisions(s).atypical)


@pytest.mark.parametrize("t", (2 * 24, 8 * 24, 20 * 24))
def test_decompose_matches_two_divisions_on_the_genus(t):
    ns = elliptic_genus(t).spectral_flow(-1).substitute_y_sign()
    assert decompose_into_n4(ns) == decompose_two_divisions(ns)


@pytest.mark.parametrize("tmax", (6, 20))
@pytest.mark.parametrize("label", TWININGS)
def test_decompose_matches_two_divisions_on_the_twinings(label, tmax):
    ns = _ns_twining(label, twining_truncation(tmax))
    assert decompose_into_n4(ns) == decompose_two_divisions(ns)


@pytest.mark.parametrize("n", (0, 1, 2, 5))
def test_decompose_matches_two_divisions_in_the_ramond_sector(n):
    ns = ch_vn_h_form(n, 9 * 24).spectral_flow(+1).spectral_flow(-1)
    assert decompose_into_n4(ns) == decompose_two_divisions(ns)


@pytest.mark.parametrize("t", range(0, 31))
def test_decompose_matches_two_divisions_at_the_precision_boundary(t):
    # ch_vn_h_form(0, 6) ends before the massless term at q24 = 9
    for n in (0, 1):
        s = ch_vn_h_form(n, t)
        assert _outcome(decompose_into_n4, s) == \
            _outcome(decompose_two_divisions, s)
    with pytest.raises(InsufficientPrecisionError):
        decompose_into_n4(ch_vn_h_form(0, 6))


PERTURBATIONS = (
    (42, 2), (66, -2), (90, 4), (18, 0), (114, -4),
    (9, -2), (42, 0), (-6, 2), (-30, 0), (-30, 2),
)


@pytest.mark.parametrize("key", PERTURBATIONS)
@pytest.mark.parametrize("n", (0, 1, 3))
def test_decompose_matches_two_divisions_off_the_span(n, key):
    t = 7 * 24
    s = ch_vn_h_form(n, t) + TruncatedSeries({key: 3}, t)
    got = _outcome(decompose_into_n4, s)
    assert got == _outcome(decompose_two_divisions, s)
    if key[1]:
        # a y-dependent term leaves the span at its own order, read on
        # the typical quotient's grid (eta^3 adds q^(1/8))
        assert got == (NotInSpanError, key[0] + 3)


# -- the Jacobi-form split -------------------------------------------------------

def _split_inputs():
    out = [elliptic_genus(6 * 24), weak_jacobi_phi(-2, 6 * 24)]
    for label in SYMPLECTIC_CLASSES[1:]:
        out.append(equivariant_elliptic_genus(label, 6 * 24))
    for label in MOONSHINE_CLASSES:
        out.append(twining_genus(label, 5 * 24))
    return out


def test_jacobi_split_matches_the_bivariate_division():
    for s in _split_inputs():
        a, h = jacobi_split(s)
        a0, h0 = jacobi_split_by_division(s)
        assert a == a0 and type(a) is type(a0)
        _same_series(h, h0)


def _poly(t, q24, coeffs):
    """One q-order of a perturbation: coeffs maps y2 to a coefficient."""
    return TruncatedSeries({(q24, y2): c for y2, c in coeffs.items()}, t)


SPLIT_PERTURBATIONS = (
    {2: 1},                    # Euler value changes
    {0: 5},                    # Euler value changes
    {2: 1, 0: -1},             # y - 1: an indivisible slice
    {-2: 1, 0: -1},            # 1/y - 1: an indivisible slice
    {4: 1, 2: -2, 0: 1},       # (y - 1)^2: a y-dependent quotient
    {2: 1, 0: -2, -2: 1},      # phi_{-2,1}'s lead: stays in the span
    {1: 1, -1: -1},            # half-integral y-powers
)


@pytest.mark.parametrize("coeffs", SPLIT_PERTURBATIONS)
@pytest.mark.parametrize("q24", (-24, 24, 72))
def test_jacobi_split_matches_the_bivariate_division_off_the_span(q24, coeffs):
    t = 5 * 24
    s = equivariant_elliptic_genus("3A", t) + _poly(t, q24, coeffs)
    got = _outcome(jacobi_split, s)
    want = _outcome(jacobi_split_by_division, s)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
    else:
        assert got[0] == want[0]
        _same_series(got[1], want[1])


def test_jacobi_split_reports_the_first_order_off_the_span():
    # A y-dependent quotient at q^1 and an indivisible slice at q^3: the
    # bivariate division only raised at the indivisible slice; the column
    # route reports the first order at which the input leaves the span.
    t = 5 * 24
    s = (equivariant_elliptic_genus("3A", t)
         + _poly(t, 24, {4: 1, 2: -2, 0: 1}) + _poly(t, 72, {2: 1, 0: -1}))
    assert _outcome(jacobi_split_by_division, s) == (NotInSpanError, 72)
    assert _outcome(jacobi_split, s) == (NotInSpanError, 24)


LAW_PERTURBATIONS = (
    (24, {4: 1}),                               # one y^2 coefficient
    (72, {-4: 1}),
    (72, {6: -1}),                              # one y^3 coefficient
    (24, {4: 1, -4: 1, 0: -2}),                 # Euler value unchanged
    (72, {6: 1, -6: 1, 2: -1, -2: -1}),
    (96, {4: 1, -4: 1, 8: -1, -8: -1}),         # both columns unchanged
    (120, {4: 1, -4: 1, 8: -1, -8: -1}),
)


@pytest.mark.parametrize("q24, coeffs", LAW_PERTURBATIONS)
@pytest.mark.parametrize("label", SYMPLECTIC_CLASSES[1:])
def test_jacobi_split_tests_the_elliptic_law(label, q24, coeffs):
    # a |l| >= 2 coefficient off the elliptic law is off the span at its
    # own order, even where the y^0 and y^1 columns do not see it
    t = 6 * 24
    s = equivariant_elliptic_genus(label, t) + _poly(t, q24, coeffs)
    assert _outcome(jacobi_split, s) == (NotInSpanError, q24)


# -- eta powers and the weak Jacobi columns: eta^3 against the pentagonal eta ----

ETA_TRUNCATIONS = (1, 25, 144, 648, 2400)


@pytest.mark.parametrize("t", ETA_TRUNCATIONS)
@pytest.mark.parametrize("power", (3, -3, -6))
def test_eta_power_matches_the_pentagonal_route(power, t):
    _same_series(eta_power(power, t), eta_power_by_inversion(power, t))


@pytest.mark.parametrize("t", ETA_TRUNCATIONS)
@pytest.mark.parametrize("weight", (-2, 0))
def test_weak_jacobi_columns_match_the_e2_route(weight, t):
    got, want = weak_jacobi_columns(weight, t), weak_jacobi_columns_by_e2(weight, t)
    for column, oracle in zip(got, want, strict=True):
        _same_series(column, oracle)


# -- index-1 forms: two columns against the whole (q, y) series ------------------

INDEX_ONE_BUILDERS = {
    "phi_0,1": (partial(weak_jacobi_phi, 0),
                partial(weak_jacobi_phi_by_products, 0)),
    "phi_-2,1": (partial(weak_jacobi_phi, -2),
                 partial(weak_jacobi_phi_by_products, -2)),
    **{f"term-{n}": (partial(fixed_point_term, n),
                     partial(fixed_point_term_by_division, n))
       for n in TABLE1_FIXED_POINTS},
    **{f"genus-{label}": (partial(equivariant_elliptic_genus, label),
                          partial(equivariant_genus_by_division, label))
       for label in SYMPLECTIC_CLASSES},
    # the trace form of the division route against the genus, so that
    # its truncation is checked here too, not the genus's a second time
    **{f"weighted-{label}": (partial(weighted_genus_by_division, label),
                             partial(equivariant_elliptic_genus, label))
       for label in SYMPLECTIC_CLASSES[1:]},
    **{f"twining-{label}": (partial(twining_genus, label),
                            partial(twining_genus_by_products, label))
       for label in TWININGS},
}


@pytest.mark.parametrize("t", (24, 6 * 24, 150, 27 * 24))
@pytest.mark.parametrize("name", INDEX_ONE_BUILDERS)
def test_index_one_builder_matches_its_bivariate_route(name, t):
    build, oracle = INDEX_ONE_BUILDERS[name]
    _same_series(build(t), oracle(t))


@pytest.mark.parametrize("t", (24, 6 * 24, 150, 27 * 24))
@pytest.mark.parametrize("name", INDEX_ONE_BUILDERS)
def test_index_one_builder_truncation_is_sound(name, t):
    build, _ = INDEX_ONE_BUILDERS[name]
    low = build(t)
    assert low.trunc24 == t
    _same_series(build(t + 24).truncate(t), low)


@pytest.fixture
def divisions(monkeypatch):
    """Every (numerator, divisor) pair ``divide_exact`` receives; ``invert``
    divides through it, so inverses are recorded too."""
    seen = []
    divide = TruncatedSeries.divide_exact

    def recording(self, divisor):
        seen.append((self, divisor))
        return divide(self, divisor)

    monkeypatch.setattr(TruncatedSeries, "divide_exact", recording)
    return seen


def test_index_one_forms_divide_only_by_eta(divisions):
    # phi_{0,1} is the heat operator on phi_{-2,1}'s columns and each
    # fixed-point term is phi_{0,1}/12 + wp(u) phi_{-2,1}, so no theta
    # constant is divided: the one divisor is eta^3, dividing integral
    # lacunary columns and their integral quotients
    t = 7 * 24 + 5                 # a truncation no other test builds
    weak_jacobi_columns(0, t)
    for label in SYMPLECTIC_CLASSES[1:]:
        equivariant_elliptic_genus(label, t)
    assert divisions
    for numerator, divisor in divisions:
        assert all(type(c) is int for c in numerator.terms.values())
        assert divisor.trunc24 > t
        assert dict(divisor.terms) == \
            dict(eta_power_by_inversion(3, divisor.trunc24).terms)


# the lowest term of each divisor the library has: eta^3 = q^(1/8) + ...,
# theta3 = 1 + O(q^(1/2)) and phi_{-2,1}'s y^0 column 2 + O(q)
DIVISORS = {
    ((3, 0), 1): partial(eta_power_by_inversion, 3),
    ((0, 0), 1): partial(jacobi_theta, 3),
    ((0, 0), 2): lambda t: weak_jacobi_columns(-2, t)[0],
}


def test_acceptance_divides_only_by_one_term_leads(divisions):
    # From cold builders, one pass of the battery divides only by series
    # whose lowest q-slice is one term: eta, theta3 and phi_{-2,1}'s y^0
    # column, each of them at least once
    for builder in _cached_builders().values():
        builder.cache_clear()
    assert all(r.error is None for r in run_criteria())
    received = [divisor for _numerator, divisor in divisions]
    leads = []
    for divisor in received:
        lowest = [(k, c) for k, c in divisor.terms.items()
                  if k[0] == divisor.min_q24]
        assert len(lowest) == 1
        leads.append(lowest[0])
    assert set(leads) == set(DIVISORS)
    for lead, divisor in zip(leads, received):
        assert dict(divisor.terms) == \
            dict(DIVISORS[lead](divisor.trunc24).terms)


def _report(report):
    return (report.label, report.ok, report.first_mismatch_q24,
            report.checked_trunc24)


@pytest.mark.parametrize("label", SYMPLECTIC_CLASSES)
def test_moonshine_report_matches_the_series_comparison(label):
    t = 5 * 24
    f = f_series(label, t)
    for f_g in (f, f + TruncatedSeries({(48, 0): 1}, t),
                f_series(label, 3 * 24), TruncatedSeries.zero(t),
                f + TruncatedSeries({(0, 0): Fraction(1, 3)}, t)):
        assert _report(verify_moonshine_class(label, f_g, t)) == \
            _report(moonshine_report_by_series(label, f_g, t))


# -- the Table-1 Galois sums ---------------------------------------------------

@pytest.mark.parametrize("label", SYMPLECTIC_CLASSES[1:])
def test_equivariant_genus_matches_the_per_pair_sum(label):
    for t in (24, 4 * 24, 6 * 24, 9 * 24):
        _same_series(equivariant_elliptic_genus(label, t), table1_sum(label, t))


@pytest.mark.parametrize("label", SYMPLECTIC_CLASSES)
def test_chi_symt_series_matches_the_per_pair_sum(label):
    got = chi_symt_series(label, 40)
    want = chi_symt_per_pair(label, 40)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


# -- the pole coefficient ------------------------------------------------------

def test_pole_coefficient_matches_the_fraction_evaluation():
    from k3moonshine.replattice import m23_table2, m_chi_rational
    from k3moonshine.tables import load_m23
    m23 = load_m23()
    forms, _ = m23_table2(m23, 21)
    for m, pole in m_chi_rational(m23, forms).values():
        want = pole_coefficient_in_fractions(m, 1, 4)
        assert pole == want and type(pole) is Fraction
    f = RationalFunction((3, -1, 4), {1: 2, 2: 1, 3: 2, 7: 1})
    for at, order in ((1, 2), (-1, 1), (Fraction(1, 2), 0), (3, 0)):
        got = f.pole_coefficient(at, order)
        assert got == pole_coefficient_in_fractions(f, at, order)
        assert type(got) is Fraction


# -- the rational kernels over one denominator against their Fraction loops ----

KERNEL_TRUNCATIONS = (24, 4 * 24, 6 * 24, 20 * 24, 100 * 24)


def _same_form(a, b):
    """The same canonical fields: content, integer numerator, exponents."""
    assert (a._c, a._n, a._e) == (b._c, b._n, b._e)
    assert type(a._c) is type(b._c) is Fraction
    assert all(type(x) is int for x in a._n)


@pytest.mark.parametrize("t", KERNEL_TRUNCATIONS)
@pytest.mark.parametrize("label", SYMPLECTIC_CLASSES[1:])
def test_genera_and_split_match_their_fraction_routes(label, t):
    s = equivariant_elliptic_genus(label, t)
    _same_series(s, equivariant_genus_in_fractions(label, t))
    _same_series(s, weighted_genus_in_fractions(label, t))
    for form in (s, s * Fraction(1, 7)):
        (a, h), (a0, h0) = jacobi_split(form), jacobi_split_in_fractions(form)
        assert a == a0 and type(a) is type(a0)
        _same_series(h, h0)


@pytest.mark.parametrize("t", KERNEL_TRUNCATIONS)
@pytest.mark.parametrize("label", tuple(CLASS_LEVEL))
def test_f_series_matches_its_fraction_route(label, t):
    got, want = f_from_traces(label), f_from_traces_in_fractions(label)
    assert got == want and list(map(type, got)) == list(map(type, want))
    _same_series(f_series(label, t), f_series_in_fractions(label, t))


def _m23_forms():
    from k3moonshine.replattice import m23_table2
    from k3moonshine.tables import load_m23
    m23 = load_m23()
    return m23, m23_table2(m23, 21)[0]


def test_m_chi_rational_matches_its_fraction_route():
    from k3moonshine.replattice import m_chi_rational
    m23, forms = _m23_forms()
    got = m_chi_rational(m23, forms)
    want = m_chi_rational_in_fractions(m23, forms)
    assert list(got) == list(want)
    for name, (m, pole) in got.items():
        m0, pole0 = want[name]
        _same_form(m, m0)
        assert pole == pole0 and type(pole) is type(pole0) is Fraction


def test_linear_combinations_match_their_fraction_route():
    _, forms = _m23_forms()
    forms = list(forms.values())[:5] + [
        RationalFunction((Fraction(1, 3), 2), {1: 2, 3: 1})]
    rows = [(1, -2, 0, 3, 1, 6), (Fraction(1, 2), 0, Fraction(-2, 3), 5, 0, 1),
            (0,) * 6, (1, 1, 1, 1, 1, Fraction(-3, 4))]
    for got, want in zip(linear_combinations(forms, rows),
                         linear_combinations_in_fractions(forms, rows)):
        _same_form(got, want)


def test_expand_matches_its_fraction_route():
    from k3moonshine.replattice import m_chi_rational
    m23, forms = _m23_forms()
    mchi = [m for m, _ in m_chi_rational(m23, forms).values()]
    odd = RationalFunction((Fraction(1, 3), 2, -1), {1: 2, 6: 1})
    for f in [*forms.values(), *mchi[:4], odd, odd * 6]:
        got, want = f.expand(40), expand_in_fractions(f, 40)
        assert got == want
        assert [type(x) for x in got] == \
            [int if x.denominator == 1 else Fraction for x in want]
    assert all(type(x) is int for f in forms.values() for x in f.expand(40))


# -- phi_{0,1} is built only where its weight is nonzero ------------------------

@pytest.mark.parametrize("label", TWININGS)
def test_twining_genus_matches_the_full_sum(label):
    t = twining_truncation(6)
    e = exact_quotient(euler_character_value(label), 12)
    want = (weak_jacobi_phi(0, t) * e
            + f_series(label, t) * weak_jacobi_phi(-2, t))
    _same_series(twining_genus(label, t), want)


def test_criterion_10_builds_no_zero_weighted_phi0(monkeypatch):
    # from cold caches criterion 10 builds no index-1 form (the genus's
    # multiplicities are H's closed form); its classes' twining genera
    # build phi_{0,1} only where e(g) != 0
    from k3moonshine import acceptance, modforms, n4char
    n4char._genus_multiplicities.cache_clear()
    n4char.mathieu_h.cache_clear()
    built = []

    def recording(weight, trunc24):
        built.append((weight, trunc24))
        return weak_jacobi_columns(weight, trunc24)

    monkeypatch.setattr(modforms, "weak_jacobi_columns", recording)
    assert acceptance.check_10_audit()[0]
    assert built == []
    t = twining_truncation(6)
    for label in (*acceptance.AUDIT_FIRST_NONINTEGRAL,
                  *acceptance.M24_EXTRA_FORMS):
        built.clear()
        twining_genus(label, t)
        assert (-2, t) in built
        assert ((0, t) in built) == bool(euler_character_value(label))


# -- H's closed form against the genus decomposition; the h triple sum -------

@pytest.mark.parametrize("ncols", range(1, 41))
def test_genus_multiplicities_match_the_decomposition(ncols):
    got = _genus_multiplicities.__wrapped__(ncols)
    want = genus_multiplicities_by_decomposition(ncols)
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]


@pytest.mark.parametrize("trunc24", (1, 24, 121, 265, 457, 961))
def test_h_triple_sum_matches_the_loops_bounded_without_cross_term(trunc24):
    # the same terms in the same order, so every product iterates them alike
    for N in range(41):
        got = h_triple_sum(N - 1, trunc24)
        want = h_triple_sum_pruned_without_cross_term(N - 1, trunc24)
        assert got.trunc24 == want.trunc24
        assert list(got.terms.items()) == list(want.terms.items()), N


@pytest.mark.parametrize("trunc24", (1, 24, 75, 121, 262, 454, 958, 1500))
def test_closed_form_h_matches_the_triple_sum(trunc24):
    # h_N = (N - 1)/((1 - q^(N-1)) eta^3) for N != 1, and h_1 = 2 F_2/eta^3,
    # against the triple sum: the same terms and the same trunc24
    eta3 = eta_power(-3, trunc24)
    for N in range(-8, 46):
        got = h_series.__wrapped__(N, trunc24)
        want = h_triple_sum(N - 1, trunc24 + 3) * eta3
        assert got.trunc24 == want.trunc24 == trunc24, N
        assert dict(got.terms) == dict(want.terms), N
        assert all_canonical(got), N


def test_h1_and_mathieu_h_read_one_f2_at_depth():
    # h_1 = 2 F_2/eta^3 against the triple sum, and
    # H = (-2 E_2 + 48 F_2)/eta^3 = 24 h_1 - 2 E_2/eta^3, at trunc24 2400
    t = 2400
    eta3 = eta_power(-3, t)
    h1 = h_series.__wrapped__(1, t)
    assert h1 == h_triple_sum(0, t + 3) * eta3
    h = mathieu_h.__wrapped__(t)
    assert h.trunc24 == h1.trunc24 == t
    assert h == h1 * 24 - eisenstein_e2(t + 3) * eta3 * 2


@pytest.mark.parametrize("ncols", range(1, 61))
def test_typical_rows_match_the_series_combination(ncols):
    # running sums of eta^-3's coefficients, added on ints, against the
    # series products of h_N and their combination
    for N in range(ncols + 1):
        got = _typical_row.__wrapped__(N, ncols)
        want = typical_row_by_series(N, ncols)
        assert got == want, N
        assert [type(c) for c in got] == [type(c) for c in want], N


@pytest.mark.parametrize("trunc24", (24, 48, 144, 312, 480))
def test_chern_root_moments_match_the_z_graded_product(trunc24):
    got = chern_root_elliptic_genus(trunc24)
    want = chern_root_elliptic_genus_z_graded(trunc24)
    assert got.trunc24 == want.trunc24 == trunc24
    assert dict(got.terms) == dict(want.terms)
    assert all(type(c) is int for c in got.terms.values())


# -- the inverse problem on the (a, f) pair against the whole twining ----------

@pytest.mark.parametrize("tmax", (1, 6, 20))
@pytest.mark.parametrize("label", TWININGS)
def test_twining_solve_matches_the_decomposition(label, tmax):
    want = twining_to_symtraces_by_decomposition(
        twining_genus(label, twining_truncation(tmax)), tmax)
    got = twining_to_symtraces(*twining_pair(label, 24 * tmax), tmax)
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]


@pytest.mark.parametrize("label, tmax", [
    *((label, tmax) for label in CLASS_LEVEL for tmax in (*range(7), 20, 60)),
    *((label, 201) for label in ("11A", "14AB", "15AB", "23AB"))])
def test_moebius_inversion_matches_the_table3_solve(label, tmax):
    # the Moebius route against the triangular solve of Table 3's rows,
    # values and types: every class, and the audited ones at t-order 201,
    # one past audit-integrality's 200 pin
    pair = twining_pair(label, 24 * max(tmax, 1))
    got = twining_to_symtraces(*pair, tmax)
    want = twining_to_symtraces_by_solve(*pair, tmax)
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]


@pytest.mark.parametrize("tmax", (1, 6, 20))
@pytest.mark.parametrize("label", SYMPLECTIC_CLASSES[1:])
def test_twining_solve_matches_the_decomposition_on_the_split(label, tmax):
    # the fixed-point genus, split into its pair by jacobi_split
    s = equivariant_elliptic_genus(label, twining_truncation(tmax))
    want = twining_to_symtraces_by_decomposition(s, tmax)
    got = twining_to_symtraces(*jacobi_split(s), tmax)
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]


def test_the_inverse_problem_flows_and_decomposes_no_twining(monkeypatch):
    # from cold caches the solve, the CLI audit and criterion 10 build
    # nothing in (q, y), never flow and decompose no genus: H's closed
    # form gives the genus's multiplicities
    from k3moonshine import acceptance, cli, genus, mckay, n4char
    n4char._genus_multiplicities.cache_clear()
    n4char.mathieu_h.cache_clear()

    def refuse(*_args):
        raise AssertionError("the (a, f) route took the (q, y) route")

    monkeypatch.setattr(TruncatedSeries, "spectral_flow", refuse)
    monkeypatch.setattr(TruncatedSeries, "substitute_y_sign", refuse)
    for module in (n4char, acceptance):
        # acceptance binds no decompose_into_n4 since criterion 6 reads
        # Table 3's rows; the refusal still covers one it might import
        monkeypatch.setattr(module, "decompose_into_n4", refuse,
                            raising=False)
        monkeypatch.setattr(module, "twining_truncation", refuse)
    for module in (genus, acceptance):
        monkeypatch.setattr(module, "elliptic_genus", refuse)
    monkeypatch.setattr(mckay, "twining_genus", refuse)
    assert acceptance.check_10_audit()[0]
    assert cli.main(["audit-integrality"]) == 0
    assert twining_to_symtraces(*twining_pair("2B", 20 * 24), 20)


# -- the CLI's decomposing commands read Table 3 and H -------------------------

def _cli_report(argv):
    from k3moonshine.cli import build_parser
    args = build_parser().parse_args(argv)
    return args.func(args)


@pytest.mark.parametrize("sector", ("NS", "R"))
@pytest.mark.parametrize("n", range(11))
def test_n4_decompose_matches_the_decomposition(n, sector):
    # Table 3's row in closed form against ch_{V_N} decomposed, in either
    # sector; for N > q_order + 3 both are the zero row
    for q_order in range(1, 14):
        argv = ["n4-decompose", "--n", str(n), "--q-order", str(q_order),
                "--sector", sector]
        assert _cli_report(argv) == \
            n4_decompose_by_decomposition(n, q_order, sector), q_order


def test_genus_decompose_matches_the_decomposition():
    # minus H's coefficients against the (q, y) genus decomposed
    for q_order in range(1, 61):
        assert _cli_report(["genus-decompose", "--q-order", str(q_order)]) \
            == genus_decompose_by_decomposition(q_order), q_order


def test_twining_truncation_is_the_flow_back_from_q0():
    # the genus starts at q^0, and its flow back reaches the truncation
    # at which a ch_{V_N} decomposes to the columns k < tmax
    for tmax in range(1, 401):
        assert twining_truncation(tmax) == \
            flow_truncation(decomposition_truncation(tmax), 0), tmax


def test_the_decomposing_commands_build_no_series(monkeypatch):
    # from cold caches n4-decompose and genus-decompose build no ch_{V_N}
    # and no genus, never flow and decompose nothing
    from k3moonshine import cli, genus, n4char
    argvs = [["n4-decompose", "--n", str(n), "--q-order", "12", "--sector",
              sector] for n in (0, 1, 4, 10) for sector in ("NS", "R")]
    argvs += [["genus-decompose"], ["genus-decompose", "--q-order", "40"]]
    want = [_cli_report(argv) for argv in argvs]
    for cached in (n4char._typical_row, n4char._h_column, n4char.h_series,
                   n4char._genus_multiplicities, n4char.mathieu_h):
        cached.cache_clear()

    def refuse(*_args):
        raise AssertionError("a decomposing command took the (q, y) route")

    monkeypatch.setattr(TruncatedSeries, "spectral_flow", refuse)
    for name in ("decompose_into_n4", "ch_vn_h_form", "elliptic_genus"):
        for module in (cli, genus, n4char):
            monkeypatch.setattr(module, name, refuse, raising=False)
    assert [_cli_report(argv) for argv in argvs] == want
    for argv in argvs:
        assert cli.main(argv) == 0


# -- truncation: the result at T is the result at T + 24 cut to T -------------

def _cut(dec, horizon):
    return {h: c for h, c in dec.typical.items()
            if 24 * (h - Fraction(3, 8)) < horizon}


# inputs of different lowest orders, built below a truncation: ch_{V_0}
# and ch_{V_1} lead at q^(-1/4), and ch_{V_4}, the Ramond characters
# flowed back to NS, the genus and the twinings lead higher
DECOMPOSE_INPUTS = (
    [(partial(ch_vn_h_form, n), "NS") for n in (0, 1, 4)]
    + [(lambda t, n=n: ch_vn_h_form(n, t).spectral_flow(+1), "R")
       for n in (0, 2, 5)]
    + [(lambda t: elliptic_genus(t).spectral_flow(-1).substitute_y_sign(),
        "NS")]
    + [(partial(_ns_twining, label), "NS") for label in ("2A", "11A", "23AB")]
)


@pytest.mark.parametrize("t", (4 * 24, 7 * 24, 13 * 24))
def test_decompose_truncation_is_sound(t):
    # the margins of the decomposition come from the input's lowest order:
    # the input at t + 24 gives the same atypical coefficient and the same
    # multiplicities below the horizon at t, which is the NS input's
    # trunc24 + 3 (eta^3 leads at q^(1/8))
    for build, sector in DECOMPOSE_INPUTS:
        low, high = build(t), build(t + 24)
        if sector == "R":
            low, high = low.spectral_flow(-1), high.spectral_flow(-1)
        a, b = decompose_into_n4(low), decompose_into_n4(high)
        assert a.horizon24 == low.trunc24 + 3
        assert a.atypical == b.atypical
        assert a.horizon24 < b.horizon24
        assert _cut(b, a.horizon24) == dict(a.typical)


@pytest.mark.parametrize("t", (24, 4 * 24, 8 * 24))
@pytest.mark.parametrize("label", SYMPLECTIC_CLASSES)
def test_equivariant_genus_truncation_is_sound(label, t):
    low = equivariant_elliptic_genus(label, t)
    high = equivariant_elliptic_genus(label, t + 24)
    assert low.trunc24 == t
    _same_series(high.truncate(t), low)


@pytest.mark.parametrize("t", (2 * 24, twining_truncation(6)))
@pytest.mark.parametrize("label", TWININGS)
def test_twining_genus_truncation_is_sound(label, t):
    low = twining_genus(label, t)
    high = twining_genus(label, t + 24)
    assert low.trunc24 == t
    _same_series(high.truncate(t), low)


@pytest.mark.parametrize("t", (6, 24, 6 * 24, 13 * 24))
def test_polar_part_truncation_is_sound(t):
    low = polar_part(t)
    high = polar_part(t + 24)
    assert low.trunc24 == t
    _same_series(high.truncate(t), low)


@pytest.mark.parametrize("t", (6, 24, 6 * 24, 13 * 24))
@pytest.mark.parametrize("n", (0, 1, 2, 5, 10))
def test_ch_vn_h_form_truncation_is_sound(n, t):
    low = ch_vn_h_form(n, t)
    high = ch_vn_h_form(n, t + 24)
    assert low.trunc24 == t
    _same_series(high.truncate(t), low)


@pytest.mark.parametrize("t", (2 * 24, twining_truncation(6)))
@pytest.mark.parametrize("label", TWININGS)
def test_f_series_truncation_is_sound(label, t):
    low = f_series(label, t)
    high = f_series(label, t + 24)
    assert low.trunc24 == t
    _same_series(high.truncate(t), low)


# Every series builder is exact below the trunc24 it is asked for: built
# at T + 24 and cut to T it is the builder at T, and at T it states T.  The
# memoized builders take the leading arguments of ``test_caches``'s
# samples; ``ch_vn_h_form``, ``f_series`` and ``twining_genus`` have tests
# of their own above.
CACHED_BUILDERS = (
    "modforms.eta_power", "modforms.eisenstein_e2",
    "modforms.weak_jacobi_columns", "modforms.weak_jacobi_phi",
    "genus.equivariant_elliptic_genus", "n4char.g_sum",
    "n4char.h_series", "n4char._theta3_over_eta3",
    "n4char._typical_prefactor", "n4char.mathieu_h",
)
UNCACHED_BUILDERS = {
    "n4char.polar_part": polar_part,
    "n4char.atypical_ns": atypical_ns,
    "n4char.g_series": partial(g_series, 2),
    "n4char.ch_vn_closed": partial(ch_vn_closed, 1),
    # route_oracle.n4_character, under the keys its test ids have always had;
    # h = 5/2 leads at q^2 in NS and at q^(9/4) in R, at or past T = 48,
    # where the character is the zero series; h = 1/4 leads at q^(-1/4)
    "n4char.n4_character-NS": partial(n4_character, Fraction(5, 2), "NS"),
    "n4char.n4_character-R": partial(n4_character, Fraction(5, 2), "R"),
    "n4char.n4_character-NS-massless": partial(
        n4_character, Fraction(1, 4), "NS"),
    "mckay.m2_basis": lambda t: [b for level in (11, 14, 15, 23)
                                 for b in m2_basis(level, t)],
    "mckay.fit_in_m2": lambda t: fit_in_m2(f_from_traces("23AB"), 23, t),
}


@pytest.mark.parametrize("t", (48, 100, 312))
@pytest.mark.parametrize("name", CACHED_BUILDERS + tuple(UNCACHED_BUILDERS))
def test_series_builder_truncation_is_sound(name, t):
    build = UNCACHED_BUILDERS.get(name) or partial(
        _cached_builders()[name], *SAMPLE_ARGS[name][:-1])
    low, high = build(t), build(t + 24)
    if not isinstance(low, (tuple, list)):   # a pair of columns, a basis
        low, high = (low,), (high,)
    for lo, hi in zip(low, high, strict=True):
        assert (lo.trunc24, hi.trunc24) == (t, t + 24)
        assert dict(hi.truncate(lo.trunc24).terms) == dict(lo.terms)


def _perturbed(s):
    """s with terms added at and past its trunc24 and known 24 further: a
    result below its own stated trunc24 must not see them.  They sit at y^0
    and at the edge of the y-envelope ``substitute_q_shift`` assumes,
    |y2| = 4 + (q24 - lowest) // 24, where the bound steps up too."""
    t = s.trunc24
    lowest = s.min_q24 if s.terms else t
    extra = {}
    for q24 in {t, t + 1, t + (lowest - t) % 24, t + 23}:
        edge = 4 + (q24 - lowest) // 24
        extra.update({(q24, y2): 5 for y2 in (-edge, 0, edge)})
    return TruncatedSeries({**s.terms, **extra}, t + 24)


# each kernel with inputs of several lead orders, at an input truncation t
KERNELS = {
    "mul": (TruncatedSeries.__mul__, lambda t: [
        (jacobi_theta(3, t), eta_power(-3, t)),
        (ch_vn_h_form(1, t), eta_power(3, t - 30)),
        (polar_part(t), jacobi_theta(2, t + 7)),
        (TruncatedSeries.zero(t), jacobi_theta(3, t)),
    ]),
    "divide_exact": (TruncatedSeries.divide_exact, lambda t: [
        (ch_vn_h_form(0, t) * eta_power(3, t + 9), jacobi_theta(3, t)),
        (jacobi_theta(3, t), eta_power(3, t - 20)),
        (eta_power(-6, t), weak_jacobi_columns(-2, t + 5)[0]),
    ]),
    "spectral_flow": (TruncatedSeries.spectral_flow, lambda t: [
        (ch_vn_h_form(0, t), 1),
        (ch_vn_h_form(2, t), 1),
        (ch_vn_h_form(1, t).spectral_flow(1), -1),
        (ramond_basis_character(3, t), -1),
    ]),
}


@pytest.mark.parametrize("t", (48, 100, 312))
@pytest.mark.parametrize("name", KERNELS)
def test_series_kernel_truncation_is_sound(name, t):
    # a kernel's result below its trunc24 never changes when any series
    # input is perturbed at or past that input's own trunc24
    kernel, cases = KERNELS[name]
    for args in cases(t):
        result = kernel(*args)
        series = [i for i, x in enumerate(args)
                  if isinstance(x, TruncatedSeries)]
        for chosen in [[i] for i in series] + [series]:
            other = kernel(*[_perturbed(x) if i in chosen else x
                             for i, x in enumerate(args)])
            assert other.trunc24 >= result.trunc24
            assert dict(other.truncate(result.trunc24).terms) == \
                dict(result.terms)


def test_polar_part_matches_the_product_route():
    for t in range(1, 401):
        _same_series(polar_part(t), polar_part_by_products(t))


@pytest.mark.parametrize("t", (1, 8, 9, 10, 24, 72, 78, 312, 720))
def test_g_sum_matches_the_product_route(t):
    for n in range(-6, 16):
        _same_series(g_sum(n, t), g_sum_by_products(n, t))
