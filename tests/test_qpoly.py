from fractions import Fraction

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from canonical import is_canonical
from gcd_oracle import GcdRationalFunction, Poly
from k3moonshine.cyclotomic import zeta
from k3moonshine.genus import (
    chi_sym_power, chi_symt_series, elliptic_genus, equivariant_elliptic_genus,
    expand_product, fixed_point_count, rational_form,
)
from k3moonshine.mckay import (
    cusp_form, eisenstein_difference, euler_character_value, f_series,
    fit_in_m2, k_layer_trace, m2_basis,
)
from k3moonshine.mill import class_data, mill_rational_table
from k3moonshine.modforms import eta_scaled, jacobi_theta
from k3moonshine.mukai import build_group, mukai_table
from k3moonshine.n4char import (
    ch_vn_closed, ch_vn_extract, decomposition_truncation,
    genus_A_coefficients, ramond_basis_character, twining_to_symtraces,
    twining_truncation,
)
from k3moonshine.qpoly import (
    RationalFunction, _cyclotomic_coeffs, _horner, _int_divexact, _int_mul,
    _phi_divides, _product_coeffs, euler_phi, linear_combinations, moebius,
    reconstruct_rational, require_int, require_key,
)
from k3moonshine.replattice import chosen_rational_form, decompose_family
from k3moonshine.series import TruncatedSeries
from k3moonshine.tables import load_m23, load_mukai


def test_cyclotomic_polys():
    assert _cyclotomic_coeffs(1) == (-1, 1)
    assert _cyclotomic_coeffs(2) == (1, 1)
    assert _cyclotomic_coeffs(6) == (1, -1, 1)
    assert _cyclotomic_coeffs(23) == (1,) * 23
    # Phi_105 famously has a coefficient -2
    assert -2 in _cyclotomic_coeffs(105)
    # product over divisors reconstitutes t^n - 1
    assert _product_coeffs({1: 1, 2: 1, 3: 1, 6: 1}.items()) == \
        [-1, 0, 0, 0, 0, 0, 1]


def test_expand_binomial():
    # 2/(1+t)^2 = 2 - 4t + 6t^2 - 8t^3 + ...
    r = RationalFunction(2, {2: 2})
    assert r.expand(4) == [Fraction(2), Fraction(-4), Fraction(6), Fraction(-8)]


def test_expand_r1a_display():
    # (2 - 28t + 2t^2)/(t-1)^4 expanded
    r = RationalFunction((2, -28, 2), {1: 4})
    assert r.expand(7) == [Fraction(c) for c in (2, -20, -90, -232, -470, -828, -1330)]


def test_constant_expansion():
    assert RationalFunction((1,), {}).expand(3) == [1, 0, 0]


def test_expansion_is_canonical():
    # an integral content gives ints, any other content canonical Fractions
    r = RationalFunction((2, -28, 2), {1: 4})
    assert [type(c) for c in r.expand(7)] == [int] * 7
    half = r * Fraction(1, 4)
    got = half.expand(7)
    assert got == [Fraction(c, 4) for c in r.expand(7)]
    assert [type(c) for c in got] == \
        [int if c.denominator == 1 else Fraction for c in got]


def test_equal_values_hash_alike():
    # the zero, constant and rational cases: every member of a group
    # equals every other, so all hash alike and a set keeps one
    groups = [
        (0, Fraction(0), RationalFunction(0), RationalFunction(()),
         RationalFunction((), {3: 1})),
        (2, Fraction(2), RationalFunction(2), RationalFunction((2, 0)),
         RationalFunction((2, 2), {2: 1})),
        (Fraction(1, 3), RationalFunction(Fraction(1, 3))),
        (RationalFunction((1, 2)),
         RationalFunction(_int_mul((1, 2), _cyclotomic_coeffs(3)), {3: 1})),
        (RationalFunction((1, 2), {1: 2}),
         RationalFunction(_int_mul((1, 2), _cyclotomic_coeffs(5)),
                          {1: 2, 5: 1})),
    ]
    for group in groups:
        for x in group:
            for y in group:
                assert x == y and hash(x) == hash(y), (x, y)
        assert len(set(group)) == 1
    assert len({RationalFunction(2), 2}) == 1
    assert len(set().union(*map(set, groups))) == len(groups)


def test_numerator_and_denominator_are_canonical_tuples():
    # num reads c * N back as canonical rationals, den the monic integers
    r = RationalFunction((Fraction(1, 2), 1, Fraction(3, 2)), {1: 2, 3: 1})
    assert r.num == (Fraction(1, 2), 1, Fraction(3, 2))
    assert type(r.num) is tuple and all(map(is_canonical, r.num))
    assert type(r.num[1]) is int
    # (t - 1)^2 (t^2 + t + 1)
    assert r.den == (1, -1, 0, -1, 1) and all(type(x) is int for x in r.den)
    assert eval(repr(r)) == r


def test_floats_are_refused():
    # a float coefficient, a float constant and a float scalar all raise,
    # as TruncatedSeries and the lattice layer do, instead of rounding
    with pytest.raises(TypeError):
        RationalFunction((0.1, 2), {3: 1})
    with pytest.raises(TypeError):
        RationalFunction(0.5)
    r = RationalFunction((1, 2), {3: 1})
    with pytest.raises(TypeError):
        r * 0.5
    with pytest.raises(TypeError):
        0.5 * r
    with pytest.raises(TypeError):
        r + 0.5


@pytest.mark.parametrize("den", [{1: 1.0}, {1.5: 1}, {True: 1},
                                 {Fraction(3): 1}])
def test_exponent_map_takes_ints_only(den):
    # a float, Fraction or bool entry is refused by name, not read as the
    # int it compares equal to and left to fail in expand
    (d, e), = den.items()
    with pytest.raises(TypeError, match=re.escape(f"entry {d!r}: {e!r}")):
        RationalFunction((1,), den)


def test_forms_are_values_not_a_ring():
    # a form scales by a rational; sums go through linear_combinations
    r = RationalFunction((1, 2), {3: 1})
    assert r * 2 == 2 * r == RationalFunction((2, 4), {3: 1})
    for op in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(TypeError):
            op(RationalFunction(1), RationalFunction(1))
    with pytest.raises(TypeError):
        -r


def test_reconstruct_rational():
    num = (2, 3, 4, 3, 2)
    series = RationalFunction(num, {7: 1}).expand(2 * 6 + 4)
    got = reconstruct_rational(series, {7: 1})
    assert got == num and all(type(x) is int for x in got)
    # a perturbed series does not force-fit
    series[-1] += 1
    assert reconstruct_rational(series, {7: 1}) is None
    with pytest.raises(ValueError):
        reconstruct_rational(series[:3], {7: 1})


def test_reconstruct_constant():
    got = reconstruct_rational([Fraction(2), Fraction(0), Fraction(0)], {})
    assert got == (2,) and type(got[0]) is int


def test_pole_coefficient():
    # 5/(t-1)^4 + 1/(t-1): leading order-4 coefficient at t=1 is 5
    f, = linear_combinations(
        [RationalFunction(5, {1: 4}), RationalFunction(1, {1: 1})], [(1, 1)])
    assert f.pole_coefficient(Fraction(1), 4) == 5


@pytest.mark.parametrize("at, order, error", [
    (1.0, 4, TypeError), (1, 4.0, TypeError), (1, True, TypeError),
    (1, Fraction(4), TypeError), (1, -1, ValueError)])
def test_pole_coefficient_refuses_a_float_point_and_a_bad_order(
        at, order, error):
    # each of these read as -24, the coefficient at (1, 4), or failed late
    r = RationalFunction((2, -28, 2), {1: 4})
    assert r.pole_coefficient(1, 4) == -24
    with pytest.raises(error):
        r.pole_coefficient(at, order)


# each of these returned a value or failed deep inside
_F = TruncatedSeries.zero(24 * 4)
INTEGER_ARGUMENT_PROBES = {
    "twining_truncation float": (lambda: twining_truncation(6.5), "tmax"),
    "twining_truncation bool": (lambda: twining_truncation(True), "tmax"),
    "twining_truncation negative": (lambda: twining_truncation(-1), "tmax"),
    "twining_to_symtraces float a": (
        lambda: twining_to_symtraces(0.5, _F, 3), "for a,"),
    "twining_to_symtraces float tmax": (
        lambda: twining_to_symtraces(1, _F, 3.0), "tmax"),
    "twining_to_symtraces bool tmax": (
        lambda: twining_to_symtraces(1, _F, True), "tmax"),
    "twining_to_symtraces negative tmax": (
        lambda: twining_to_symtraces(1, _F, -1), "tmax"),
    "zeta float k": (lambda: zeta(4, 1.0), "k"),
    "zeta bool k": (lambda: zeta(4, True), "k"),
    # each of these read a bool as 0 or 1, took a float or a negative size,
    # failed unnamed or, for eta_scaled(0, 24), never returned
    "chi_symt_series bool terms": (
        lambda: chi_symt_series("2A", True), "terms"),
    "chi_symt_series float terms": (
        lambda: chi_symt_series("2A", 2.0), "terms"),
    "chi_symt_series negative terms": (
        lambda: chi_symt_series("2A", -3), "terms"),
    "chi_sym_power bool": (lambda: chi_sym_power(True), "n"),
    "eta_scaled bool a": (lambda: eta_scaled(True, 24), "a"),
    "eta_scaled zero a": (lambda: eta_scaled(0, 24), "a"),
    "ch_vn_closed bool N": (lambda: ch_vn_closed(True, 24), "N"),
    "decomposition_truncation bool": (
        lambda: decomposition_truncation(True), "ncols"),
    "decomposition_truncation negative": (
        lambda: decomposition_truncation(-5), "ncols"),
    "k_layer_trace bool n": (lambda: k_layer_trace(True, "2A"), "n"),
    "m2_basis bool level": (lambda: m2_basis(True, 48), "level"),
    "RationalFunction.expand bool": (
        lambda: RationalFunction((1,), {1: 1}).expand(True), "terms"),
    "RationalFunction.expand negative": (
        lambda: RationalFunction((1,), {1: 1}).expand(-2), "terms"),
    "jacobi_theta float kind": (lambda: jacobi_theta(3.0, 24), "kind"),
    # each of these returned a value (the float 2.0, 1 for n <= 0, a series
    # or L2(7)'s group) or, for a float in the prefix, an AttributeError
    "euler_phi float": (lambda: euler_phi(6.0), "n"),
    "euler_phi zero": (lambda: euler_phi(0), "n"),
    "euler_phi negative": (lambda: euler_phi(-5), "n"),
    "moebius zero": (lambda: moebius(0), "n"),
    "eisenstein_difference bool d": (
        lambda: eisenstein_difference(True, 48), "d"),
    "eisenstein_difference zero d": (
        lambda: eisenstein_difference(0, 48), "d"),
    "eisenstein_difference negative d": (
        lambda: eisenstein_difference(-2, 48), "d"),
    "cusp_form float level": (lambda: cusp_form(11.0, 48), "level"),
    "fit_in_m2 float prefix": (
        lambda: fit_in_m2([1.0, 24, 24, 96], 2, 96), "prefix"),
    "TruncatedSeries.monomial bool q24": (
        lambda: TruncatedSeries.monomial(1, True), "q24"),
    "TruncatedSeries.at float q24": (lambda: _F.at(0.0), "q24"),
    "TruncatedSeries.at bool q24": (lambda: _F.at(True), "q24"),
    "TruncatedSeries.y_coefficient float": (
        lambda: _F.y_coefficient(1.0), "y2"),
    "TruncatedSeries.spectral_flow bool": (
        lambda: _F.spectral_flow(True), "direction"),
    "ch_vn_extract bool N": (lambda: ch_vn_extract(True, {0: _F}), "N"),
    "ramond_basis_character bool N": (
        lambda: ramond_basis_character(True, 24), "N"),
    "genus_A_coefficients bool nmax": (
        lambda: genus_A_coefficients(True, elliptic_genus(96)), "nmax"),
    "expand_product float trunc24": (
        lambda: expand_product((0, 0, 0), [], [], 24.0), "trunc24"),
    "mukai_table bool index": (lambda: mukai_table(True), "index"),
    "build_group float index": (lambda: build_group(1.0), "index"),
}


@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENT_PROBES))
def test_an_integer_argument_is_an_int(name):
    probe, argument = INTEGER_ARGUMENT_PROBES[name]
    with pytest.raises((TypeError, ValueError), match=re.escape(argument)):
        probe()


def test_the_integer_argument_rule():
    assert require_int("n", 3) == 3 and require_int("n", -3) == -3
    for value in (True, 3.0, Fraction(3), "3", None):
        with pytest.raises(TypeError,
                           match=re.escape(f"n must be an int, got {value!r}")):
            require_int("n", value)
    assert twining_truncation(0) == 48 and zeta(4, 5) == zeta(4)


# a class label or a layer outside its table once raised a bare KeyError
LABEL_ARGUMENT_PROBES = {
    "chi_symt_series": (lambda: chi_symt_series("9Z", 3), "label", "'9Z'"),
    "equivariant_elliptic_genus": (
        lambda: equivariant_elliptic_genus("9Z", 24), "label", "'9Z'"),
    "rational_form": (lambda: rational_form("9Z"), "label", "'9Z'"),
    "f_series": (lambda: f_series("9Z", 24), "label", "'9Z'"),
    # an M24 class with no f_g level
    "f_series M24 class": (lambda: f_series("3B", 24), "label", "'3B'"),
    "euler_character_value": (
        lambda: euler_character_value("9Z"), "label", "'9Z'"),
    "k_layer_trace label": (lambda: k_layer_trace(1, "9Z"), "label", "'9Z'"),
    "k_layer_trace label at n = 0": (
        lambda: k_layer_trace(0, "9Z"), "label", "'9Z'"),
    "k_layer_trace layer": (lambda: k_layer_trace(6, "2A"), "n", "6"),
    "k_layer_trace negative layer": (
        lambda: k_layer_trace(-1, "2A"), "n", "-1"),
    "fixed_point_count": (lambda: fixed_point_count("9Z"), "label", "'9Z'"),
    "chosen_rational_form": (
        lambda: chosen_rational_form("9Z"), "label", "'9Z'"),
    "class_data": (lambda: class_data("M22"), "name", "'M22'"),
    "mill_rational_table": (
        lambda: mill_rational_table("M22"), "name", "'M22'"),
    # index 0 read T48's spec and 12 raised IndexError; load_mukai(12)
    # asked for a file that generate_all never writes
    "mukai_table index 0": (lambda: mukai_table(0), "index", "0"),
    "mukai_table index 12": (lambda: mukai_table(12), "index", "12"),
    "load_mukai index 12": (lambda: load_mukai(12), "index", "12"),
}


@pytest.mark.parametrize("name", sorted(LABEL_ARGUMENT_PROBES))
def test_an_unknown_label_or_layer_is_a_value_error(name):
    probe, argument, value = LABEL_ARGUMENT_PROBES[name]
    with pytest.raises(ValueError,
                       match=f"^{re.escape(argument)} .*{re.escape(value)}$"):
        probe()


def test_the_key_argument_rule():
    table = {"a": 1, 2: "b"}
    assert require_key("x", "a", table) == 1
    assert require_key("x", 2, table) == "b"
    with pytest.raises(ValueError,
                       match=re.escape("x must be one of a, 2, got 'c'")):
        require_key("x", "c", table)
    # the lookups by a table's own labels keep their documented KeyError
    m23 = load_m23()
    with pytest.raises(KeyError):
        m23.class_index("9Z")
    with pytest.raises(KeyError, match="family missing class"):
        decompose_family(m23, {"1A": [1]})


def test_linear_combinations_refuses_a_short_row_and_a_float_weight():
    r = RationalFunction((2, -28, 2), {1: 4})
    with pytest.raises(ValueError, match="1 weights for 2 forms"):
        linear_combinations([r, r], [(1,)])
    with pytest.raises(ValueError, match="3 weights for 2 forms"):
        linear_combinations([r, r], [(1, 1, 1)])
    with pytest.raises(TypeError):
        linear_combinations([r, r], [(1, 0.5)])
    assert linear_combinations([r, r], [(1, Fraction(1, 2))]) == \
        [r * Fraction(3, 2)]


@pytest.mark.parametrize("den", [(2, 1), (1, 2), (1, 0, 1, 1),
                                 tuple(_int_mul(_cyclotomic_coeffs(5), (1, 3)))])
def test_non_cyclotomic_denominator_is_rejected(den):
    # a denominator is only ever its exponent map, never coefficients
    with pytest.raises(ValueError):
        RationalFunction((1,), den)


@pytest.mark.parametrize("d", range(1, 61))
def test_phi_fold_test_matches_trial_division(d):
    # Phi_d divides a polynomial exactly when it divides its fold modulo
    # t^d - 1: multiples of Phi_d (and of its square), the same plus one
    # stray term, and random polynomials longer and shorter than d
    rng = random.Random(d)
    phi = _cyclotomic_coeffs(d)
    for _ in range(12):
        base = [rng.randint(-4, 4) for _ in range(rng.randint(1, 2 * d + 3))]
        multiple = _int_mul(base, phi)
        stray = list(multiple)
        stray[rng.randrange(len(stray))] += rng.choice((-1, 1))
        for coeffs in (base, multiple, _int_mul(multiple, phi), stray):
            want = _int_divexact(coeffs, phi) is not None
            assert _phi_divides(coeffs, d) == want, coeffs


def test_zero_is_reduced_to_denominator_one():
    z = RationalFunction((0,), {7: 2})
    assert (z.num, z.den) == ((), (1,))
    r = RationalFunction((1, 2), {3: 1})
    assert linear_combinations([r, r], [(1, -1)]) == [z] == [0]


# -- the exponent-map route against the gcd route ------------------------------

DIFFERENTIAL = settings(max_examples=60, deadline=None, derandomize=True)

FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def rational_pairs(draw):
    """A RationalFunction and its gcd-route twin: a Phi-product
    denominator (d <= 24, exponents <= 4, degree <= 32, which bounds the
    oracle's Euclid) over a Fraction numerator that
    shares a random part of it, so that reduction has work to do."""
    exps = draw(st.dictionaries(st.integers(1, 24), st.integers(1, 4),
                                max_size=3)
                .filter(lambda e: len(_product_coeffs(e.items())) <= 33))
    shared = {d: draw(st.integers(0, e)) for d, e in exps.items()}
    base = Poly(draw(st.lists(FRACTIONS, max_size=6)))
    num = base * Poly(_product_coeffs(shared.items()))
    den = Poly(_product_coeffs(exps.items()))
    return RationalFunction(num.c, exps), GcdRationalFunction(num, den)


def pole_order_at_one(den: Poly) -> int:
    order = 0
    while _horner(den.c, 1) == 0:
        den = den // Poly(_cyclotomic_coeffs(1))
        order += 1
    return order


def assert_same(new, old):
    assert (new.num, new.den) == (old.num.c, old.den.c)
    assert all(map(is_canonical, new.num))
    assert all(type(x) is int for x in new.den)
    assert new.expand(12) == old.expand(12)
    e1 = pole_order_at_one(old.den)
    assert new.pole_coefficient(Fraction(1), e1) == \
        old.pole_coefficient(Fraction(1), e1)


@DIFFERENTIAL
@given(a=rational_pairs())
def test_construction_matches_gcd_route(a):
    assert_same(*a)


@DIFFERENTIAL
@given(a=rational_pairs(), k=FRACTIONS)
def test_scalar_multiple_matches_gcd_route(a, k):
    assert_same(a[0] * k, a[1] * k)
    assert_same(k * a[0], a[1] * k)
