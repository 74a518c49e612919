from fractions import Fraction

import random

import pytest
from hypothesis import given, settings, strategies as st

from gcd_oracle import GcdRationalFunction, poly_gcd
from k3moonshine.qpoly import (
    Poly, RationalFunction, _cyclotomic_coeffs, _horner, _int_divexact,
    _int_mul, _phi_divides, cyclotomic_poly, cyclotomic_product,
    reconstruct_rational,
)


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == Poly([-1, 1])
    assert cyclotomic_poly(2) == Poly([1, 1])
    assert cyclotomic_poly(6) == Poly([1, -1, 1])
    assert cyclotomic_poly(23) == Poly([1] * 23)
    # Phi_105 famously has a coefficient -2
    assert -2 in cyclotomic_poly(105).c
    # product over divisors reconstitutes t^n - 1
    prod = Poly([1])
    for d in (1, 2, 3, 6):
        prod = prod * cyclotomic_poly(d)
    assert prod == Poly([-1, 0, 0, 0, 0, 0, 1])


def test_poly_divmod_gcd():
    a = Poly([2, 0, -4, 6])
    b = Poly([1, 1])
    q, r = a.divmod(b)
    assert q * b + r == a
    g = poly_gcd(Poly([1, 1]) * Poly([2, 1]), Poly([1, 1]) * Poly([3, 1]))
    assert g == Poly([1, 1])


def test_expand_binomial():
    # 2/(1+t)^2 = 2 - 4t + 6t^2 - 8t^3 + ...
    r = RationalFunction(Poly([2]), {2: 2})
    assert r.expand(4) == [Fraction(2), Fraction(-4), Fraction(6), Fraction(-8)]


def test_expand_r1a_display():
    # (2 - 28t + 2t^2)/(t-1)^4 expanded
    r = RationalFunction(Poly([2, -28, 2]), {1: 4})
    assert r.expand(7) == [Fraction(c) for c in (2, -20, -90, -232, -470, -828, -1330)]


def test_constant_expansion():
    assert RationalFunction(Poly([1]), {}).expand(3) == [1, 0, 0]


def test_expansion_is_canonical():
    # an integral content gives ints, any other content canonical Fractions
    r = RationalFunction(Poly([2, -28, 2]), {1: 4})
    assert [type(c) for c in r.expand(7)] == [int] * 7
    half = r * Fraction(1, 4)
    got = half.expand(7)
    assert got == [Fraction(c, 4) for c in r.expand(7)]
    assert [type(c) for c in got] == \
        [int if c.denominator == 1 else Fraction for c in got]


def test_equal_values_hash_alike():
    # the zero, constant, polynomial and rational cases: every member of a
    # group equals every other, so all hash alike and a set keeps one
    phi3, phi5 = cyclotomic_poly(3), cyclotomic_poly(5)
    groups = [
        (0, Fraction(0), Poly([]), Poly([0]), RationalFunction(0),
         RationalFunction(Poly([]), {3: 1})),
        (2, Fraction(2), Poly([2]), RationalFunction(2),
         RationalFunction(Poly([2, 2]), {2: 1})),
        (Fraction(1, 3), Poly([Fraction(1, 3)]),
         RationalFunction(Fraction(1, 3))),
        (Poly([1, 2]), RationalFunction(Poly([1, 2])),
         RationalFunction(Poly([1, 2]) * phi3, {3: 1})),
        (RationalFunction(Poly([1, 2]), {1: 2}),
         RationalFunction(Poly([1, 2]) * phi5, {1: 2, 5: 1})),
    ]
    for group in groups:
        for x in group:
            for y in group:
                assert x == y and hash(x) == hash(y), (x, y)
        assert len(set(group)) == 1
    assert len({RationalFunction(2), 2}) == 1
    assert len({Poly([2]), 2}) == 1
    assert len(set().union(*map(set, groups))) == len(groups)


def test_reconstruct_rational():
    den = cyclotomic_poly(7)
    num = Poly([2, 3, 4, 3, 2])
    series = RationalFunction(num, {7: 1}).expand(2 * den.degree + 4)
    fit = reconstruct_rational(series, den)
    assert fit is not None
    got, palindromic = fit
    assert got == num
    assert palindromic  # degree 4 = deg(den) - 2 and symmetric
    # a perturbed series does not force-fit
    series[-1] += 1
    assert reconstruct_rational(series, den) is None
    with pytest.raises(ValueError):
        reconstruct_rational(series[:3], den)


def test_reconstruct_constant():
    fit = reconstruct_rational([Fraction(2), Fraction(0), Fraction(0)], Poly([1]))
    assert fit is not None and fit[0] == Poly([2])


def test_pole_coefficient():
    # 5/(t-1)^4 + 1/(t-1): leading order-4 coefficient at t=1 is 5
    f = RationalFunction(Poly([5]), {1: 4}) + \
        RationalFunction(Poly([1]), {1: 1})
    assert f.pole_coefficient(Fraction(1), 4) == 5


@pytest.mark.parametrize("den", [Poly([2, 1]), Poly([1, 2]),
                                 Poly([1, 0, 1, 1]), cyclotomic_poly(5) * Poly([1, 3])])
def test_non_cyclotomic_denominator_is_rejected(den):
    with pytest.raises(ValueError):
        RationalFunction(Poly([1]), den)


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
    z = RationalFunction(Poly([0]), {7: 2})
    assert (z.num, z.den) == (Poly([]), Poly([1]))
    r = RationalFunction(Poly([1, 2]), {3: 1})
    assert r - r == z == 0


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
                .filter(lambda e: cyclotomic_product(e).degree <= 32))
    shared = {d: draw(st.integers(0, e)) for d, e in exps.items()}
    base = Poly(draw(st.lists(FRACTIONS, max_size=6)))
    num = base * cyclotomic_product(shared)
    den = cyclotomic_product(exps)
    return RationalFunction(num, exps), GcdRationalFunction(num, den)


def pole_order_at_one(den: Poly) -> int:
    order = 0
    while _horner(den.c, 1) == 0:
        den = den // cyclotomic_poly(1)
        order += 1
    return order


def assert_same(new, old):
    assert (new.num, new.den) == (old.num, old.den)
    # a form without denominator equals, and so hashes as, its numerator
    assert hash(new) == hash(
        (old.num, old.den) if old.den.degree > 0 else old.num)
    assert new.expand(12) == old.expand(12)
    e1 = pole_order_at_one(old.den)
    assert new.pole_coefficient(Fraction(1), e1) == \
        old.pole_coefficient(Fraction(1), e1)


@DIFFERENTIAL
@given(a=rational_pairs())
def test_construction_matches_gcd_route(a):
    assert_same(*a)


@DIFFERENTIAL
@given(a=rational_pairs(), b=rational_pairs())
def test_sum_and_difference_match_gcd_route(a, b):
    assert_same(a[0] + b[0], a[1] + b[1])
    assert_same(a[0] - b[0], a[1] - b[1])


@DIFFERENTIAL
@given(a=rational_pairs(), k=FRACTIONS)
def test_scalar_multiple_matches_gcd_route(a, k):
    assert_same(a[0] * k, a[1] * k)
    assert_same(k * a[0], a[1] * k)
