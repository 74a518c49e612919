import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from k3moonshine.cyclotomic import CyclotomicNumber, euler_phi, zeta
from k3moonshine.modforms import jacobi_theta, theta_null
from k3moonshine.series import (
    INF24,
    InsufficientPrecisionError,
    NotInSpanError,
    TruncatedSeries,
    binomial_factor,
    exact_quotient,
    geometric_factor,
)
from canonical import all_canonical
from division_oracle import divide_by_slices

T = TruncatedSeries


def q(e, c=1, trunc=INF24):
    return T.monomial(Fraction(c), q24=24 * e, trunc24=trunc)


def test_difference_of_squares():
    a = (1 + q(1)).truncate(3 * 24)
    b = (1 - q(1)).truncate(3 * 24)
    prod = a * b
    assert prod.coeff(0) == 1
    assert prod.coeff(1) == 0
    assert prod.coeff(2) == -1


def test_pentagonal_prefix():
    # (1-q)(1-q^2)(1-q^3) truncated at q^4 -> 1 - q - q^2 (+ q^5 ... beyond)
    s = T.const(1, 4 * 24)
    for n in (1, 2, 3):
        s = s * (1 - q(n))
    assert s.coeff(0) == 1
    assert s.coeff(1) == -1
    assert s.coeff(2) == -1
    assert s.coeff(3) == 0


def test_geometric_inverse():
    inv = (1 - q(1)).invert(trunc24=4 * 24)
    for k in range(4):
        assert inv.coeff(k) == 1
    with pytest.raises(InsufficientPrecisionError):
        inv.coeff(4)


def test_invert_roundtrip_with_shift():
    s = T.monomial(Fraction(2), q24=-12) + q(1, 3)
    inv = s.invert(trunc24=5 * 24)
    assert (s * inv).coeff(0) == 1
    assert (s * inv).coeff(2) == 0


def test_mul_truncation_propagation():
    a = (1 + q(1)).truncate(3 * 24)          # known through q^2
    b = T.monomial(Fraction(1), q24=-24)     # exact q^{-1}
    prod = a * b
    assert prod.trunc24 == 3 * 24 - 24
    assert prod.coeff(-1) == 1


def test_ring_axioms_randomized():
    rng = random.Random(7)

    def rand_series():
        terms = {}
        for _ in range(rng.randint(1, 6)):
            key = (rng.randint(-2, 6) * 12, rng.randint(-2, 2) * 2, 0)
            terms[key] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return T(terms, trunc24=rng.randint(4, 8) * 24)

    for _ in range(40):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a


def test_divide_exact_by_multiterm_lead():
    # divide (y - 2 + 1/y) * s by (y - 2 + 1/y) and recover s
    d = T({(0, 2, 0): Fraction(1), (0, 0, 0): Fraction(-2),
           (0, -2, 0): Fraction(1)}, 5 * 24)
    s = (1 + q(1, 5)) + T.monomial(Fraction(3), q24=24, y2=2)
    top = (d * s).truncate(4 * 24)
    back = top.divide_exact(d)
    assert back == s.truncate(back.trunc24)
    # a non-divisible numerator reports the failing order
    bad = T.monomial(Fraction(1), q24=0, y2=2)
    with pytest.raises(NotInSpanError):
        bad.truncate(2 * 24).divide_exact(d)


def test_spectral_flow_roundtrip():
    terms = {}
    rng = random.Random(3)
    for e in range(0, 7):
        for m in range(-e // 2 - 1, e // 2 + 2):
            if rng.random() < 0.5:
                terms[(24 * e, 2 * m, 0)] = Fraction(rng.randint(1, 9))
    s = T(terms, 7 * 24)
    flowed = s.spectral_flow(+1)
    back = flowed.spectral_flow(-1)
    assert back == s.truncate(min(back.trunc24, s.trunc24))
    assert not back.is_zero()


def test_flow_reports_insufficient_precision():
    s = (1 + q(1)).truncate(2 * 24)
    with pytest.raises(InsufficientPrecisionError):
        s.spectral_flow(+1, min_trunc24=10 * 24)


def test_substitutions():
    s = T({(0, 2, 0): Fraction(1), (0, -2, 0): Fraction(1),
           (24, 0, 0): Fraction(5)}, 2 * 24)
    at1 = s.substitute_y_value(1)
    assert at1.coeff(0) == 2
    atm1 = s.substitute_y_value(-1)
    assert atm1.coeff(0) == -2 + 0
    tw = s.twist_y(zeta(3))
    assert tw.coeff(0, y=1) == zeta(3)
    flip = s.substitute_y_sign()
    assert flip.coeff(0, y=1) == -1


def test_constant_flow_examples():
    one = T.const(1, 24 * 6)
    flowed = one.spectral_flow(+1)
    # 1 -> q^{1/4} y
    assert flowed.coeff(Fraction(1, 4), y=1) == 1
    yinv = T.monomial(Fraction(1), y2=-2, trunc24=24 * 6)
    flowed = yinv.spectral_flow(+1)
    # y^{-1} -> q^{-1/4}
    assert flowed.coeff(Fraction(-1, 4)) == 1


def test_geometric_and_binomial_factors():
    g = geometric_factor(Fraction(1), 24, 2, 0, 3 * 24, power=2)
    # (1 - yq)^{-2} = 1 + 2yq + 3y^2q^2 + ...
    assert g.coeff(1, y=1) == 2
    assert g.coeff(2, y=2) == 3
    b = binomial_factor(Fraction(-1), 12, 0, 0)
    assert b.coeff(Fraction(1, 2)) == -1


def test_equality_up_to_min_truncation():
    a = (1 + q(1)).truncate(2 * 24)
    b = (1 + q(1) + q(5)).truncate(6 * 24)
    assert a == b          # differ only beyond q^2
    assert b == a
    c = (1 + q(1, 2)).truncate(2 * 24)
    assert a != c


def test_terms_are_read_only():
    source = {(0, 0, 0): Fraction(1), (24, 2, 0): Fraction(3)}
    s = T(source, 2 * 24)
    source[(0, 0, 0)] = Fraction(5)        # the series copied its input
    assert s.coeff(0) == 1
    for series in (s, s * s, s.truncate(24), -s):
        with pytest.raises(TypeError):
            series.terms[(0, 0, 0)] = Fraction(2)
        with pytest.raises(TypeError):
            del series.terms[(0, 0, 0)]
    assert len(s.terms) == 2 and s.terms.get((24, 2, 0)) == 3


def test_attributes_cannot_be_reassigned():
    # a memoized series is shared by every caller, so neither slot may be
    # rebound or deleted after construction
    from k3moonshine.n4char import h_series
    s = h_series(2, 2 * 24)
    terms = dict(s.terms)
    for name, value in (("trunc24", 0), ("terms", {})):
        with pytest.raises(AttributeError):
            setattr(s, name, value)
        with pytest.raises(AttributeError):
            delattr(s, name)
    again = h_series(2, 2 * 24)
    assert again.trunc24 == 2 * 24 and dict(again.terms) == terms


# -- the canonical coefficient form ------------------------------------------

def test_coefficients_are_canonical():
    # an integral Fraction is stored as an int, a proper one as a Fraction
    s = T({(0, 0, 0): Fraction(6, 3), (24, 0, 0): Fraction(1, 2)}, 2 * 24)
    assert type(s.coeff(0)) is int and s.coeff(0) == 2
    assert s.coeff(1) == Fraction(1, 2)
    half = s.scale(Fraction(1, 2))
    assert type(half.coeff(0)) is int and all_canonical(half)
    assert all_canonical(s * s) and type((s * s).coeff(1)) is int
    # int / int division leaves a Fraction only where it is not even
    inv = (2 - q(1)).invert(trunc24=4 * 24)
    assert [inv.coeff(k) for k in range(4)] == [
        Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]
    assert all_canonical(inv)
    assert all_canonical(((2 - q(1)) * (3 + q(2))).truncate(5 * 24)
                         .divide_exact((2 - q(1)).truncate(5 * 24)))


def test_exact_quotient():
    assert exact_quotient(6, 3) == 2 and type(exact_quotient(6, 3)) is int
    assert exact_quotient(-7, 2) == Fraction(-7, 2)
    assert type(exact_quotient(Fraction(4), Fraction(1, 2))) is int
    assert exact_quotient(zeta(3), 2) == zeta(3) * Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        exact_quotient(1, 0)
    with pytest.raises(TypeError):
        exact_quotient(1, 2.0)


def test_float_coefficient_is_rejected():
    # a float must fail loudly, never round its way into a verdict
    with pytest.raises(TypeError):
        T({(0, 0, 0): 0.5}, 2 * 24)
    with pytest.raises(TypeError):
        T.monomial(1.5, q24=24)
    with pytest.raises(TypeError):
        geometric_factor(0.5, 24, 0, 0, 3 * 24)
    with pytest.raises(TypeError):
        T.const(1, 2 * 24) * 0.5


# -- differential tests of the exact-division route ---------------------------

DIVISION = settings(max_examples=90, deadline=None, derandomize=True,
                    database=None)

DOMAINS = ("int", "rational", "cyclotomic")


@st.composite
def coefficients(draw, domain):
    """A nonzero int, a nonzero rational, or a nonzero element of Q(zeta_3).

    The ints include divisor leading coefficients other than +-1, so
    exact division runs int / int into Fractions.
    """
    def rational():
        return Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    if domain == "int":
        c = draw(st.integers(-4, 4))
    elif domain == "cyclotomic":
        c = CyclotomicNumber(3, [rational(), rational()])
    else:
        c = rational()
    return c if c else 1


@st.composite
def exact_series(draw, domain, lo24=-24):
    """An exactly known Laurent polynomial with a few terms."""
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        key = (lo24 + 12 * draw(st.integers(0, 6)),
               draw(st.integers(-3, 3)), draw(st.integers(-1, 1)))
        terms[key] = draw(coefficients(domain))
    return T(terms, INF24)


@st.composite
def divisors(draw, domain, monomial_lead=None):
    """An exact divisor whose leading q-slice has one z-power: a monomial,
    or a monomial times y - 2 + 1/y; the leading order may be negative."""
    m = 12 * draw(st.integers(-2, 2))
    y2, z = draw(st.integers(-2, 2)), draw(st.integers(-1, 1))
    c = draw(coefficients(domain))
    if monomial_lead is None:
        monomial_lead = draw(st.booleans())
    if monomial_lead:
        lead = {(m, y2, z): c}
    else:
        lead = {(m, y2 + 2, z): c, (m, y2, z): -2 * c, (m, y2 - 2, z): c}
    tail = draw(exact_series(domain, lo24=m + 12))
    return T(lead, INF24) + tail


def _quotient_trunc(num, den):
    nmin = num.trunc24 if num.is_zero() else num.min_q24
    return min(num.trunc24, den.trunc24 + nmin - den.min_q24) - den.min_q24


@DIVISION
@given(data=st.data(), domain=st.sampled_from(DOMAINS),
       tn=st.integers(-2, 10), td=st.integers(1, 8),
       dn=st.integers(0, 4), dd=st.integers(0, 4))
def test_divide_exact_differential(data, domain, tn, td, dn, dd):
    a = data.draw(exact_series(domain))
    b = data.draw(divisors(domain))
    top = a * b
    quotients = []
    for n24, d24 in ((12 * tn, b.min_q24 + 12 * td),
                     (12 * (tn + dn), b.min_q24 + 12 * (td + dd))):
        num, den = top.truncate(n24), b.truncate(d24)
        quo = num.divide_exact(den)
        assert quo.trunc24 == _quotient_trunc(num, den)
        # sound: the exact quotient a agrees below the claimed truncation
        assert quo == a
        assert all_canonical(quo)
        quotients.append(quo)
    # truncation oracle: more precision agrees below the smaller trunc24
    assert quotients[0] == quotients[1]


@DIVISION
@given(data=st.data(), domain=st.sampled_from(DOMAINS),
       tn=st.integers(-4, 8), td=st.integers(1, 8))
def test_zero_numerator_divides_to_zero(data, domain, tn, td):
    b = data.draw(divisors(domain))
    den = b.truncate(b.min_q24 + 12 * td)
    quo = T.zero(12 * tn).divide_exact(den)
    assert quo.is_zero()
    assert quo.trunc24 == 12 * tn - den.min_q24


@DIVISION
@given(data=st.data(), domain=st.sampled_from(DOMAINS),
       td=st.integers(1, 8), dd=st.integers(0, 4))
def test_invert_differential(data, domain, td, dd):
    b = data.draw(divisors(domain, monomial_lead=True))
    m = b.min_q24
    inverses = []
    for d24 in (m + 12 * td, m + 12 * (td + dd)):
        s = b.truncate(d24)
        inv = s.invert()
        assert inv.trunc24 == s.trunc24 - 2 * m
        assert s * inv == 1
        assert all_canonical(inv)
        inverses.append(inv)
    assert inverses[0] == inverses[1]


def test_invert_requires_monomial_lead():
    d = T({(0, 2, 0): Fraction(1), (0, 0, 0): Fraction(-2),
           (0, -2, 0): Fraction(1)}, 5 * 24)
    with pytest.raises(NotInSpanError):
        d.invert()
    with pytest.raises(ZeroDivisionError):
        T.zero(24).invert()
    with pytest.raises(ValueError):
        (1 + q(1)).invert()


# -- monic normalisation: divisors with a non-unit lead ------------------------

NON_UNIT_CONDUCTORS = (3, 4, 5, 7, 8)


@st.composite
def integral_cyclotomic(draw, n):
    """A nonzero element of Z[zeta_n] with small coordinates."""
    c = CyclotomicNumber(n, [draw(st.integers(-3, 3))
                             for _ in range(euler_phi(n))])
    return c if c else CyclotomicNumber.from_rational(n, 1)


@st.composite
def integral_series(draw, n, lo24):
    """An exact series over Z[zeta_n] with a few terms from q^(lo24/24) up."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        key = (lo24 + 12 * draw(st.integers(0, 5)),
               draw(st.integers(-3, 3)), draw(st.integers(-1, 1)))
        terms[key] = draw(integral_cyclotomic(n))
    return T(terms, INF24)


@st.composite
def non_unit_divisors(draw, n):
    """(c, D') with c = 2 - zeta^k - zeta^-k, a non-unit of Z[zeta_n], and
    D' an exact integral divisor whose leading q-slice is a monomial or a
    monomial times y - 2 + 1/y, as in theta_1(u)^2 = c q^(1/4) (...)."""
    k = draw(st.sampled_from([k for k in range(1, n) if gcd(k, n) == 1]))
    c = 2 - zeta(n, k) - zeta(n, -k)
    m = 12 * draw(st.integers(-2, 2))
    y2, z = draw(st.integers(-2, 2)), draw(st.integers(-1, 1))
    lc = draw(integral_cyclotomic(n))
    if draw(st.booleans()):
        lead = {(m, y2, z): lc}
    else:
        lead = {(m, y2 + 2, z): lc, (m, y2, z): -2 * lc, (m, y2 - 2, z): lc}
    return c, T(lead, INF24) + draw(integral_series(n, m + 12))


@DIVISION
@given(data=st.data(), n=st.sampled_from(NON_UNIT_CONDUCTORS),
       tn=st.integers(-2, 10), td=st.integers(1, 8), integral=st.booleans())
def test_divide_exact_by_non_unit_lead_matches_slice_recurrence(
        data, n, tn, td, integral):
    c, d = data.draw(non_unit_divisors(n))
    a = data.draw(integral_series(n, -24))
    divisor = d * c
    # the exact quotient is a itself, or a / c with Fraction coordinates
    top = a * divisor if integral else a * d
    num = top.truncate(12 * tn)
    den = divisor.truncate(divisor.min_q24 + 12 * td)
    quo = num.divide_exact(den)
    ref = divide_by_slices(num, den)
    assert quo.trunc24 == ref.trunc24 == _quotient_trunc(num, den)
    assert quo.terms.keys() == ref.terms.keys()
    assert all(quo.terms[k] == ref.terms[k] for k in quo.terms)
    assert all_canonical(quo)
    assert quo == (a if integral else a * c.inverse())


def test_theta2_null_square_division_matches_slice_recurrence():
    # theta_2(0)^2 leads with 4: the division in weak_jacobi_phi(0)
    t = 8 * 24
    num = jacobi_theta(2, t) ** 2
    den = theta_null(2, t) ** 2
    assert den.terms[(6, 0, 0)] == 4
    quo = num.divide_exact(den)
    ref = divide_by_slices(num, den)
    assert quo.trunc24 == ref.trunc24
    assert dict(quo.terms) == dict(ref.terms)
    assert all_canonical(quo)


# -- differential tests of the substitution truncations -----------------------

SHIFTS = settings(max_examples=80, deadline=None, derandomize=True,
                  database=None)


def _y2_bound(q24, m0):
    """The envelope substitute_q_shift assumes: |y2| <= 4 + (q24 - min)/24."""
    return 4 + max(0, q24 - m0) // 24


@st.composite
def enveloped_series(draw, t24):
    """An exactly known series that obeys the y-envelope, led by a term at
    its minimum m0 < t24, with terms at the envelope's edge at the
    truncation t24 and where the envelope next widens: those reach lowest
    after a q-shift."""
    m0 = t24 - draw(st.integers(1, 72))
    terms = {(m0, draw(st.integers(-4, 4)), 0): draw(st.integers(1, 3))}
    for _ in range(draw(st.integers(0, 12))):
        q24 = m0 + draw(st.integers(0, t24 - m0 + 60))
        b = _y2_bound(q24, m0)
        terms[(q24, draw(st.integers(-b, b)), draw(st.integers(-1, 1)))] = \
            draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
    step = t24 + (m0 - t24) % 24          # where the envelope next widens
    for q24 in (t24, step, t24 + draw(st.integers(1, 30))):
        b = _y2_bound(q24, m0)
        for y2 in (b, -b):
            terms[(q24, y2, 0)] = draw(st.integers(1, 3))
    return T(terms, INF24)


@SHIFTS
@given(data=st.data(), t24=st.integers(-24, 96), d24=st.integers(1, 48),
       s24=st.sampled_from((-24, -12, -6, 6, 12, 24)),
       extra_q24=st.integers(-12, 12),
       extra_y2=st.integers(-2, 2))
def test_substitute_q_shift_truncation_is_sound(data, t24, d24, s24,
                                               extra_q24, extra_y2):
    exact = data.draw(enveloped_series(t24))
    image = exact.substitute_q_shift(s24, extra_q24, extra_y2)
    shifted = [exact.truncate(t).substitute_q_shift(s24, extra_q24, extra_y2)
               for t in (t24, t24 + d24)]
    for got in shifted:
        # sound: the image of the exact series agrees below the claim
        assert got == image
    # truncation oracle: T + delta agrees with T below the smaller claim
    assert shifted[1].trunc24 >= shifted[0].trunc24
    assert shifted[0] == shifted[1]


@SHIFTS
@given(data=st.data(), t24=st.integers(-24, 96), d24=st.integers(1, 48),
       direction=st.sampled_from((1, -1)))
def test_spectral_flow_truncation_is_sound(data, t24, d24, direction):
    exact = data.draw(enveloped_series(t24))
    image = exact.spectral_flow(direction)
    flowed = [exact.truncate(t).spectral_flow(direction)
              for t in (t24, t24 + d24)]
    for got in flowed:
        assert got == image
    assert flowed[0] == flowed[1]


def test_q_shift_edge_term_sits_at_the_claimed_truncation():
    # Known below t24 = 46 with the lowest term at 0: the envelope steps up
    # to |y2| <= 6 at q24 = 48, two orders past the truncation, and the
    # edge term q^2 y^-3 there flows to q^(18/24).  That is the claimed
    # truncation exactly; reading the bound at t24 alone would claim 22.
    t24 = 46
    edge_term = (48, -_y2_bound(48, 0), 0)
    exact = T({(0, 0, 0): 1, edge_term: 1}, INF24)
    shifted = exact.truncate(t24).spectral_flow(+1)
    image = exact.spectral_flow(+1)
    assert shifted.trunc24 == 18
    assert image.terms[(18, edge_term[1] + 2, 0)] == 1
    assert shifted == image
    with pytest.raises(ValueError):
        exact.truncate(t24).substitute_q_shift(30)
