from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from k3moonshine.cyclotomic import (
    CyclotomicNumber, DomainError, euler_phi, moebius, zeta,
)


def test_phi_and_moebius():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert [moebius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_roots_of_unity_multiply():
    z5 = zeta(5)
    acc = CyclotomicNumber.from_rational(5, 1)
    for _ in range(5):
        acc = acc * z5
    assert acc == 1
    # sum of all primitive 5th roots is -1
    s = sum((zeta(5, k) for k in range(1, 5)), CyclotomicNumber.from_rational(5, 0))
    assert s == -1


def test_inverse():
    x = zeta(7) + 3
    assert x * x.inverse() == 1
    one_minus = 1 - zeta(8)
    assert one_minus * one_minus.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.from_rational(7, 0).inverse()


def test_truth_value_is_nonzero():
    assert not (1 + zeta(3) + zeta(3, 2))
    assert zeta(5)
    assert not CyclotomicNumber.from_rational(7, 0)


def test_mixed_conductor_embedding():
    # zeta_2 = -1 inside conductor 6 arithmetic
    z2 = zeta(2)
    z3 = zeta(3)
    prod = z2 * z3          # = zeta_6^5 = -zeta_3 after embedding
    assert prod == -z3
    assert prod.n == 6


def test_compositum_cap():
    with pytest.raises(DomainError):
        zeta(9239 if euler_phi(9239) else 23) * zeta(9240)


def test_trace_of_orbit_sum_is_integer():
    # full orbit sum of primitive 7th roots traces to an integer
    s = sum((zeta(7, k) for k in range(1, 7)), CyclotomicNumber.from_rational(7, 0))
    assert s.trace() == Fraction(-6)
    # trace of zeta_7 itself
    assert zeta(7).trace() == Fraction(-1)
    # trace of a rational r in Q(zeta_n) is phi(n) * r
    assert CyclotomicNumber.from_rational(7, Fraction(1, 2)).trace() == Fraction(3)


def _galois_by_zeta_powers(x, a):
    """The defining sum sigma_a(x) = sum_k c_k zeta^(k a), as an oracle.

    zeta^(k a) comes from repeated multiplication, not from the reduction
    table that galois and zeta_power read.
    """
    out = CyclotomicNumber.from_rational(x.n, 0)
    for k, ck in enumerate(x.c):
        if ck:
            out = out + zeta(x.n) ** (k * a % x.n) * ck
    return out


@st.composite
def field_elements(draw, n):
    coords = [Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
              for _ in range(euler_phi(n))]
    return CyclotomicNumber(n, coords)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.sampled_from((3, 4, 5, 7, 8, 12)))
def test_galois_differential(data, n):
    x = data.draw(field_elements(n))
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    a = data.draw(st.sampled_from(units))
    b = data.draw(st.sampled_from(units))
    assert x.galois(a) == _galois_by_zeta_powers(x, a)
    assert x.galois(a + 3 * n) == x.galois(a)
    assert x.galois(b).galois(a) == x.galois(a * b % n)
    orbit = [x.galois(u) for u in units]
    assert sum(orbit, CyclotomicNumber.from_rational(n, 0)) == x.trace()
    counts = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    assert CyclotomicNumber.from_root_counts(n, counts) == sum(
        (zeta(n) ** k * c for k, c in enumerate(counts)),
        CyclotomicNumber.from_rational(n, 0))


def test_galois_action():
    x = zeta(5) + 2 * zeta(5, 2)
    y = x.galois(2)
    assert y == zeta(5, 2) + 2 * zeta(5, 4)
    with pytest.raises(DomainError):
        x.galois(5)


def test_fixed_point_denominator_is_rational_after_orbit_sum():
    # sum over a in (Z/5)* of 1/((1-z^a)(1-z^-a)) must be rational
    total = CyclotomicNumber.from_rational(5, 0)
    for a in range(1, 5):
        den = (1 - zeta(5, a)) * (1 - zeta(5, -a))
        total = total + den.inverse()
    assert total.is_rational()
    # sum_{a=1}^{n-1} 1/(4 sin^2(pi a/n)) = (n^2-1)/12, here n=5 -> 2
    assert total.rational_value() == Fraction(2)
    # cross-check numerically
    import cmath
    approx = sum(1 / ((1 - cmath.exp(2j * cmath.pi * a / 5))
                      * (1 - cmath.exp(-2j * cmath.pi * a / 5)))
                 for a in range(1, 5))
    assert abs(approx.real - float(total.rational_value())) < 1e-9
