from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from k3moonshine.cyclotomic import CyclotomicNumber, DomainError, zeta
from k3moonshine.genus import _traces
from k3moonshine.qpoly import _cyclotomic_coeffs, euler_phi, moebius
from canonical import is_canonical
from gcd_oracle import Poly
from series_tools import galois, trace


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


def test_float_coordinate_is_rejected():
    # a float must fail loudly, never round its way into a verdict
    with pytest.raises(TypeError):
        CyclotomicNumber(3, [0.5, 1])
    with pytest.raises(TypeError):
        zeta(3) * 0.5
    assert CyclotomicNumber(3, [Fraction(4, 2), 1]).c == (2, 1)
    assert type(CyclotomicNumber(3, [Fraction(4, 2), 1]).c[0]) is int


def test_truth_value_is_nonzero():
    assert not (1 + zeta(3) + zeta(3, 2))
    assert zeta(5)
    assert not CyclotomicNumber.from_rational(7, 0)


def test_mixed_conductor_embedding():
    # one conductor per operation: nothing embeds into a compositum
    z2, z3 = zeta(2), zeta(3)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
               lambda a, b: a == b):
        with pytest.raises(DomainError):
            op(z2, z3)
    # rationals embed into any conductor
    assert z3 * -1 == -z3 and (z2 == -1) is True


def test_rationals_compare_across_conductors():
    # == agrees with __hash__, which hashes a rational element by its value
    three, four = (CyclotomicNumber.from_rational(n, 1) for n in (3, 4))
    assert three == four and hash(three) == hash(four)
    assert len({three, four}) == 1 and {three: "one"}[four] == "one"
    assert CyclotomicNumber.from_rational(3, 2) != four
    with pytest.raises(DomainError):
        zeta(4) == three


def test_compositum_cap():
    with pytest.raises(DomainError):
        zeta(9239 if euler_phi(9239) else 23) * zeta(9240)


def test_trace_of_orbit_sum_is_integer():
    # full orbit sum of primitive 7th roots traces to an integer
    s = sum((zeta(7, k) for k in range(1, 7)), CyclotomicNumber.from_rational(7, 0))
    assert trace(s) == Fraction(-6)
    # trace of zeta_7 itself, also the Ramanujan sum c_7(1)
    assert trace(zeta(7)) == Fraction(-1) == _traces(7)[0][1]
    # trace of a rational r in Q(zeta_n) is phi(n) * r
    assert trace(CyclotomicNumber.from_rational(7, Fraction(1, 2))) == Fraction(3)


def test_a_conductor_is_an_int():
    # 4.0 was accepted as a conductor (printed z4.0), or failed as a list
    # index; True read as the conductor 1
    for build in (lambda: CyclotomicNumber(4.0, [0, 1]),
                  lambda: CyclotomicNumber(True, [1]),
                  lambda: CyclotomicNumber.zeta_power(4.0, 1),
                  lambda: zeta(4.0)):
        with pytest.raises(TypeError, match="conductor must be an int"):
            build()


def test_zeta_refuses_a_conductor_below_one():
    # refused before any arithmetic, by the constructor's rule
    for n in (0, -3):
        with pytest.raises(DomainError, match="conductor must be positive"):
            zeta(n)
        with pytest.raises(DomainError, match="conductor must be positive"):
            CyclotomicNumber.zeta_power(n, 2)


def _zeta_power_by_products(n, k):
    """zeta_n^k for k >= 0 by k multiplications by zeta_n."""
    out = CyclotomicNumber.from_rational(n, 1)
    for _ in range(k):
        out = out * zeta(n)
    return out


def _galois_by_zeta_powers(x, a):
    """The defining sum sigma_a(x) = sum_k c_k zeta^(k a), as an oracle.

    zeta^(k a) comes from repeated multiplication, not from the reduction
    table that zeta_power reads.
    """
    out = CyclotomicNumber.from_rational(x.n, 0)
    for k, ck in enumerate(x.c):
        if ck:
            out = out + _zeta_power_by_products(x.n, k * a % x.n) * ck
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
    assert galois(x, a) == _galois_by_zeta_powers(x, a)
    assert galois(x, a + 3 * n) == galois(x, a)
    assert galois(galois(x, b), a) == galois(x, a * b % n)
    orbit = [galois(x, u) for u in units]
    # the trace, off the Ramanujan sums of genus._traces: on the power-basis
    # coordinates and on a sum of roots
    ramanujan = _traces(n)[0]
    assert sum(orbit, CyclotomicNumber.from_rational(n, 0)) == sum(
        c * t for c, t in zip(x.c, ramanujan))
    counts = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    roots = sum(
        (_zeta_power_by_products(n, k) * c for k, c in enumerate(counts)),
        CyclotomicNumber.from_rational(n, 0))
    assert trace(roots) == sum(map(int.__mul__, counts, ramanujan))


# -- int coordinates against a Fraction-coordinate reference ------------------

def _ref_reduce(coeffs, n):
    """Fraction coordinates of sum_k coeffs[k] zeta^k, by division by Phi_n."""
    r = Poly(coeffs) % Poly(_cyclotomic_coeffs(n))
    return [r[k] for k in range(euler_phi(n))]


def _ref_mul(a, b, n):
    return _ref_reduce((Poly(a) * Poly(b)).c, n)


def _ref_galois(a, u, n):
    acc = [Fraction(0)] * n
    for k, c in enumerate(a):
        acc[k * u % n] += c
    return _ref_reduce(acc, n)


def _ref_inverse(a, n):
    """Solve x * y = 1 by Gauss-Jordan elimination on the matrix of
    multiplication by x, whose column j is x * zeta^j."""
    phi = euler_phi(n)
    cols = [_ref_mul(a, [Fraction(int(i == j)) for i in range(phi)], n)
            for j in range(phi)]
    rows = [[cols[j][i] for j in range(phi)] + [Fraction(int(i == 0))]
            for i in range(phi)]
    for col in range(phi):
        piv = next(i for i in range(col, phi) if rows[i][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(phi):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return [row[-1] for row in rows]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.sampled_from((3, 4, 5, 7, 8, 12, 15, 21)))
def test_int_coordinates_match_fraction_reference(data, n):
    phi = euler_phi(n)
    ints = st.lists(st.integers(-5, 5), min_size=phi, max_size=phi)
    a, b = data.draw(ints), data.draw(ints)
    x, y = CyclotomicNumber(n, a), CyclotomicNumber(n, b)
    fa, fb = [Fraction(c) for c in a], [Fraction(c) for c in b]
    assert all(type(c) is int for c in x.c)
    prod = x._mul_same(y)
    assert list(prod.c) == _ref_mul(fa, fb, n)
    assert all(type(c) is int for c in prod.c)
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    u = data.draw(st.sampled_from(units))
    conj = galois(x, u)
    assert list(conj.c) == _ref_galois(fa, u, n)
    assert all(type(c) is int for c in conj.c)
    orbit = [sum(cs) for cs in zip(*(_ref_galois(fa, v, n) for v in units))]
    assert orbit[1:] == [0] * (phi - 1)
    # the trace of the power-basis coordinates, off the Ramanujan sums
    tr = sum(map(int.__mul__, a, _traces(n)[0]))
    assert tr == orbit[0] and type(tr) is int
    if x:
        inv = x.inverse()
        assert list(inv.c) == _ref_inverse(fa, n)
        assert all(map(is_canonical, inv.c))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.sampled_from((3, 4, 5, 7, 8, 12)))
def test_common_denominator_product_matches_fraction_reference(data, n):
    # mixed denominators on both sides: one common denominator per operand,
    # int products, one division per output coordinate
    x, y = data.draw(field_elements(n)), data.draw(field_elements(n))
    prod = x._mul_same(y)
    assert list(prod.c) == _ref_mul(list(x.c), list(y.c), n)
    assert all(map(is_canonical, prod.c))
    assert y._mul_same(x).c == prod.c
    # u / c times c * v is the integral u * v, returned with int coordinates
    phi = euler_phi(n)
    ints = st.lists(st.integers(-4, 4), min_size=phi, max_size=phi)
    u = CyclotomicNumber(n, data.draw(ints))
    v = CyclotomicNumber(n, data.draw(ints))
    k = data.draw(st.sampled_from([k for k in range(1, n) if gcd(k, n) == 1]))
    c = (2 - zeta(n, k) - zeta(n, -k)) * data.draw(st.integers(1, 6))
    left, right = u._mul_same(c.inverse()), c._mul_same(v)
    whole = left._mul_same(right)
    assert list(whole.c) == _ref_mul(list(left.c), list(right.c), n)
    assert whole == u._mul_same(v)
    assert all(type(a) is int for a in whole.c)


def test_galois_action():
    x = zeta(5) + 2 * zeta(5, 2)
    y = galois(x, 2)
    assert y == zeta(5, 2) + 2 * zeta(5, 4)
    with pytest.raises(DomainError):
        galois(x, 5)


def test_fixed_point_denominator_is_rational_after_orbit_sum():
    # sum over a in (Z/5)* of 1/((1-z^a)(1-z^-a)) must be rational
    total = CyclotomicNumber.from_rational(5, 0)
    for a in range(1, 5):
        den = (1 - zeta(5, a)) * (1 - zeta(5, -a))
        total = total + den.inverse()
    assert total.is_rational()
    # sum_{a=1}^{n-1} 1/(4 sin^2(pi a/n)) = (n^2-1)/12, here n=5 -> 2, and
    # 12 times it is the table entry 12 U_5(0)
    assert total.c[0] == Fraction(2) and 12 * total.c[0] == _traces(5)[1][0]
    # cross-check numerically
    import cmath
    approx = sum(1 / ((1 - cmath.exp(2j * cmath.pi * a / 5))
                      * (1 - cmath.exp(-2j * cmath.pi * a / 5)))
                 for a in range(1, 5))
    assert abs(approx.real - float(total.c[0])) < 1e-9
