import cmath
import math
from fractions import Fraction

import pytest

from k3moonshine.cyclotomic import DomainError, zeta
from k3moonshine.series import TruncatedSeries
from k3moonshine.modforms import (
    eta_power, eta_scaled, euler_specialization, jacobi_theta, weak_jacobi_phi,
)
from numeric import ComplexApprox, numeric_eval, phi_function
from series_tools import (
    as_rational, binomial_factor, geometric_factor, is_y_symmetric,
    substitute_y_value, theta1, theta4,
)

T6 = 6 * 24


def test_eta_leading_coefficients():
    eta = eta_scaled(1, T6)
    assert eta.coeff(Fraction(1, 24)) == 1
    assert eta.coeff(Fraction(25, 24)) == -1
    assert eta.coeff(Fraction(49, 24)) == -1  # pentagonal: 1 - q - q^2 + q^5 + ...
    assert eta.coeff(Fraction(121, 24)) == 1


def product_eta(a, trunc24):
    """Oracle: eta(a tau) = q^(a/24) prod (1 - q^(a n)), factor by factor."""
    s = TruncatedSeries.monomial(Fraction(1), q24=a, trunc24=trunc24)
    n = 1
    while a + 24 * a * n < trunc24:
        s = s * binomial_factor(Fraction(-1), 24 * a * n, 0)
        n += 1
    return s


@pytest.mark.parametrize("a", [1, 2, 3, 5, 7, 11, 14, 15, 23])
def test_pentagonal_eta_matches_the_product(a):
    for trunc24 in (1, 2, a, a + 1, 24, 25 * a, 25 * a + 1, 5 * 24,
                    13 * 24 + 7, 40 * 24):
        got, want = eta_scaled(a, trunc24), product_eta(a, trunc24)
        assert got.trunc24 == want.trunc24 == trunc24
        assert dict(got.terms) == dict(want.terms), trunc24


def test_eta_cubed():
    eta3 = eta_power(3, T6)
    assert eta3.coeff(Fraction(1, 8)) == 1
    assert eta3.coeff(Fraction(1, 8) + 1) == -3
    # Jacobi: eta^3 = sum (-1)^n (2n+1) q^((2n+1)^2/8)
    assert eta3.coeff(Fraction(9, 8)) == -3
    assert eta3.coeff(Fraction(25, 8)) == 5


def test_eta_inverse_roundtrip():
    eta3 = eta_power(3, T6)
    inv = eta_power(-3, T6 - 10)
    prod = eta3 * inv
    assert prod == TruncatedSeries.const(Fraction(1), prod.trunc24)
    assert prod.trunc24 >= 4 * 24


def test_theta3_and_theta2_leading():
    th3 = jacobi_theta(3, T6)
    assert th3.coeff(0) == 1
    assert th3.coeff(Fraction(1, 2), y=1) == 1
    assert th3.coeff(Fraction(1, 2), y=-1) == 1
    th2 = jacobi_theta(2, T6)
    assert th2.coeff(Fraction(1, 8), y=Fraction(1, 2)) == 1
    assert th2.coeff(Fraction(1, 8), y=Fraction(-1, 2)) == 1
    th4 = theta4(T6)
    assert th4.coeff(Fraction(1, 2), y=1) == -1


def test_triple_product_identity():
    # theta1/eta^3 = -i (y^(1/2) - y^(-1/2)) prod (1-yq^n)(1-y^(-1)q^n)(1-q^n)^(-2)
    t = 5 * 24
    lhs = (theta1(t + 3) * eta_power(-3, t)).truncate(t)
    minus_i = zeta(4, 3)
    pref = TruncatedSeries.monomial(minus_i, 0, 1) - \
        TruncatedSeries.monomial(minus_i, 0, -1)
    rhs = pref.truncate(t)
    n = 1
    while 24 * n < t:
        rhs = rhs * binomial_factor(Fraction(-1), 24 * n, 2)
        rhs = rhs * binomial_factor(Fraction(-1), 24 * n, -2)
        rhs = rhs * geometric_factor(Fraction(1), 24 * n, 0, t, power=2)
        n += 1
    assert lhs == rhs


def test_theta2_squared_is_integral_in_y():
    th2 = jacobi_theta(2, T6)
    sq = th2 * th2
    assert all(y2 % 2 == 0 for (_, y2) in sq.terms)
    assert sq.coeff(Fraction(1, 4), y=1) == 1
    assert sq.coeff(Fraction(1, 4), y=0) == 2


def test_phi_01_normalization():
    phi = weak_jacobi_phi(0, 4 * 24)
    assert phi.coeff(0, y=1) == 1
    assert phi.coeff(0, y=0) == 10
    assert phi.coeff(0, y=-1) == 1
    assert is_y_symmetric(phi)
    # the Euler specialization is the constant 12 (weight-0 level-1 form)
    e = euler_specialization(phi)
    assert e.coeff(0) == 12
    for k in (1, 2, 3):
        assert e.coeff(k) == 0


def test_weak_jacobi_phi_is_memoized_and_read_only():
    first = weak_jacobi_phi(-2, 3 * 24)
    hits = weak_jacobi_phi.cache_info().hits
    assert weak_jacobi_phi(-2, 3 * 24) is first
    assert weak_jacobi_phi.cache_info().hits == hits + 1
    # a smaller truncation is its own entry, not a view of the larger one
    smaller = weak_jacobi_phi(-2, 2 * 24)
    assert smaller is not first and smaller.trunc24 == 2 * 24
    with pytest.raises(TypeError):
        first.terms[(0, 0)] = Fraction(1)
    with pytest.raises(TypeError):
        del first.terms[(0, 2)]


def _phi_by_division(weight, trunc24):
    """The weak Jacobi forms on their former routes: theta1^2 over Q(i)
    times eta^-6, and three long divisions theta_k^2 / theta_k(0)^2."""
    if weight == -2:
        th1 = theta1(trunc24 + 6)
        sq = th1 * th1
        return as_rational((sq * eta_power(-6, trunc24 + 6)).truncate(trunc24))
    t = trunc24 + 12
    total = TruncatedSeries.zero(trunc24)
    for theta in (jacobi_theta(2, t), jacobi_theta(3, t), theta4(t)):
        null = euler_specialization(theta)
        num, den = theta * theta, null * null
        total = total + num.divide_exact(den).truncate(trunc24)
    return total * 4


@pytest.mark.parametrize("weight", (0, -2))
@pytest.mark.parametrize("t", (144, 192, 648))
def test_weak_jacobi_phi_truncation_is_sound(weight, t):
    # T against T + 24: the stated truncation is sound, and the integral
    # routes agree term by term with the division routes
    phi = weak_jacobi_phi(weight, t)
    assert phi.trunc24 == t
    assert dict(weak_jacobi_phi(weight, t + 24).truncate(t).terms) == \
        dict(phi.terms)
    assert dict(_phi_by_division(weight, t).terms) == dict(phi.terms)
    assert all(type(c) is int for c in phi.terms.values())


def test_phi_m21_normalization():
    phi = weak_jacobi_phi(-2, 4 * 24)
    assert phi.coeff(0, y=1) == -1
    assert phi.coeff(0, y=0) == 2
    assert phi.coeff(0, y=-1) == -1
    assert is_y_symmetric(phi)
    e = euler_specialization(phi)
    for k in (0, 1, 2, 3):
        assert e.coeff(k) == 0


def test_theta3_elliptic_shift_invariance():
    # y -> y q combined with multiplication by y q^(1/2) fixes theta3
    t = 40 * 24
    th3 = jacobi_theta(3, t)
    shifted = th3.substitute_q_shift(12, 12, 2)
    assert shifted.trunc24 >= 8 * 24
    assert shifted == th3.truncate(shifted.trunc24)


def test_numeric_eta_at_i():
    t = 40 * 24
    eta = eta_scaled(1, t)
    val = numeric_eval(eta, 1j)
    expected = math.gamma(0.25) / (2 * math.pi ** 0.75)
    assert abs(val.value - expected) < 1e-9 + val.error
    assert val.error < 1e-12


def test_numeric_rejects_lower_half_plane():
    with pytest.raises(DomainError):
        numeric_eval(eta_scaled(1, 24 * 5), -1j)


def test_constant_series_eval():
    one = TruncatedSeries.const(Fraction(1))
    v = numeric_eval(one, 0.3 + 1.1j)
    assert v == ComplexApprox(1 + 0j, 0.0)


def test_phi_modular_laws_numeric():
    t = 40 * 24
    phi = phi_function(t)
    tau = 0.1 + 1.2j
    u = 0.3
    # T: phi(u; tau+1) = phi(u; tau)  (integral q-powers)
    a = numeric_eval(phi, tau + 1, u)
    b = numeric_eval(phi, tau, u)
    assert abs(a.value - b.value) < 1e-6 + a.error + b.error
    # S: phi(u/tau; -1/tau) = tau^(-1) exp(pi i u^2 / tau) phi(u; tau)
    lhs = numeric_eval(phi, -1 / tau, u / tau)
    rhs = numeric_eval(phi, tau, u)
    factor = (1 / tau) * cmath.exp(1j * cmath.pi * u * u / tau)
    assert abs(lhs.value - factor * rhs.value) < 1e-6 + lhs.error + abs(factor) * rhs.error


def test_theta_null_matches_specialized_theta():
    t = 6 * 24
    th3n = euler_specialization(jacobi_theta(3, t))
    th3 = substitute_y_value(jacobi_theta(3, t), 1)
    assert th3n == th3


def test_theta3_inverse_leading():
    t = 4 * 24
    th3 = jacobi_theta(3, t)
    inv = th3.invert()
    assert inv.coeff(0) == 1
    assert inv.coeff(Fraction(1, 2), y=1) == -1
    assert inv.coeff(Fraction(1, 2), y=-1) == -1
    prod = th3 * inv
    assert prod == TruncatedSeries.const(Fraction(1), prod.trunc24)
