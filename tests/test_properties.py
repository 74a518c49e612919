"""Randomized property suites with fixed seeds (acceptance criterion 11)."""

import random
from fractions import Fraction

from k3moonshine.cyclotomic import zeta
from k3moonshine.lattice import hnf_basis
from k3moonshine.modforms import eta_power
from k3moonshine.n4char import ch_vn_h_form, decompose_into_n4
from k3moonshine.series import TruncatedSeries
from series_tools import binomial_factor, geometric_factor, theta1


def _random_series(rng, trunc_units=6):
    terms = {}
    for _ in range(rng.randint(1, 7)):
        key = (rng.randint(-2, trunc_units) * 12, rng.randint(-3, 3) * 2)
        terms[key] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return TruncatedSeries(terms, trunc_units * 24)


def test_series_ring_axioms():
    rng = random.Random(123)
    for _ in range(60):
        a, b, c = (_random_series(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + TruncatedSeries.zero(a.trunc24) == a


def test_series_ring_axioms_cyclotomic():
    rng = random.Random(5)
    z = zeta(5)
    for _ in range(15):
        a, b = _random_series(rng), _random_series(rng)
        az = a.scale(z)
        assert az * b == (a * b).scale(z)


def test_hnf_idempotence_random():
    rng = random.Random(41)
    for _ in range(30):
        vecs = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(6)]
        lat = hnf_basis(vecs)
        assert hnf_basis(lat.basis) == lat
        rng.shuffle(vecs)
        assert hnf_basis(vecs) == lat


def test_triple_product_identity():
    t = 4 * 24
    lhs = (theta1(t + 3) * eta_power(-3, t)).truncate(t)
    minus_i = zeta(4, 3)
    rhs = (TruncatedSeries.monomial(minus_i, 0, 1)
           - TruncatedSeries.monomial(minus_i, 0, -1)).truncate(t)
    n = 1
    while 24 * n < t:
        rhs = rhs * binomial_factor(Fraction(-1), 24 * n, 2)
        rhs = rhs * binomial_factor(Fraction(-1), 24 * n, -2)
        rhs = rhs * geometric_factor(Fraction(1), 24 * n, 0, t, power=2)
        n += 1
    assert lhs == rhs


def test_spectral_flow_roundtrip_random():
    rng = random.Random(99)
    for _ in range(25):
        terms = {}
        for e in range(0, 8):
            for m in range(-1 - e // 2, 2 + e // 2):
                if rng.random() < 0.4:
                    terms[(24 * e, 2 * m)] = Fraction(rng.randint(1, 5))
        s = TruncatedSeries(terms, 8 * 24)
        back = s.spectral_flow(+1).spectral_flow(-1)
        assert back == s.truncate(min(back.trunc24, s.trunc24))


def test_y_independence_residuals_on_character_span():
    # random nonneg integer combinations of V_N-characters decompose with
    # exactly zero y-dependent residual
    rng = random.Random(2024)
    t = 5 * 24
    chars = [ch_vn_h_form(n, t) for n in range(4)]
    for _ in range(6):
        combo = TruncatedSeries.zero(t)
        weights = [rng.randint(0, 3) for _ in chars]
        if not any(weights):
            weights[0] = 1
        for w, ch in zip(weights, chars):
            if w:
                combo = combo + ch * w
        dec = decompose_into_n4(combo)
        expected_atypical = -2 * weights[0] + weights[1]
        assert dec.atypical == expected_atypical
        assert all(Fraction(v).denominator == 1 for v in dec.typical.values())
