from fractions import Fraction
from itertools import product
from math import isqrt, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from k3moonshine.lattice import hermite_normal_form, hnf_basis
from k3moonshine.mill import _lll, _short_vectors, class_data, exterior_powers
from k3moonshine.tables import _det_one_plus_tp

SMALL = settings(max_examples=60, deadline=None, derandomize=True,
                 database=None)


@st.composite
def weighted_bases(draw, max_entry):
    """Positive weights and linearly independent integer rows."""
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(1, dim))
    w = draw(st.lists(st.integers(1, 3), min_size=dim, max_size=dim))
    entry = st.integers(-max_entry, max_entry)
    rows = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                         min_size=n, max_size=n))
    assume(len(hermite_normal_form(rows)) == n)
    return w, rows


def _gram_schmidt(w, basis):
    """Fraction Gram-Schmidt: mu[k][j] and the squared lengths B[k]."""
    def form(f, g):
        return sum(c * a * b for c, a, b in zip(w, f, g))
    star, mu, B = [], [], []
    for v in basis:
        coeffs = [form(v, s) / b for s, b in zip(star, B)]
        s = [Fraction(a) for a in v]
        for c, t in zip(coeffs, star):
            s = [a - c * b for a, b in zip(s, t)]
        star.append(s)
        mu.append(coeffs)
        B.append(form(s, s))
    return mu, B


@SMALL
@given(weighted_bases(max_entry=30))
def test_integral_lll_reduces_and_keeps_the_lattice(wb):
    w, rows = wb
    basis, d, lam = _lll(w, rows)
    assert hermite_normal_form(basis) == hermite_normal_form(rows)
    mu, B = _gram_schmidt(w, basis)
    for k in range(len(basis)):
        assert all(abs(m) <= Fraction(1, 2) for m in mu[k])
        if k:
            assert B[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * B[k - 1]
    # the integer data the enumeration reads is Cohen's d_i and lambda_kj
    for i in range(len(basis) + 1):
        assert d[i] == prod(B[:i])
    for k in range(len(basis)):
        for j in range(k):
            assert lam[k + 1][j + 1] == d[j + 1] * mu[k][j]


@SMALL
@given(weighted_bases(max_entry=4), st.integers(1, 9))
def test_short_vectors_match_brute_force(wb, bound):
    w, rows = wb
    lattice = hnf_basis(rows)
    r = isqrt(bound)
    want = {v for v in product(range(-r, r + 1), repeat=len(w))
            if any(v) and sum(c * a * a for c, a in zip(w, v)) <= bound
            and lattice.contains(v)}
    got = _short_vectors(w, rows, bound)
    signed = got + [tuple(-a for a in v) for v in got]
    # each pair +-v exactly once, and nothing else
    assert len(set(signed)) == len(signed)
    assert set(signed) == want


@pytest.mark.parametrize("group", ["M23", "M24"])
def test_exterior_powers_of_the_permutation_character(group):
    """lambda^k of the permutation character at g is the coefficient of
    t^k in det(1 + t P_g), at every class and every k up to the degree;
    Newton's identities on a class function that is no character leave a
    remainder."""
    data = class_data(group)
    perm = data.permutation_character
    lams = exterior_powers(data, perm, perm[0])
    for i, c in enumerate(data.classes):
        assert [lam[i] for lam in lams] == _det_one_plus_tp(c.cycle_type)
    point = tuple([1] + [0] * (len(perm) - 1))
    with pytest.raises(ArithmeticError, match="not integral"):
        exterior_powers(data, point, 2)

