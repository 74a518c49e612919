import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from k3moonshine.lattice import (
    AbelianQuotient, IntegerLattice, congruence_lattice, hermite_normal_form,
    hnf_basis, integer_kernel, smith_normal_form, snf_quotient,
    solve_in_lattice,
)
from route_oracle import smith_normal_form_by_elimination


def brute_force_box_members(vectors, box=3):
    """Oracle: all integer combinations with small coefficients, inside a box."""
    members = set()
    n = len(vectors[0])

    def rec(i, acc):
        if i == len(vectors):
            if all(abs(x) <= box for x in acc):
                members.add(tuple(acc))
            return
        for c in range(-box, box + 1):
            rec(i + 1, [a + c * v for a, v in zip(acc, vectors[i])])

    rec(0, [0] * n)
    return members


def test_hnf_basis_small_example():
    lat = hnf_basis([(2, 0), (0, 2), (1, 1)])
    assert lat.basis == [(1, 1), (0, 2)]
    # oracle: brute-force span in a small box agrees
    expected = brute_force_box_members([(2, 0), (0, 2), (1, 1)], box=2)
    got = {v for v in expected if lat.contains(v)}
    assert got == expected
    for v in [(1, 0), (0, 1), (1, 2)]:
        assert lat.contains(v) == (v in expected)


def test_hnf_identity_and_empty():
    full = hnf_basis([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert full == IntegerLattice.full(3)
    zero = hnf_basis([], ambient=4)
    assert zero.rank == 0


def test_hnf_idempotent_and_order_independent():
    rng = random.Random(11)
    for _ in range(25):
        vecs = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(5)]
        lat = hnf_basis(vecs)
        again = hnf_basis(lat.basis)
        assert lat == again
        rng.shuffle(vecs)
        assert hnf_basis(vecs) == lat


def test_snf_quotient_examples():
    z2 = IntegerLattice.full(2)
    two_z2 = hnf_basis([(2, 0), (0, 2)])
    assert snf_quotient(two_z2, z2) == AbelianQuotient((2, 2), 0)
    # rank drop is reported, not hidden
    line = hnf_basis([(1, 0)])
    q = snf_quotient(line, z2)
    assert q.rank_deficit == 1
    # divisibility chain and index product
    sub = hnf_basis([(2, 1, 0), (0, 6, 0), (0, 0, 4)])
    quot = snf_quotient(sub, IntegerLattice.full(3))
    for a, b in zip(quot.factors, quot.factors[1:]):
        assert b % a == 0
    assert quot.order == sub.index_in(IntegerLattice.full(3))


def test_smith_normal_form_chain():
    rng = random.Random(5)
    for _ in range(20):
        mat = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        factors = smith_normal_form(mat)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        # product of invariant factors = |det| for square nonsingular
        det = _det4(mat)
        if det:
            prod = 1
            for d in factors:
                prod *= d
            assert prod == abs(det)


def _det4(m):
    from itertools import permutations
    total = 0
    for perm in permutations(range(4)):
        sign = 1
        seen = list(perm)
        for i in range(4):
            for j in range(i + 1, 4):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def test_integer_kernel():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    kern = integer_kernel(rows)
    assert len(kern) == 1
    x = kern[0]
    combo = [sum(x[i] * rows[i][j] for i in range(3)) for j in range(3)]
    assert combo == [0, 0, 0]


def test_solve_in_lattice():
    gens = [(1, 0, 2), (0, 1, 1), (1, 1, 0)]
    target = [a + b for a, b in zip(gens[0], gens[1])]
    res = solve_in_lattice(target, gens)
    assert res.solved
    combo = [sum(res.coords[i] * gens[i][j] for i in range(3)) for j in range(3)]
    assert combo == list(target)
    # parity obstruction: odd coordinate against even generators
    res2 = solve_in_lattice((1, 0), [(2, 0), (0, 2)])
    assert not res2.solved
    assert "modulo pivot 2" in res2.certificate


def test_solve_is_canonical_under_generator_shuffle_consistency():
    # same generator list always gives the same answer (determinism)
    gens = [(2, 1), (1, 2), (3, 3)]
    r1 = solve_in_lattice((3, 3), gens)
    r2 = solve_in_lattice((3, 3), gens)
    assert r1 == r2 and r1.solved


def test_intersect():
    # 2Z x Z and Z x 3Z as congruences mod 6; their intersection is cut
    # out by both rows at once
    a = congruence_lattice([[3, 0]], 6, 2)
    b = congruence_lattice([[0, 2]], 6, 2)
    assert a == hnf_basis([(2, 0), (0, 1)])
    assert b == hnf_basis([(1, 0), (0, 3)])
    c = congruence_lattice([[3, 0], [0, 2]], 6, 2)
    assert c == hnf_basis([(2, 0), (0, 3)])
    assert c.index_in(IntegerLattice.full(2)) == 6


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_congruence_lattice_matches_brute_force_membership(data):
    n = data.draw(st.integers(1, 3))
    modulus = data.draw(st.integers(1, 12))
    rows = data.draw(st.lists(st.lists(st.integers(-12, 12), min_size=n,
                                       max_size=n), max_size=3))
    lat = congruence_lattice(rows, modulus, n)
    assert lat.rank == n
    for x in product(range(-4, 5), repeat=n):
        want = all(sum(r * v for r, v in zip(row, x)) % modulus == 0
                   for row in rows)
        assert lat.contains(x) == want, (rows, modulus, x)


def test_congruence_lattice_without_rows_and_with_a_bad_modulus():
    # no condition, or a modulus of 1, leaves all of Z^n
    assert congruence_lattice([], 5, 3) == IntegerLattice.full(3)
    assert congruence_lattice([[1, 2]], 1, 2) == IntegerLattice.full(2)
    assert congruence_lattice([[5, 0, 0]], 5, 3) == IntegerLattice.full(3)
    with pytest.raises(ValueError):
        congruence_lattice([[1, 2]], 0, 2)
    with pytest.raises(ValueError):
        congruence_lattice([[1, 2, 3]], 4, 2)


def test_smith_normal_form_matches_the_elimination():
    rng = random.Random(7)
    mats = [[], [[]], [[0, 0], [0, 0], [0, 0]], [[1, 2], [2, 4]],
            [[2, 4, 6]], [[2], [4], [6]], [[0, 6, 0], [4, 0, 0]],
            [[Fraction(4, 2), 0], [Fraction(6), Fraction(-9, 3)]]]
    for _ in range(400):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        mats.append([[0 if rng.random() < 0.3 else rng.randint(-9, 9)
                      for _ in range(n)] for _ in range(m)])
    for mat in mats:
        got = smith_normal_form(mat)
        assert got == smith_normal_form_by_elimination(mat), mat
        assert all(type(d) is int and d > 0 for d in got)
    # the Hermite form checks the input: a ragged matrix is refused
    with pytest.raises(ValueError):
        smith_normal_form([[1], [2, 3]])


def _random_full_rank_lattices(rng, count, max_det):
    """Full-rank lattices in Z^1..Z^4 of index at most ``max_det``: half
    from dense small matrices, half as the rows d_i u_i of a diagonal
    times a unimodular matrix, so that one prime often divides several
    invariant factors."""
    out = []
    while len(out) < count:
        n = rng.randint(1, 4)
        if len(out) % 2:
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        else:
            rows = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(3 * (n - 1)):
                i, j = rng.sample(range(n), 2)
                c = rng.randint(-2, 2)
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            diag = [rng.choice((1, 2, 2, 3, 3, 5, 6, 7)) for _ in range(n)]
            rows = [[d * a for a in row] for d, row in zip(diag, rows)]
        lat = IntegerLattice(n, rows)
        if lat.rank == n and lat.determinant <= max_det:
            out.append(lat)
    return out


def test_prime_order_points_one_per_line_of_each_p_torsion():
    """For each prime p dividing [Z^n : L], the points are one per F_p-line
    of (Z^n / L)[p]: (p^r - 1) / (p - 1) of them, r the number of
    invariant factors p divides, each outside L and of order p modulo L."""
    rng = random.Random(13)
    lattices = [IntegerLattice.full(3),
                hnf_basis([(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 6, 0),
                           (0, 0, 0, 6)]),
                hnf_basis([(3, 0, 0), (0, 3, 0), (0, 0, 3)])]
    lattices += _random_full_rank_lattices(rng, 300, 400)
    for lat in lattices:
        factors = smith_normal_form(lat.basis)
        det = lat.determinant
        primes = [p for p in range(2, det + 1)
                  if det % p == 0 and all(p % q for q in range(2, p))]
        by_prime = {p: [] for p in primes}
        for x in lat.prime_order_points():
            assert not lat.contains(x), (lat.basis, x)
            orders = [p for p in primes if lat.contains([p * v for v in x])]
            assert len(orders) == 1, (lat.basis, x)
            by_prime[orders[0]].append(x)
        for p, xs in by_prime.items():
            r = sum(d % p == 0 for d in factors)
            assert len(xs) == (p ** r - 1) // (p - 1), (lat.basis, p)
            for i, x in enumerate(xs):
                for y in xs[:i]:
                    assert not any(
                        lat.contains([a * u - v for u, v in zip(x, y)])
                        for a in range(1, p)), (lat.basis, x, y)
    with pytest.raises(ValueError):
        IntegerLattice(2, [(1, 0)]).prime_order_points()


# -- input: integral Fractions are ints, anything else non-integral raises ----

def test_non_integral_fraction_input_raises():
    # each of these once truncated its input and answered
    with pytest.raises(ValueError):
        solve_in_lattice([Fraction(3, 2)], [[1]])
    with pytest.raises(ValueError):
        IntegerLattice.full(2).contains([Fraction(1, 2), 0])
    with pytest.raises(ValueError):
        hnf_basis([[Fraction(1, 2), 0], [0, 1]])
    with pytest.raises(ValueError):
        smith_normal_form([[Fraction(1, 3)]])


def test_float_input_raises():
    with pytest.raises(TypeError):
        IntegerLattice.full(2).contains([2.7, 0])
    with pytest.raises(TypeError):
        IntegerLattice.full(2).contains([2.0, 0])
    with pytest.raises(TypeError):
        IntegerLattice.full(2).reduce([1, 0.5])
    with pytest.raises(TypeError):
        solve_in_lattice([1, 0], [[1.0, 0], [0, 1]])
    with pytest.raises(TypeError):
        hermite_normal_form([[1, 2.5]])


def test_integral_fraction_input_is_its_int():
    lat = hnf_basis([[Fraction(2), 0], [0, Fraction(-4, 2)]])
    assert lat == hnf_basis([[2, 0], [0, 2]])
    assert all(type(x) is int for row in lat.basis for x in row)
    v, coords = lat.reduce([Fraction(6, 2), Fraction(4)])
    assert (v, coords) == ([1, 0], [1, 2])
    assert all(type(x) is int for x in v + coords)
    assert lat.contains([Fraction(4), 2]) and not lat.contains([Fraction(3), 2])
    got = solve_in_lattice([Fraction(4), Fraction(2)], [[Fraction(2), 0], [0, 2]])
    assert got == solve_in_lattice([4, 2], [[2, 0], [0, 2]])
    assert all(type(x) is int for x in got.coords)
    assert hermite_normal_form([[Fraction(3), 6]]) == [[3, 6]]
    assert smith_normal_form([[Fraction(2), 0], [0, Fraction(3)]]) == [1, 6]
