import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from k3moonshine import lattice
from k3moonshine.lattice import (
    AbelianQuotient, IntegerLattice, congruence_lattice, hermite_normal_form,
    hnf_basis, integer_kernel, nullspace_mod, smith_normal_form, snf_quotient,
    solve_in_lattice,
)
from route_oracle import (
    congruence_lattice_by_hermite, contains_by_reduce,
    nullspace_mod_by_gauss_jordan, smith_normal_form_by_elimination,
)


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


@pytest.mark.parametrize("vec", ([2, 0, 5], [3]), ids=("longer", "shorter"))
def test_solve_in_lattice_refuses_a_vector_of_another_length(vec):
    # the longer vector once solved on its first two entries, the shorter
    # one raised IndexError
    with pytest.raises(ValueError, match=f"length {len(vec)} .* length 2"):
        solve_in_lattice(vec, [[1, 0], [0, 2]])


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


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_congruence_lattice_matches_the_hermite_route(data):
    """Duplicate rows, rows that are zero mod m and rows equal mod m
    leave the lattice as the [m I; rows] route builds it."""
    n = data.draw(st.integers(1, 4))
    modulus = data.draw(st.integers(1, 30))
    rows = data.draw(st.lists(st.lists(st.integers(-40, 40), min_size=n,
                                       max_size=n), max_size=4))
    rows += [list(r) for r in rows[:2]]                    # duplicates
    rows += [[0] * n, [modulus * x for x in range(n)]]    # zero mod m
    rows += [[x + modulus for x in r] for r in rows[:1]]  # equal mod m
    lat = congruence_lattice(rows, modulus, n)
    assert lat == congruence_lattice_by_hermite(rows, modulus, n)
    for x in product(range(-3, 4), repeat=n):
        assert lat.contains(x) == contains_by_reduce(lat, x), (rows, x)


def test_congruence_lattice_edge_cases():
    for rows in ([], [[0, 0]], [[4, 8], [4, 8], [0, 0]], [[3, 5], [6, 10]]):
        for modulus in (1, 4, 12):
            assert congruence_lattice(rows, modulus, 2) == \
                congruence_lattice_by_hermite(rows, modulus, 2)
    assert congruence_lattice([[1, 1], [1, 1], [0, 0]], 1, 2) == \
        IntegerLattice.full(2)
    for bad in ([[1, 2], [1]], [[1], [1, 2]], [[1, 2, 3], [1, 2]]):
        with pytest.raises(ValueError):
            congruence_lattice(bad, 4, 2)
        with pytest.raises(ValueError):
            congruence_lattice_by_hermite(bad, 4, 2)


def _lattice_and_vectors(data):
    n = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=n,
                                       max_size=n), max_size=5))
    if data.draw(st.booleans()):     # full rank: add a scaled unit basis
        d = data.draw(st.integers(1, 6))
        rows += [[d * (i == j) for j in range(n)] for i in range(n)]
    vecs = data.draw(st.lists(st.lists(st.integers(-12, 12), min_size=n,
                                       max_size=n), min_size=1, max_size=8))
    return IntegerLattice(n, rows), vecs


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_contains_matches_reduce(data):
    """Membership by congruences (full rank) or by remainder (lower rank)
    agrees with the remainder modulo the basis, on the lattice's own
    points and on others, for int and integral Fraction input; a
    non-integral Fraction raises ValueError and a float TypeError."""
    lat, vecs = _lattice_and_vectors(data)
    vecs += [list(r) for r in lat.basis]
    vecs += [[2 * a - b for a, b in zip(r, lat.basis[-1])]
             for r in lat.basis]
    for v in vecs:
        want = contains_by_reduce(lat, v)
        assert lat.contains(v) == want, (lat.basis, v)
        assert lat.contains([Fraction(3 * x, 3) for x in v]) == want
    v = vecs[0]
    for bad, exc in ((Fraction(1, 2), ValueError), (0.0, TypeError)):
        with pytest.raises(exc):
            lat.contains([bad] + v[1:])
        with pytest.raises(exc):
            contains_by_reduce(lat, [bad] + v[1:])


def test_congruences_cut_out_the_lattice():
    """A lattice's congruences, derived from D B^-1 or kept from
    ``congruence_lattice``, are at most ambient residues mod m that cut
    out that lattice."""
    rng = random.Random(17)
    lattices = _random_full_rank_lattices(rng, 120, 400)
    lattices += [congruence_lattice(lat.basis, lat.determinant, lat.ambient)
                 for lat in lattices[:40]]
    for lat in lattices:
        modulus, rows = lat.congruences
        assert len(rows) <= lat.ambient
        assert all(0 <= x < modulus for r in rows for x in r)
        assert congruence_lattice(rows, modulus, lat.ambient) == lat
    with pytest.raises(ValueError, match="full rank"):
        hnf_basis([[1, 2]], ambient=2).congruences


def test_vector_length_is_checked():
    """A vector, or a lattice, of another length is refused, not cut to
    the ambient rank by ``zip`` (or run past it)."""
    lattices = [hnf_basis([[2, 0], [0, 3]]), hnf_basis([[2, 4]]),
                congruence_lattice([[1, 1]], 2, 2), hnf_basis([], ambient=2)]
    for lat in lattices:
        assert lat.contains([2 * 3, 4 * 3]) == contains_by_reduce(lat, [6, 12])
        for vec in ([2, 3, 5], [6, 12, 0], [2], []):
            with pytest.raises(ValueError, match="length"):
                lat.contains(vec)
            with pytest.raises(ValueError, match="length"):
                lat.reduce(vec)
        with pytest.raises(ValueError, match="ambient"):
            lat.contains_lattice(hnf_basis([[1, 2, 3]]))


NULLSPACE_CASES = [
    [[0, 0, 0], [0, 0, 0]],                   # the zero matrix
    [[1, 0, 2], [0, 0, 0], [3, 0, 1]],        # a zero row and a zero column
    [[1, 2], [3, 4], [5, 6]],                 # full column rank mod 5
    [[1, 0], [0, 1]],                         # full column rank
    [[1, 2, 3, 4, 5]],                        # more columns than rows
    [[2, 4, 6, 8], [1, 2, 3, 4]],             # dependent rows
    [[0, 3, 0, 6], [0, 0, 5, 0]],             # leading zero columns
]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_nullspace_mod_matches_gauss_jordan_and_brute_force(p):
    rng = random.Random(p)
    cases = list(NULLSPACE_CASES)
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        cases.append([[rng.randint(-9, 9) if rng.random() < 0.6 else 0
                       for _ in range(n)] for _ in range(m)])
    for a in cases:
        n = len(a[0])
        basis = nullspace_mod(a, p)
        assert basis == nullspace_mod_by_gauss_jordan(a, p), (a, p)
        kernel = {v for v in product(range(p), repeat=n)
                  if all(sum(x * y for x, y in zip(row, v)) % p == 0
                         for row in a)}
        span = {tuple(sum(c * v[i] for c, v in zip(cs, basis)) % p
                      for i in range(n))
                for cs in product(range(p), repeat=len(basis))}
        assert span == kernel and len(kernel) == p ** len(basis), (a, p)
        assert all(0 <= x < p for v in basis for x in v)


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


# the public entries, each taking a list of rows; the last four take rows
# of the ambient rank, 2
_FULL = IntegerLattice(2, [[2, 0], [0, 3]])
_LOWER = IntegerLattice(2, [[2, 4]])
PUBLIC_ENTRIES = {
    "hermite_normal_form": hermite_normal_form,
    "smith_normal_form": smith_normal_form,
    "hnf_basis": hnf_basis,
    "integer_kernel": integer_kernel,
    "solve_in_lattice": lambda rows: solve_in_lattice([2, 0], rows),
    "IntegerLattice": lambda rows: IntegerLattice(2, rows),
    "congruence_lattice": lambda rows: congruence_lattice(rows, 6, 2),
    "reduce": lambda rows: [lat.reduce(r) for lat in (_FULL, _LOWER)
                            for r in rows],
    "contains": lambda rows: [lat.contains(r) for lat in (_FULL, _LOWER)
                              for r in rows],
}
AMBIENT_ENTRIES = {"IntegerLattice", "congruence_lattice", "reduce",
                   "contains"}


@pytest.mark.parametrize("name", sorted(PUBLIC_ENTRIES))
def test_input_rule_at_every_public_entry(name):
    """Integral Fractions are their ints; a non-integral Fraction raises
    ValueError, a float TypeError, and ragged or wrong-length rows
    ValueError."""
    enter = PUBLIC_ENTRIES[name]
    assert enter([[Fraction(4, 2), Fraction(-3)], [0, Fraction(12, 2)]]) \
        == enter([[2, -3], [0, 6]])
    with pytest.raises(ValueError):
        enter([[Fraction(1, 2), 0], [0, 1]])
    with pytest.raises(TypeError):
        enter([[1, 0], [0, 1.0]])
    with pytest.raises(TypeError):
        enter([[True, 0], [0, 1]])
    for ragged in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ValueError):
            enter(ragged)
    if name in AMBIENT_ENTRIES:
        with pytest.raises(ValueError):
            enter([[1, 2, 3], [4, 5, 6]])


def test_each_row_is_checked_once_where_it_enters(monkeypatch):
    """The public entries check each row once; the rows the module builds
    itself (congruences, Smith transposes, quotient coordinates) are not
    checked again."""
    checked = []
    check = lattice._integer_vector

    def counted(vec):
        checked.append(vec)
        return check(vec)

    monkeypatch.setattr(lattice, "_integer_vector", counted)
    rows = [[2, 4, 6], [Fraction(3), 0, 9], [0, 0, 5], [2, 4, 6]]
    for enter in (hermite_normal_form, smith_normal_form,
                  lambda r: IntegerLattice(3, r),
                  lambda r: congruence_lattice(r, 12, 3)):
        checked.clear()
        enter(rows)
        assert len(checked) == len(rows)
    full = IntegerLattice(3, rows)
    lower = IntegerLattice(3, rows[:1])
    pairs = [(full, IntegerLattice(3, rows + [[1, 2, 3]])),
             (lower, IntegerLattice(3, [[1, 2, 3]])),
             (congruence_lattice(rows, 12, 3), IntegerLattice.full(3))]
    checked.clear()
    for sub, sup in pairs:
        assert sup.contains_lattice(sub)
        assert snf_quotient(sub, sup).order == sub.index_in(sup)
    assert full.congruences[0] == full.determinant == 60
    assert pairs[2][0].congruences[0] == 12
    assert checked == []
