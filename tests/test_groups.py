from fractions import Fraction
from itertools import count, product
from math import isqrt, lcm
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from dixon_oracle import (
    charpoly_roots_by_scan, class_matrices_by_products, class_sets,
    conjugacy_by_mul, enumerate_by_mul, inverse_by_powers, roots_by_scan,
)
from k3moonshine import groups
from k3moonshine.groups import (
    MatrixGroup, PermGroup, _Cayley, _central_characters, _class_matrices,
    _dixon_prime, _roots_mod, conjugacy_classes,
    enumerate_group, rational_character_table,
)
from k3moonshine.lattice import nullspace_mod
from k3moonshine.mukai import MUKAI_GROUPS, build_group, mukai_table
from k3moonshine.qpoly import euler_phi

# the primes the Mukai tables are computed over
DIXON_PRIMES = sorted({_dixon_prime(s.order, lcm(*s.element_orders))
                       for s in MUKAI_GROUPS})
# roots at the edges of 1024-point blocks of GF(p), over the least prime
# past two blocks, so that three blocks are reached
BLOCK = 1024
BLOCKS_PRIME = next(q for q in count(2 * BLOCK + 1) if euler_phi(q) == q - 1)
ORACLE = settings(max_examples=60, deadline=None, derandomize=True,
                  database=None)


def _s3():
    return PermGroup(3, [(1, 0, 2), (1, 2, 0)])


def _q8():
    return MatrixGroup(2, [((0, -1), (1, 0)), ((1, 1), (1, -1))], p=3)


def _a4():
    return PermGroup(4, [(1, 0, 3, 2), (1, 2, 0, 3)])


def test_s3_table():
    t = rational_character_table("S3", _s3())
    assert t.order == 6
    assert sorted(ch.degree for ch in t.characters) == [1, 1, 2]
    t.validate()


def test_q8_table():
    t = rational_character_table("Q8", _q8())
    assert t.order == 8
    assert sorted((ch.degree, ch.orbit_size) for ch in t.characters) == \
        [(1, 1)] * 4 + [(2, 1)]


def test_a4_rationalization():
    t = rational_character_table("A4", _a4())
    # omega and its conjugate merge into one orbit-sum of norm 2
    assert sorted((ch.degree, ch.orbit_size) for ch in t.characters) == \
        [(1, 1), (1, 2), (3, 1)]


def _inverse_on_the_orbit(g, x):
    """x^-1 read off the permutation x induces, by ``as_perm`` and
    ``from_perm``."""
    perm = g.as_perm(x)
    return g.from_perm(tuple(sorted(range(len(perm)), key=perm.__getitem__)))


def test_perm_group_inverse():
    g = PermGroup(5, [(1, 2, 3, 4, 0)])
    x = (1, 2, 3, 4, 0)
    inv = _inverse_on_the_orbit(g, x)
    assert g.mul(x, inv) == g.identity()
    assert inv == inverse_by_powers(g, x)


def test_matrix_group_inverse():
    g = MatrixGroup(2, [((1, 1), (0, 1))], p=5)
    x = ((1, 3), (0, 1))
    inv = _inverse_on_the_orbit(g, x)
    assert g.mul(x, inv) == g.identity()
    assert inv == inverse_by_powers(g, x)


@pytest.mark.parametrize("spec", MUKAI_GROUPS, ids=lambda s: s.name)
def test_mukai_groups_validate(spec):
    g = build_group(spec.index)
    data = conjugacy_classes(g)
    assert len(data.elements) == spec.order
    assert tuple(sorted(set(data.orders))) == spec.element_orders


def test_h192_complement_is_dihedral():
    # 2^4 : D12 takes sigma of order 6 and an involution tau inverting it
    # from SigmaL(2,4); with the two translations they generate 192 elements
    g = build_group(8)
    sigma, tau = g.generators[:2]

    def order(x):
        k, y = 1, x
        while y != g.identity():
            y, k = g.mul(y, x), k + 1
        return k

    assert (order(sigma), order(tau)) == (6, 2)
    assert g.mul(g.mul(tau, sigma), tau) == inverse_by_powers(g, sigma)
    assert len(enumerate_group(g)) == 192


def test_mukai_table_orthogonality():
    # the Dixon output passes its own validation (done inside) and the
    # class count equals the rational-irreducible count
    t = mukai_table(1)
    assert len(t.characters) == len(t.classes)
    assert t.order == 168
    # L2(7): element orders 1-4, 7 with the 7s merged rationally
    assert next(c.merged for c in t.classes if c.order == 7) == 2


TRIVIAL_GROUPS = {"S1": PermGroup(1, [(0,)]),
                  "no-generators": PermGroup(3, []),
                  "trivial-matrix": MatrixGroup(2, [], p=7)}


@pytest.mark.parametrize("g", list(TRIVIAL_GROUPS.values()),
                         ids=list(TRIVIAL_GROUPS))
def test_trivial_group_table(g):
    # exponent 1: every prime is 1 mod 1, so the Dixon prime search ends
    t = rational_character_table("1", g)
    assert t.order == 1
    assert [(c.label, c.size) for c in t.classes] == [("1-1", 1)]
    assert [(ch.degree, ch.values) for ch in t.characters] == [(1, (1,))]


def test_singular_matrix_generator_rejected():
    with pytest.raises(ValueError):
        MatrixGroup(2, [((1, 0), (0, 0))], p=5)
    with pytest.raises(ValueError):
        MatrixGroup(2, [((1, 1), (0, 1)), ((2, 4), (1, 2))], p=5)
    with pytest.raises(ValueError):
        MatrixGroup(2, [((0, 1), (0, 0))], p=0)


@pytest.mark.parametrize("p", (0, 7))
def test_matrix_generator_entries_read_by_the_integer_rule(p):
    # a float or a non-integral Fraction once built the swap group (p = 0)
    # or failed on the orbit's size (p = 7); an integral Fraction is its int
    with pytest.raises(TypeError, match="not an integer"):
        MatrixGroup(2, [((0.9, 1), (1, 0))], p=p)
    with pytest.raises(ValueError, match="non-integral"):
        MatrixGroup(2, [((Fraction(1, 2), 1), (1, 0))], p=p)
    g = MatrixGroup(2, [((Fraction(0), Fraction(8, 8)), (1, 0))], p=p)
    assert g.generators == [((0, 1), (1, 0))]
    assert all(type(x) is int for row in g.generators[0] for x in row)
    assert len(enumerate_group(g)) == 2


# each of these was accepted, or refused with a message naming no argument
CONSTRUCTOR_PROBES = {
    "perm float entry": (lambda: PermGroup(3, [(0, 1, 2.0)]), TypeError,
                         "not an integer"),
    "perm bool entry": (lambda: PermGroup(3, [(0, True, 2)]), TypeError,
                        "not an integer"),
    "perm bool degree": (lambda: PermGroup(True, [(0,)]), TypeError,
                         "degree"),
    "perm float degree": (lambda: PermGroup(3.0, [(0, 1, 2)]), TypeError,
                          "degree"),
    "perm degree 0": (lambda: PermGroup(0, []), ValueError, "degree"),
    "matrix p 4": (lambda: MatrixGroup(2, [((0, 1), (1, 0))], p=4),
                   ValueError, "p must"),
    "matrix p 1": (lambda: MatrixGroup(2, [((0, 1), (1, 0))], p=1),
                   ValueError, "p must"),
    "matrix float p": (lambda: MatrixGroup(2, [((0, 1), (1, 0))], p=2.0),
                       TypeError, "p must"),
    "matrix 2x3": (lambda: MatrixGroup(2, [((1, 0, 0), (0, 1, 0))]),
                   ValueError, "2 x 2"),
    "matrix 3x2": (lambda: MatrixGroup(2, [((1, 0), (0, 1), (0, 0))], p=5),
                   ValueError, "2 x 2"),
    "matrix float dim": (lambda: MatrixGroup(2.0, [((0, 1), (1, 0))]),
                         TypeError, "dim"),
    "matrix dim 0": (lambda: MatrixGroup(0, []), ValueError, "dim"),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTOR_PROBES))
def test_group_constructors_read_their_arguments_as_ints(name):
    """A permutation group's degree and entries, and a matrix group's dim
    and p, are ints (p 0 or a prime), and a matrix generator is dim x dim."""
    build, error, argument = CONSTRUCTOR_PROBES[name]
    with pytest.raises(error, match=argument):
        build()


def test_permutation_entries_read_by_the_integer_rule():
    g = PermGroup(3, [(Fraction(1), 2, 0)])
    assert g.generators == [(1, 2, 0)]
    assert all(type(x) is int for x in g.generators[0])
    assert len(enumerate_group(g)) == 3


def test_orbits_come_in_first_point_order():
    """Each orbit starts at its first point in ``points`` and lists the
    rest as the walk reaches them, in generator order from each point."""
    cycle = [1, 2, 0, 3, 4, 5]                # (0 1 2)
    swaps = [0, 1, 2, 4, 3, 5]                # (3 4)
    assert groups._orbits([5, 2, 4, 0, 1, 3], [cycle, swaps]) == \
        [[5], [2, 0, 1], [4, 3]]
    assert groups._orbits(range(6), []) == [[i] for i in range(6)]
    assert groups._orbits(range(6), [[1, 0, 3, 2, 5, 4], cycle]) == \
        [[0, 1, 2, 3], [4, 5]]


def test_every_orbit_is_one_routine(monkeypatch):
    """The classes walk the conjugation tables once; the table walks the
    power maps twice, on the rows (Galois orbits) and on the classes
    (rational classes)."""
    calls = []
    orbits = groups._orbits

    def counted(points, maps):
        out = orbits(points, maps)
        calls.append(out)
        return out

    monkeypatch.setattr(groups, "_orbits", counted)
    data = conjugacy_classes(_a4())
    assert calls == [data.members]
    t = rational_character_table("A4", _a4(), data)
    galois, rational = calls[1:]
    assert len(calls) == 3
    assert [len(o) for o in galois] == [ch.orbit_size for ch in t.characters]
    assert [len(o) for o in rational] == [c.merged for c in t.classes]


def test_matrix_group_rejects_foreign_matrix():
    g = MatrixGroup(2, [((1, 1), (0, 1))], p=5)
    with pytest.raises(ValueError):
        g.as_perm(((0, 1), (1, 0)))


def _times(f, g):
    """The product of two polynomials (ascending coefficients)."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


@ORACLE
@given(st.sampled_from(DIXON_PRIMES + [2, 3, BLOCKS_PRIME]),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, 3)),
                max_size=8),
       st.integers(1, 10 ** 6), st.booleans(),
       st.lists(st.integers(-3, 3), max_size=30))
def test_roots_match_scan(p, factors, lead, with_quadratic, shifts):
    """Distinct roots of lead * prod (x - r)^m, optionally times an
    irreducible quadratic, equal the Horner scan's, with the coefficients
    shifted by multiples of p (some negative, some past p)."""
    f = [lead % p or 1]
    for r, m in factors:
        for _ in range(m):
            f = [a % p for a in _times(f, [-r, 1])]
    if with_quadratic:
        if p == 2:
            quad = [1, 1, 1]
        else:
            c = next(c for c in range(2, p)
                     if pow(c, (p - 1) // 2, p) == p - 1)
            quad = [-c, 0, 1]
        f = [a % p for a in _times(f, quad)]
    f = [a + p * s for a, s in zip(f, shifts + [0] * len(f))]
    assert _roots_mod(f, p) == roots_by_scan(f, p)


@pytest.mark.parametrize("p", [2, 3, 193, BLOCKS_PRIME])
def test_roots_at_block_edges(p):
    """Roots at the first and the last point of every block of 1024 points,
    at 0 and p - 1, and the constants, against the Horner scan."""
    edges = sorted({x for m in range(p // BLOCK + 1)
                    for x in (m * BLOCK - 1, m * BLOCK, p - 1) if 0 <= x < p})
    for roots in (edges, edges[:1], edges[-1:], edges[1::2]):
        f = [1]
        for r in roots:
            f = _times(f, [-r, 1])
        assert _roots_mod(f, p) == roots_by_scan(f, p) == roots
        assert _roots_mod([-c for c in f], p) == roots
    for const in (1, -7, p + 1, p):
        assert _roots_mod([const], p) == roots_by_scan([const], p)
    assert _roots_mod([1], p) == [] and _roots_mod([p], p) == list(range(p))


ORACLE_GROUPS = ([(s.name, lambda i=s.index: build_group(i))
                  for s in MUKAI_GROUPS]
                 + [("S3", _s3), ("Q8", _q8), ("A4", _a4)])


@pytest.mark.parametrize("build", [b for _, b in ORACLE_GROUPS],
                         ids=[n for n, _ in ORACLE_GROUPS])
def test_conjugacy_matches_oracle(build):
    g = build()
    data = conjugacy_classes(g)
    want = conjugacy_by_mul(g)
    classes, class_of, reps = class_sets(g, data)
    assert data.elements == want["elements"]
    assert classes == want["classes"]
    assert class_of == want["class_of"]
    assert reps == want["reps"]
    assert data.orders == want["orders"]
    assert data.sizes == want["sizes"]


INDEX_GROUPS = ORACLE_GROUPS + [(n, lambda g=g: g)
                                for n, g in TRIVIAL_GROUPS.items()]


@pytest.mark.parametrize("build", [b for _, b in INDEX_GROUPS],
                         ids=[n for n, _ in INDEX_GROUPS])
def test_index_tables_match_mul(build):
    """The closure's right tables, the conjugation tables s^-1 x s and the
    left tables r x of the class representatives agree with ``g.mul``."""
    g = build()
    cayley = _Cayley(g)
    # image tuples, for permutation and matrix groups alike
    assert all(type(x) is tuple for x in cayley.perms)
    elems = [g.from_perm(x) for x in cayley.perms]
    assert elems[0] == g.identity()
    assert sorted(elems) == enumerate_by_mul(g)
    index = {x: i for i, x in enumerate(elems)}
    for s, gen in enumerate(g.generators):
        inv = inverse_by_powers(g, gen)
        assert cayley.right[s] == [index[g.mul(x, gen)] for x in elems]
        assert cayley.conjugation(s) == \
            [index[g.mul(g.mul(inv, x), gen)] for x in elems]
    data = conjugacy_classes(g)
    want = conjugacy_by_mul(g)
    for r, left in zip(want["reps"], data.rep_left):
        assert left == cayley.left(index[r]) == \
            [index[g.mul(r, x)] for x in elems]
    assert [frozenset(elems[x] for x in m) for m in data.members] == \
        want["classes"]
    assert all(data.class_at[i] == want["class_of"][x]
               for i, x in enumerate(elems))


@pytest.mark.parametrize("build", [b for _, b in ORACLE_GROUPS],
                         ids=[n for n, _ in ORACLE_GROUPS])
def test_class_matrices_match_products(build):
    g = build()
    data = conjugacy_classes(g)
    _classes, class_of, reps = class_sets(g, data)
    inv_class = [class_of[inverse_by_powers(g, r)] for r in reps]
    assert list(_class_matrices(data, inv_class)) == \
        class_matrices_by_products(g, data)


def _dixon_inputs(g):
    """The class matrices, the identity's class and the Dixon prime of g,
    the inverse classes found by ``g.mul``."""
    data = conjugacy_classes(g)
    _classes, class_of, reps = class_sets(g, data)
    inv_class = [class_of[inverse_by_powers(g, r)] for r in reps]
    p = _dixon_prime(len(data.elements), lcm(*data.orders))
    return _class_matrices(data, inv_class), data.class_at[0], p


@pytest.mark.parametrize("build", [b for _, b in INDEX_GROUPS],
                         ids=[n for n, _ in INDEX_GROUPS])
def test_central_characters_are_the_common_eigenvectors(build):
    """k distinct sorted vectors, 1 at the identity, with M_i omega =
    omega[i] omega for every class matrix, whose eigenvalues (by the
    determinant scan) are exactly the omega[i]."""
    mats, id_idx, p = _dixon_inputs(build())
    omegas = _central_characters(mats, id_idx, p)
    assert len(set(omegas)) == len(omegas) == len(mats)
    assert omegas == sorted(omegas)
    assert all(w[id_idx] == 1 for w in omegas)
    for i, mat in enumerate(mats):
        for w in omegas:
            assert [sum(map(mul, row, w)) % p for row in mat] == \
                [w[i] * x % p for x in w]
        assert charpoly_roots_by_scan(mat, p) == sorted({w[i] for w in omegas})


@pytest.mark.parametrize("spec", MUKAI_GROUPS, ids=lambda s: s.name)
def test_central_characters_try_a_second_weight(spec, monkeypatch):
    """sum_i 2^i M_i has k distinct eigenvalues for every group at its
    Dixon prime, one kernel.  Over GF(769) T192's j = 2 repeats an
    eigenvalue, so j = 3 takes a second kernel, and its k vectors are
    still common eigenvectors."""
    calls = []

    def counted(a, p):
        calls.append(p)
        return nullspace_mod(a, p)

    monkeypatch.setattr(groups, "nullspace_mod", counted)
    mats, id_idx, p = _dixon_inputs(build_group(spec.index))
    _central_characters(mats, id_idx, p)
    assert calls == [p]
    if spec.name == "T192":
        omegas = _central_characters(mats, id_idx, 769)
        assert calls == [p, 769, 769]
        assert len(set(omegas)) == len(mats)
        for i, mat in enumerate(mats):
            assert all([sum(map(mul, row, w)) % 769 for row in mat] ==
                       [w[i] * x % 769 for x in w] for w in omegas)


def _is_prime(q):
    return q > 1 and all(q % d for d in range(2, isqrt(q) + 1))


SMALL_GROUPS = {"S3": _s3, "Q8": _q8, "A4": _a4,
                "trivial": lambda: TRIVIAL_GROUPS["S1"]}


@pytest.mark.parametrize("name", [s.name for s in MUKAI_GROUPS]
                         + list(SMALL_GROUPS))
def test_dixon_prime_is_the_least_past_twice_the_order(name):
    """p is the least prime = 1 mod exp(G) with p >= 2|G| + 1, by trial
    division.  At it, each Mukai table has chi(1)^2 < p, and every orbit
    degree and orbit-sum value lies within (p - 1)/2, so the residues
    lift to Z."""
    spec = next((s for s in MUKAI_GROUPS if s.name == name), None)
    if spec is None:
        data = conjugacy_classes(SMALL_GROUPS[name]())
        order, exponent = len(data.elements), lcm(*data.orders)
    else:
        order, exponent = spec.order, lcm(*spec.element_orders)
    p = _dixon_prime(order, exponent)
    assert p == next(q for q in count(2 * order + 1)
                     if q % exponent == 1 % exponent and _is_prime(q))
    if spec is not None:
        table = mukai_table(spec.index)
        half = (p - 1) // 2
        for ch in table.characters:
            assert ch.degree ** 2 < p
            assert ch.orbit_size * ch.degree <= half
            assert all(abs(v) <= half for v in ch.values)


def test_central_characters_give_up_after_every_weight(monkeypatch):
    # a kernel of two vectors at every j: j runs 2..p-1 and then raises
    calls = []

    def two_vectors(a, p):
        calls.append(p)
        return [[1] * len(a[0])] * 2

    monkeypatch.setattr(groups, "nullspace_mod", two_vectors)
    mats, id_idx, p = _dixon_inputs(_s3())
    with pytest.raises(RuntimeError, match="distinct eigenvalues"):
        _central_characters(mats, id_idx, p)
    assert len(calls) == p - 2


@pytest.mark.parametrize("p, degree", [(17, 3), (41, 2), (2, 6), (3, 4)])
def test_roots_of_every_small_polynomial(p, degree):
    """Every monic polynomial of the degree mod p: split, repeated and
    irreducible factors, against the Horner scan; also a non-monic integer
    multiple of it by a unit mod p, and a copy with coefficients shifted
    below 0."""
    unit = 2 * p - 1                        # -1 mod p, and not 1
    for coeffs in product(range(p), repeat=degree):
        f = list(coeffs) + [1]
        want = roots_by_scan(f, p)
        assert _roots_mod(f, p) == want
        assert _roots_mod([unit * c for c in f], p) == want
        assert _roots_mod([c - p * (i % 3) for i, c in enumerate(f)],
                          p) == want


@pytest.mark.parametrize("index", [7, 11], ids=["T192", "T48"])
def test_permutation_image_is_faithful(index):
    g = build_group(index)
    elements = enumerate_group(g)
    perms = [g.as_perm(x) for x in elements]
    assert len(set(perms)) == len(elements)
    assert [g.from_perm(q) for q in perms] == elements
    for b in g.generators + elements[::5]:
        pb = g.as_perm(b)
        for a, pa in zip(elements, perms):
            assert g.as_perm(g.mul(a, b)) == tuple(pa[i] for i in pb)


def _counting_apply(monkeypatch) -> list:
    """Record each ``MatrixGroup._apply`` call from now on."""
    applied = []
    apply = MatrixGroup._apply

    def counted(self, m, v):
        applied.append(v)
        return apply(self, m, v)

    monkeypatch.setattr(MatrixGroup, "_apply", counted)
    return applied


@pytest.mark.parametrize("gens, match", [
    pytest.param([((2, 0), (0, 1))], "more than 256", id="det-2"),
    # det 1, of infinite order: entries grow linearly, and exponentially
    pytest.param([((1, 1), (0, 1))], "more than 256", id="linear"),
    pytest.param([((2, 1), (1, 1))], "more than 256", id="exponential"),
    pytest.param([((0, 0), (0, 1))], "not invertible", id="singular"),
    pytest.param([((0, 1), (1, 0)), ((2, 0), (0, 1))], "more than 256",
                 id="pair-det-2"),
])
def test_integer_generator_outside_a_finite_group_refused_by_the_walk(
        monkeypatch, gens, match):
    """An integer generator of infinite order or of determinant other than
    +-1 has an infinite orbit, and a singular one does not permute its
    orbit: the orbit walk alone refuses each, after at most 257
    applications of each generator."""
    applied = _counting_apply(monkeypatch)
    with pytest.raises(ValueError, match=match) as err:
        MatrixGroup(2, gens, p=0)
    assert 0 < len(applied) <= 257 * len(gens)
    if match == "more than 256":
        assert "infinite orbit" in str(err.value)


def test_integer_reflection_builds():
    g = MatrixGroup(2, [((-1, 0), (0, 1))], p=0)
    assert len(g.perm_generators[0]) == 3       # e_1, e_2, -e_1
    assert len(enumerate_group(g)) == 2


def test_degree_bound():
    """Images are bytes: degree 256 enumerates, and 257 is refused when
    the group is built, for a permutation group and for the orbit of a
    matrix group (GF(p)^*, of order p - 1, acting on p - 1 vectors)."""
    cycle = tuple(range(1, 256)) + (0,)
    assert len(enumerate_group(PermGroup(256, [cycle]))) == 256
    with pytest.raises(ValueError, match="257"):
        PermGroup(257, [tuple(range(1, 257)) + (0,)])
    # 3 generates GF(257)^*, 5 generates GF(263)^*
    g = MatrixGroup(1, [((3,),)], p=257)
    assert len(enumerate_group(g)) == len(g.perm_generators[0]) == 256
    with pytest.raises(ValueError, match="more than 256"):
        MatrixGroup(1, [((5,),)], p=263)


def test_orbit_walk_stops_at_the_257th_vector(monkeypatch):
    """The orbit of e_1, e_2, e_3 under these two generators over GF(47)
    has 103,822 vectors; it is refused once 257 are found, after at most
    257 applications of each generator."""
    applied = _counting_apply(monkeypatch)
    gens = [((1, 1, 0), (0, 1, 0), (0, 0, 1)),
            ((0, 1, 0), (0, 0, 1), (1, 0, 0))]
    with pytest.raises(ValueError, match="more than 256"):
        MatrixGroup(3, gens, p=47)
    assert 0 < len(applied) <= 257 * len(gens)
