"""Small finite groups: enumeration, conjugacy data, rational character tables.

Groups are given by generators (permutations as tuples, or matrices as
tuples-of-tuples over GF(p) / over Z); this is meant for groups of order a
few thousand at most.  A matrix group acts through its permutations of the
finite orbit of the standard basis vectors, which span the space, so the
action is faithful, and its degree, the number of points permuted, is at
most 256.  One breadth-first closure over the generators' permutation
images numbers the elements and records, per generator, the index of x s
for every element x; it walks the inverses x^-1 as ``bytes``, so that
(x s)^-1 = s^-1 x^-1 is one ``bytes.translate`` by the table of s^-1.
The walk's spanning tree then gives the index of r x for any r by list
lookups alone.  Conjugation, class orbits, element orders and class
matrices all run on these index tables, and one orbit walk (``_orbits``)
finds the classes, the Galois orbits of the rows and the rational
classes.  Elements are still enumerated, sorted and given class
representatives in their own representation.

Character tables are computed by Dixon's method over GF(p), p the least
prime = 1 mod exp(G) above 2|G| (``_dixon_prime``): the central
characters are the common eigenvectors of the class matrices, read off
one combination A = sum_i j^i M_i with k distinct eigenvalues.  The
Krylov vectors of the identity's unit vector under A give A's minimal
polynomial f as one null-space vector (``lattice.nullspace_mod``); its
roots come from one Horner pass over GF(p), and each eigenvector is
f / (x - root) applied to the unit vector.  The result is a validated
``chartab.CharacterTable`` in Galois-orbit-summed (rational) form: all
values are integers, stored as ``int`` (the series rule), one character
per rational class.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm
from itertools import compress, repeat
from operator import is_, mul as _mul

from .chartab import CharacterEntry, CharacterTable, ClassEntry
from .lattice import _integer_vector, nullspace_mod
from .qpoly import _horner, euler_phi, require_int
from .records import Record

__all__ = [
    "PermGroup",
    "MatrixGroup",
    "rational_character_table",
]

_MAX_ORDER = 200000
# a permutation's images are the bytes of a ``bytes`` object
_MAX_DEGREE = 256


def _check_degree(degree: int) -> int:
    if degree > _MAX_DEGREE:
        raise ValueError(f"permutation degree {degree} exceeds "
                         f"{_MAX_DEGREE}")
    return degree


# -- group containers ----------------------------------------------------------
#
# Each container exposes its permutation action to the algorithms below:
# ``perm_generators``, ``as_perm`` (element -> image tuple) and ``from_perm``
# (image tuple -> element).  Image tuples compose as ``mul`` does: apply the
# right factor first, so (x s)[i] = x[s[i]].

class PermGroup:
    """Permutation group on range(n), 1 <= n <= 256; elements are image
    tuples.  The degree is an int and each entry is read by ``lattice``'s
    input rule."""

    def __init__(self, degree: int, generators):
        self.degree = _check_degree(require_int("degree", degree, 1))
        self.generators = [tuple(_integer_vector(g)) for g in generators]
        for g in self.generators:
            if sorted(g) != list(range(degree)):
                raise ValueError("generator is not a permutation")
        self.perm_generators = self.generators

    def identity(self):
        return tuple(range(self.degree))

    def mul(self, a, b):
        # apply b first, then a
        return tuple(map(a.__getitem__, b))

    def as_perm(self, x):
        return x

    def from_perm(self, perm):
        return perm


class MatrixGroup:
    """Matrix group with entries in GF(p) (p prime) or exact integers (p=0).

    ``dim`` >= 1 and ``p`` are ints, and a generator must be dim x dim.
    Entries are read by ``lattice``'s input rule before they are reduced
    mod p: a float raises TypeError and a non-integral Fraction ValueError.
    The group acts on the orbit O of the standard basis vectors by
    v -> m v.  An orbit of more than 256 vectors, the degree of the
    permutation action, raises ``ValueError`` as soon as its 257th vector
    is found, and a generator that does not permute O is singular and
    raises ``ValueError`` too.  Nothing more is checked: a generator that
    permutes a finite O has a power fixing O, which spans the space, so it
    has finite order and, over Z, determinant +-1.  An integer generator
    of infinite order or of another determinant has an infinite orbit,
    which the walk refuses after at most 257 applications of each
    generator.
    """

    def __init__(self, dim: int, generators, p: int = 0):
        self.dim = require_int("dim", dim, 1)
        self.p = require_int("p", p, 0)
        if p and euler_phi(p) != p - 1:
            raise ValueError(f"p must be 0 or a prime, got {p}")
        self.generators = [self._norm(g) for g in generators]
        orbit = list(self.identity())       # e_j is row j of the identity
        _check_degree(len(orbit))
        index = {v: j for j, v in enumerate(orbit)}
        images = [[] for _ in self.generators]
        for v in orbit:                     # the orbit grows as it is walked
            for m, img in zip(self.generators, images):
                w = self._apply(m, v)
                if w not in index:
                    if len(orbit) >= _MAX_DEGREE:
                        raise ValueError(
                            f"permutation degree more than {_MAX_DEGREE}"
                            + ("" if p else ": an integer generator of "
                               "infinite order, or of determinant other "
                               "than +-1, has an infinite orbit"))
                    index[w] = len(orbit)
                    orbit.append(w)
                img.append(index[w])
        self.perm_generators = [tuple(img) for img in images]
        if any(len(set(s)) != len(s) for s in self.perm_generators):
            raise ValueError("generator is not invertible")
        self._orbit = orbit
        self._index = index

    def _norm(self, m):
        rows = [_integer_vector(row) for row in m]
        if len(rows) != self.dim or any(len(r) != self.dim for r in rows):
            raise ValueError(f"generator is not {self.dim} x {self.dim}")
        if self.p:
            return tuple(tuple(x % self.p for x in row) for row in rows)
        return tuple(map(tuple, rows))

    def _apply(self, m, v):
        if self.p:
            return tuple(sum(map(_mul, row, v)) % self.p for row in m)
        return tuple(sum(map(_mul, row, v)) for row in m)

    def identity(self):
        return tuple(tuple(1 if i == j else 0 for j in range(self.dim))
                     for i in range(self.dim))

    def mul(self, a, b):
        cols = tuple(zip(*b))
        return tuple(self._apply(cols, row) for row in a)

    def as_perm(self, m):
        """The permutation that ``m`` induces on the basis-vector orbit."""
        index = self._index
        images = tuple(index.get(self._apply(m, v)) for v in self._orbit)
        if None in images or len(set(images)) != len(images):
            raise ValueError("matrix does not permute the basis-vector orbit")
        return images

    def from_perm(self, perm):
        """The matrix whose column j is the image of e_j."""
        return tuple(zip(*(self._orbit[perm[j]] for j in range(self.dim))))


class _Cayley:
    """The elements of a group as indices, from one breadth-first closure
    over the generators.

    ``perms[i]`` is the permutation image of element x_i; index 0 is the
    identity.  ``right[s][i]`` is the index of x_i s for generator number
    s.  The walk takes one level at a time and, within a level, one
    generator at a time, so the elements first reached as x_q s, for one
    generator s from the elements q of one level, get consecutive indices:
    a block (s, [q, ...]) of ``tree``.  Left multiplication follows the
    right tables block by block, r x_i = (r x_q) s, with no product of
    images.

    The walk keeps y = x^-1 as ``bytes``: (x s)^-1 = s^-1 y is
    ``y.translate`` by the 256-byte table of s^-1, and the dictionary
    hashes bytes.  Inversion is a bijection, so the indices are those of a
    walk on the x themselves; ``perms`` holds the x, inverted back once at
    the end.
    """

    __slots__ = ("perms", "right", "tree")

    def __init__(self, g):
        ident = bytes(g.as_perm(g.identity()))
        n = len(ident)
        inverses = [ident]
        index = {ident: 0}
        # bytes.maketrans(s, ident) maps s[i] to i: the table of s^-1
        tables = [bytes.maketrans(bytes(s), ident)
                  for s in g.perm_generators]
        right = [[] for _ in tables]
        tree = []
        lo = 0
        while lo < len(inverses):           # one level [lo, hi) per pass
            hi = len(inverses)
            level = inverses[lo:hi]
            for s, (table, row) in enumerate(zip(tables, right)):
                images = list(map(bytes.translate, level, repeat(table)))
                found = list(map(index.get, images))
                parents = []
                unseen = map(is_, found, repeat(None))
                for t in compress(range(hi - lo), unseen):
                    y = images[t]
                    j = index.get(y)        # reached earlier in this block?
                    if j is None:
                        j = index[y] = len(inverses)
                        if j >= _MAX_ORDER:
                            raise RuntimeError(
                                "group too large for enumeration")
                        inverses.append(y)
                        parents.append(lo + t)
                    found[t] = j
                row += found
                if parents:
                    tree.append((s, parents))
            lo = hi
        self.perms = [tuple(bytes.maketrans(y, ident)[:n]) for y in inverses]
        self.right = right
        self.tree = tree

    def left(self, r: int) -> list:
        """``left(r)[i]`` is the index of x_r x_i."""
        right = self.right
        out = [r]
        for s, parents in self.tree:
            # the block's parents precede it, so out holds them already
            out += map(right[s].__getitem__, map(out.__getitem__, parents))
        return out

    def conjugation(self, s: int) -> list:
        """The indices of s^-1 x_i s for generator number s."""
        times_s = self.right[s]
        by_inverse = self.left(times_s.index(0))     # x s = 1 at x = s^-1
        return list(map(by_inverse.__getitem__, times_s))


def _power_indices(left: list) -> list:
    """[x^0, x^1, ..., x^(o-1)] as indices, from the left table of x."""
    out = [0]
    acc = left[0]
    while acc:
        out.append(acc)
        acc = left[acc]
    return out


def enumerate_group(g) -> list:
    """All elements, sorted."""
    return sorted(map(g.from_perm, _Cayley(g).perms))


class ConjugacyData(Record):
    """The sorted elements, and per class (in their order) its element
    order and size; then the same data on the indices of a ``_Cayley``
    closure (identity 0): ``class_at`` (index -> class), ``members``
    (class -> its indices) and ``rep_left`` (class -> the left table of
    its representative)."""

    __slots__ = ("elements", "orders", "sizes", "class_at", "members",
                 "rep_left")


def _orbits(points, maps) -> list:
    """The orbits, on indices, of the group that the index ``maps``
    generate, in the order of their first point in ``points``; each starts
    at that point and lists the rest in the order the walk reaches them."""
    seen = set()
    out = []
    for x in points:
        if x not in seen:
            seen.add(x)
            orbit = [x]
            for y in orbit:                 # grows as it is walked
                for m in maps:
                    z = m[y]
                    if z not in seen:
                        seen.add(z)
                        orbit.append(z)
            out.append(orbit)
    return out


def conjugacy_classes(g) -> ConjugacyData:
    """Classes in the order of their least elements, each represented by it."""
    cayley = _Cayley(g)
    elems = [g.from_perm(x) for x in cayley.perms]
    conj = [cayley.conjugation(s) for s in range(len(cayley.right))]
    ordered = sorted(range(len(elems)), key=elems.__getitem__)
    members = _orbits(ordered, conj)
    class_at = [0] * len(elems)
    for c, orbit in enumerate(members):
        for x in orbit:
            class_at[x] = c
    rep_left = [cayley.left(orbit[0]) for orbit in members]
    return ConjugacyData(
        [elems[x] for x in ordered],
        [len(_power_indices(left)) for left in rep_left],
        [len(orbit) for orbit in members], class_at, members, rep_left)


# -- Dixon's algorithm over GF(p) ----------------------------------------------

def _dixon_prime(order: int, exponent: int) -> int:
    """The least prime p = 1 mod ``exponent`` with p > 2 ``order``, which
    serves any finite G: p does not divide |G|; chi(1)^2 <= |G| < p is
    read exactly; and a Galois orbit of o characters of degree d has
    o d^2 <= |G|, so its degree o d and every orbit-sum value lie within
    |G| <= (p - 1)/2 and lift exactly."""
    # 1 % exponent, not 1: every p is 0 mod 1, so the trivial group needs it
    p = exponent + 1
    while (p < 2 * order + 1 or euler_phi(p) != p - 1
           or p % exponent != 1 % exponent):
        p += exponent
    return p


def _class_matrices(data: ConjugacyData, inv_class: list) -> list:
    """The k class matrices, in class order.

    Entry [l][j] of matrix i counts the a in class i with a^-1 r_j in class
    l; the inverses a^-1 are the elements of the inverse class, and a r_j
    is conjugate to r_j a, which the left table of r_j looks up.  So
    (M_i w)_l = sum_j M_i[l][j] w_j, and M_i acts on a central character
    omega as the scalar omega[i].
    """
    k = len(data.members)
    class_at = data.class_at
    mats = []
    for i in range(k):
        mat = [[0] * k for _ in range(k)]
        members = data.members[inv_class[i]]
        for j, left in enumerate(data.rep_left):
            for a in members:
                mat[class_at[left[a]]][j] += 1
        mats.append(mat)
    return mats


def _central_characters(mats: list, id_idx: int, p: int) -> list:
    """The k central characters omega mod p, omega[id_idx] = 1, as
    tuples in ascending order.

    They are the common eigenvectors of the class matrices, and one
    matrix A = sum_i j^i M_i has them as its eigenvectors once its k
    eigenvalues sum_i j^i omega[i] are distinct.  The unit vector e at the
    identity class is sum chi(1)^2 / |G| omega_chi, with every coefficient
    nonzero mod p, so then e, A e, ..., A^k e have a one-vector kernel,
    A's monic minimal polynomial f; otherwise the next j is tried (two
    characters share an eigenvalue for at most k - 1 values of j).  For
    each root mu of f (``_roots_mod``), (f / (x - mu))(A) e is the
    mu-eigenvector.
    Ascending order sorts by the eigenvalue of M_0, then of M_1 and so on;
    it fixes the row names chi<n> of the tables.
    """
    k = len(mats)
    for j in range(2, p):
        weights = [pow(j, i, p) for i in range(k)]
        a = [[sum(map(_mul, weights, col)) % p
              for col in zip(*(m[r] for m in mats))] for r in range(k)]
        krylov = [[int(i == id_idx) for i in range(k)]]
        for _ in range(k):
            krylov.append([sum(map(_mul, row, krylov[-1])) % p for row in a])
        kernel = nullspace_mod([list(r) for r in zip(*krylov)], p)
        if len(kernel) == 1:
            break
    else:
        raise RuntimeError("no combination of class matrices has k "
                           "distinct eigenvalues")
    f = kernel[0]
    out = []
    for mu in _roots_mod(f, p):
        # f / (x - mu) by synthetic division, from the top coefficient down
        q = [0] * k
        c = 0
        for n in range(k, 0, -1):
            c = q[n - 1] = (f[n] + mu * c) % p
        w = [sum(map(_mul, q, col)) % p for col in zip(*krylov)]
        scale = pow(w[id_idx], p - 2, p)
        out.append(tuple(x * scale % p for x in w))
    return sorted(out)


def _roots_mod(f, p):
    """Sorted distinct roots in GF(p), p prime, of the nonzero f (integer
    coefficients, ascending): Horner's rule at every point of GF(p)."""
    return [x for x in range(p) if not _horner(f, x) % p]


def _lift(x: int, p: int) -> int:
    """The residue of x mod p in (-p/2, p/2]."""
    x %= p
    return x - p if x > p // 2 else x


def rational_character_table(name: str, g,
                             data: ConjugacyData | None = None) -> CharacterTable:
    """The validated rational character table of ``g``, titled ``name``.

    A rational class of element order o is labeled "o-k", k counting the
    classes of order o so far; the n-th row, in the ascending order of the
    central characters (``_central_characters``), is named ``chi<n>``.
    """
    if data is None:
        data = conjugacy_classes(g)
    k = len(data.members)
    order = len(data.elements)
    exponent = lcm(*data.orders)
    p = _dixon_prime(order, exponent)
    # the classes of r^0, r^1, ... for each representative r; the last
    # power of a representative is its inverse
    rep_powers = [[data.class_at[x] for x in _power_indices(left)]
                  for left in data.rep_left]
    inv_class = [pw[-1] for pw in rep_powers]
    # normalize each central character to character values mod p: the
    # residue of chi(1)^2 is chi(1)^2 itself, as p > 2|G| >= 2 chi(1)^2
    inv_sizes = [pow(size, p - 2, p) for size in data.sizes]
    degs, rows = [], []
    for v in _central_characters(_class_matrices(data, inv_class),
                                 data.class_at[0], p):   # 0: the identity
        dot = sum(v[i] * v[inv_class[i]] * inv_sizes[i]
                  for i in range(k)) % p
        chi1_sq = order * pow(dot, p - 2, p) % p
        chi1 = isqrt(chi1_sq)
        if chi1 * chi1 != chi1_sq:
            raise RuntimeError("chi(1)^2 mod p is no square; prime too small?")
        row = [v[i] * chi1 % p * inv_sizes[i] % p for i in range(k)]
        degs.append(chi1)
        rows.append(row)
    # the power maps x -> x^a, a a unit mod exp(G), act on the classes and,
    # through chi^a(x) = chi(x^a), on the rows, which are distinct (each is
    # chi(1) times its own eigenvector): their orbits are the rational
    # classes and the Galois orbits
    pow_maps = [[pw[a % len(pw)] for pw in rep_powers]
                for a in range(1, exponent) if gcd(a, exponent) == 1]
    row_index = {tuple(row): i for i, row in enumerate(rows)}
    row_maps = [[row_index[tuple(map(row.__getitem__, pm))] for row in rows]
                for pm in pow_maps]
    orbit_of = [sorted(o) for o in _orbits(range(k), row_maps)]
    rational_classes = [sorted(o) for o in _orbits(range(k), pow_maps)]
    classes = []
    seen: dict = {}
    for rc in rational_classes:
        o = data.orders[rc[0]]
        seen[o] = seen.get(o, 0) + 1
        classes.append(ClassEntry(f"{o}-{seen[o]}", o,
                                  sum(data.sizes[j] for j in rc), len(rc)))
    chars = []
    for n, orbit in enumerate(orbit_of, 1):
        deg = _lift(sum(degs[i] for i in orbit), p)
        values = tuple(_lift(sum(rows[i][rc[0]] for i in orbit), p)
                       for rc in rational_classes)
        chars.append(CharacterEntry(f"chi{n}", len(orbit), deg // len(orbit),
                                    values))
    return CharacterTable(name, order, classes, chars).validate()
