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
matrices all run on these index tables.  Elements are still enumerated,
sorted and given class representatives in their own representation.

Character tables are computed by Dixon's method over GF(p) with
p = 1 mod exp(G): the central characters are the common eigenvectors of
the class matrices, read off one combination A = sum_i j^i M_i with k
distinct eigenvalues.  The Krylov vectors of the identity's unit vector
under A give A's minimal polynomial as one null-space vector
(``lattice.nullspace_mod``); its roots come from a scan of GF(p) by
forward differences (Horner's rule at deg f + 1 points per block of
``_SCAN_BLOCK``, then running sums), for any prime p, and each
eigenvector is the quotient f / (x - root) applied to the unit vector.  The result is a validated
``chartab.CharacterTable`` in Galois-orbit-summed (rational) form: all
values are integers, stored as ``int`` (the series rule), one character
per rational class.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm
from itertools import accumulate, compress, repeat
from operator import is_, mul as _mul, not_

from .chartab import CharacterEntry, CharacterTable, ClassEntry
from .lattice import _integer_vector, nullspace_mod
from .qpoly import _horner, euler_phi

__all__ = [
    "PermGroup",
    "MatrixGroup",
    "rational_character_table",
]

_MAX_ORDER = 200000
# a permutation's images are the bytes of a ``bytes`` object
_MAX_DEGREE = 256
# points of GF(p) per block of the root scan's running sums
_SCAN_BLOCK = 1024


def _check_degree(degree: int) -> None:
    if degree > _MAX_DEGREE:
        raise ValueError(f"permutation degree {degree} exceeds "
                         f"{_MAX_DEGREE}")


# -- group containers ----------------------------------------------------------
#
# Each container exposes its permutation action to the algorithms below:
# ``perm_generators``, ``as_perm`` (element -> image tuple) and ``from_perm``
# (image tuple -> element).  Image tuples compose as ``mul`` does: apply the
# right factor first, so (x s)[i] = x[s[i]].

class PermGroup:
    """Permutation group on range(n), n <= 256; elements are image tuples."""

    def __init__(self, degree: int, generators):
        _check_degree(degree)
        self.degree = degree
        self.generators = [tuple(g) for g in generators]
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
        self.dim = dim
        self.p = p
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
        rows = map(_integer_vector, m)
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


class ConjugacyData:
    __slots__ = ("elements", "orders", "sizes", "class_at", "members",
                 "rep_left")

    def __init__(self, elements: list, orders: list, sizes: list,
                 class_at: list, members: list, rep_left: list):
        self.elements = elements
        self.orders = orders
        self.sizes = sizes
        # the same data on the indices of a _Cayley closure (identity 0)
        self.class_at = class_at    # index -> class index
        self.members = members      # class -> its indices
        self.rep_left = rep_left    # class -> left table of its rep


def conjugacy_classes(g) -> ConjugacyData:
    """Classes in the order of their least elements, each represented by it."""
    cayley = _Cayley(g)
    perms = cayley.perms
    elems = [g.from_perm(x) for x in perms]
    conj = [cayley.conjugation(s) for s in range(len(cayley.right))]
    ordered = sorted(range(len(perms)), key=elems.__getitem__)
    class_at = [-1] * len(perms)
    members = []
    rep_idx = []
    for x in ordered:
        if class_at[x] >= 0:
            continue
        idx = len(members)
        class_at[x] = idx
        orbit = [x]
        for y in orbit:                     # grows as it is walked
            for c in conj:
                z = c[y]
                if class_at[z] < 0:
                    class_at[z] = idx
                    orbit.append(z)
        members.append(orbit)
        rep_idx.append(x)
    rep_left = [cayley.left(r) for r in rep_idx]
    return ConjugacyData(
        [elems[x] for x in ordered],
        [len(_power_indices(left)) for left in rep_left],
        [len(orbit) for orbit in members],
        class_at, members, rep_left)


# -- Dixon's algorithm over GF(p) ----------------------------------------------

def _dixon_prime(order: int, exponent: int) -> int:
    # 1 % exponent, not 1: every p is 0 mod 1, so the trivial group needs it
    p = exponent + 1
    while (p < 4 * order + 1 or euler_phi(p) != p - 1
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
    each root mu of f, found by a scan of GF(p) (``_roots_mod``, any
    prime p), (f / (x - mu))(A) e is the mu-eigenvector.
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
    coefficients, ascending): a scan of GF(p) in blocks of ``_SCAN_BLOCK``
    points.

    At the start x0 of each block, Horner's rule at x0, ..., x0 + k gives
    the forward differences of f (degree at most k) there, reduced mod p.
    The k-th difference is constant, so k running sums (``accumulate``)
    give, for every t in the block, an integer congruent to f(x0 + t)
    mod p.  The sums are lazy: no list of the block's values is made.
    """
    k = len(f) - 1
    roots = []
    for x0 in range(0, p, _SCAN_BLOCK):
        diffs = [_horner(f, x) for x in range(x0, x0 + k + 1)]
        for i in range(1, k + 1):
            for j in range(k, i - 1, -1):
                diffs[j] -= diffs[j - 1]
        values = repeat(diffs[k] % p, _SCAN_BLOCK - k)
        for d in reversed(diffs[:k]):
            values = accumulate(values, initial=d % p)
        # compress stops at the shorter input: past p, or past the block
        roots += compress(range(x0, min(x0 + _SCAN_BLOCK, p)),
                          map(not_, map(p.__rmod__, values)))
    return roots


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
    # residue of chi(1)^2 is chi(1)^2 itself, as p > 4|G| >= 4 chi(1)^2
    inv_sizes = [pow(size, p - 2, p) for size in data.sizes]
    chars_mod_p = []
    for v in _central_characters(_class_matrices(data, inv_class),
                                 data.class_at[0], p):   # 0: the identity
        dot = sum(v[i] * v[inv_class[i]] * inv_sizes[i]
                  for i in range(k)) % p
        chi1_sq = order * pow(dot, p - 2, p) % p
        chi1 = isqrt(chi1_sq)
        if chi1 * chi1 != chi1_sq:
            raise RuntimeError("chi(1)^2 mod p is no square; prime too small?")
        row = [v[i] * chi1 % p * inv_sizes[i] % p for i in range(k)]
        chars_mod_p.append((chi1, row))
    # Galois orbits via power maps
    pow_maps = {a: [pw[a % len(pw)] for pw in rep_powers]
                for a in range(1, exponent) if gcd(a, exponent) == 1}
    rows = [row for _, row in chars_mod_p]
    degs = [d for d, _ in chars_mod_p]
    # the rows are distinct: each is chi(1) times its own eigenvector
    row_index = {tuple(row): i for i, row in enumerate(rows)}
    assigned = [False] * k
    orbit_of: list = []
    for i in range(k):
        if assigned[i]:
            continue
        orbit = {i}
        for a, pm in pow_maps.items():
            j = row_index.get(tuple(map(rows[i].__getitem__, pm)))
            if j is not None and not assigned[j]:
                orbit.add(j)
        for j in orbit:
            assigned[j] = True
        orbit_of.append(sorted(orbit))
    # rational classes: merge classes under the power maps
    cls_assigned = [False] * k
    rational_classes = []
    for i in range(k):
        if cls_assigned[i]:
            continue
        merged = {i}
        for a, pm in pow_maps.items():
            merged.add(pm[i])
        for j in merged:
            cls_assigned[j] = True
        rational_classes.append(sorted(merged))
    half = p // 2
    classes = []
    seen: dict = {}
    for rc in rational_classes:
        o = data.orders[rc[0]]
        seen[o] = seen.get(o, 0) + 1
        classes.append(ClassEntry(f"{o}-{seen[o]}", o,
                                  sum(data.sizes[j] for j in rc), len(rc)))
    chars = []
    for n, orbit in enumerate(orbit_of, 1):
        deg_mod = sum(degs[i] for i in orbit) % p
        deg = deg_mod if deg_mod <= half else deg_mod - p
        values = []
        for rc in rational_classes:
            val = sum(rows[i][rc[0]] for i in orbit) % p
            values.append(val if val <= half else val - p)
        chars.append(CharacterEntry(f"chi{n}", len(orbit), deg // len(orbit),
                                    tuple(values)))
    return CharacterTable(name, order, classes, chars).validate()
