"""Small finite groups: enumeration, conjugacy data, rational character tables.

Groups are given by generators (permutations as tuples, or matrices as
tuples-of-tuples over GF(p) / over Z); this is meant for groups of order a
few thousand at most.  A matrix group acts through its permutations of the
finite orbit of the standard basis vectors, which span the space, so the
action is faithful.  One breadth-first closure over the generators'
permutation images (composed with ``operator.itemgetter``) numbers the
elements and records, per generator, the index of x s for every element
x; the walk's spanning tree then gives the index of r x for any r by list
lookups alone.  Conjugation, class orbits, element orders and class
matrices all run on these index tables.  Elements are still enumerated,
sorted and given class representatives in their own representation.

Character tables are computed by Dixon's method (common eigenvectors of the
class matrices over GF(p) with p = 1 mod exp(G)).  A class matrix is built
only when the splitting reaches it.  A class matrix that acts on a space
as one scalar leaves it whole; otherwise the eigenvalues are the roots of
the characteristic polynomial: in closed form for degree at most 2 (an
Euler-criterion test of the discriminant, then a Tonelli-Shanks square
root), else as gcd(f, x^p - x), split by gcds with (x + a)^((p-1)/2) - 1
(Cantor-Zassenhaus) down to factors of degree at most 2.  The result is a
validated ``chartab.CharacterTable`` in Galois-orbit-summed (rational)
form: all values are integers, stored as ``int`` (the series rule), one
character per rational class.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm
from itertools import compress, repeat
from operator import is_, itemgetter, mul as _mul

from .chartab import CharacterEntry, CharacterTable, ClassEntry
from .lattice import IntegerLattice, nullspace_mod
from .qpoly import euler_phi

__all__ = [
    "PermGroup",
    "MatrixGroup",
    "rational_character_table",
]

_MAX_ORDER = 200000


# -- group containers ----------------------------------------------------------
#
# Each container exposes its permutation action to the algorithms below:
# ``perm_generators``, ``as_perm`` (element -> image tuple) and ``from_perm``
# (image tuple -> element).  Image tuples compose as ``mul`` does: apply the
# right factor first, so x s is ``_right_mul(s)(x)``.

class PermGroup:
    """Permutation group on range(n); elements are image tuples."""

    def __init__(self, degree: int, generators):
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
        return _right_mul(b)(a)

    def as_perm(self, x):
        return x

    def from_perm(self, perm):
        return perm


class MatrixGroup:
    """Matrix group with entries in GF(p) (p prime) or exact integers (p=0).

    The group acts on the orbit of the standard basis vectors by v -> m v.
    A generator that does not permute that orbit is singular and raises
    ``ValueError``, and so does, before the orbit is walked, an integer
    generator whose determinant is not +-1 (its rows span less than Z^dim),
    which lies in no finite group.  An integer generator of infinite order
    raises ``RuntimeError`` before the walk too: its powers miss the
    identity up to ``_max_finite_order(dim)``.  An orbit past the
    enumeration limit raises ``RuntimeError``.
    """

    def __init__(self, dim: int, generators, p: int = 0):
        self.dim = dim
        self.p = p
        self.generators = [self._norm(g) for g in generators]
        if not p:
            if any(IntegerLattice(dim, m) != IntegerLattice.full(dim)
                   for m in self.generators):
                raise ValueError(
                    "integer generator of determinant other than +-1")
            bound = _max_finite_order(dim)
            if any(not self._has_order_at_most(m, bound)
                   for m in self.generators):
                raise RuntimeError(
                    "integer generator of infinite order: group too large "
                    "for enumeration")
        orbit = list(self.identity())       # e_j is row j of the identity
        index = {v: j for j, v in enumerate(orbit)}
        images = [[] for _ in self.generators]
        for v in orbit:                     # the orbit grows as it is walked
            for m, img in zip(self.generators, images):
                w = self._apply(m, v)
                if w not in index:
                    if len(orbit) >= _MAX_ORDER:
                        raise RuntimeError("group too large for enumeration")
                    index[w] = len(orbit)
                    orbit.append(w)
                img.append(index[w])
        self.perm_generators = [tuple(img) for img in images]
        if any(len(set(s)) != len(s) for s in self.perm_generators):
            raise ValueError("generator is not invertible")
        self._orbit = orbit
        self._index = index

    def _has_order_at_most(self, m, bound: int) -> bool:
        ident = self.identity()
        power = m
        for _ in range(bound):
            if power == ident:
                return True
            power = self.mul(power, m)
        return False

    def _norm(self, m):
        if self.p:
            return tuple(tuple(x % self.p for x in row) for row in m)
        return tuple(tuple(int(x) for x in row) for row in m)

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


def _max_finite_order(n: int) -> int:
    """The largest order of a finite-order element of GL_n(Z) is at most
    the largest lcm of a set of m >= 2 with sum phi(m) <= n.

    Such an element is diagonalizable with roots of unity as eigenvalues,
    so its minimal polynomial is a product of distinct cyclotomic
    polynomials Phi_m, of total degree at most n, and its order is the
    lcm of the m.  A 0/1 knapsack over the m (phi(m) >= sqrt(m / 2), so
    m <= 2 n^2) keeps every reachable lcm per degree.
    """
    reach = [{1} for _ in range(n + 1)]     # reach[b]: lcms of degree <= b
    for m in range(2, 2 * n * n + 1):
        deg = euler_phi(m)
        for b in range(n, deg - 1, -1):
            reach[b] |= {lcm(x, m) for x in reach[b - deg]}
    return max(reach[n])


def _right_mul(s):
    """The map x -> x s on image tuples, as one C-level call."""
    if len(s) > 1:
        return itemgetter(*s)
    # one index makes itemgetter return a bare item; s is the identity here
    return tuple


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
    """

    __slots__ = ("perms", "right", "tree")

    def __init__(self, g):
        ident = g.as_perm(g.identity())
        perms = [ident]
        index = {ident: 0}
        gens = [_right_mul(s) for s in g.perm_generators]
        right = [[] for _ in gens]
        tree = []
        lo = 0
        while lo < len(perms):              # one level [lo, hi) per pass
            hi = len(perms)
            level = perms[lo:hi]
            for s, (times_s, row) in enumerate(zip(gens, right)):
                images = list(map(times_s, level))
                found = list(map(index.get, images))
                parents = []
                unseen = map(is_, found, repeat(None))
                for t in compress(range(hi - lo), unseen):
                    y = images[t]
                    j = index.get(y)        # reached earlier in this block?
                    if j is None:
                        j = index[y] = len(perms)
                        if j >= _MAX_ORDER:
                            raise RuntimeError(
                                "group too large for enumeration")
                        perms.append(y)
                        parents.append(lo + t)
                    found[t] = j
                row += found
                if parents:
                    tree.append((s, parents))
            lo = hi
        self.perms = perms
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

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def _dixon_prime(order: int, exponent: int) -> int:
    # 1 % exponent, not 1: every p is 0 mod 1, so the trivial group needs it
    p = exponent + 1
    while (p < 4 * order + 1 or not _is_prime(p)
           or p % exponent != 1 % exponent):
        p += exponent
    return p


def _class_matrices(data: ConjugacyData, inv_class: list):
    """Class matrices in class order, each built when it is asked for.

    Entry [l][j] of matrix i counts the a in class i with a^-1 r_j in class
    l; the inverses a^-1 are the elements of the inverse class, and a r_j
    is conjugate to r_j a, which the left table of r_j looks up.
    """
    k = len(data.members)
    class_at = data.class_at
    for i in range(k):
        mat = [[0] * k for _ in range(k)]
        members = data.members[inv_class[i]]
        for j, left in enumerate(data.rep_left):
            for a in members:
                mat[class_at[left[a]]][j] += 1
        yield mat


def _charpoly_roots(mat, p):
    """Sorted distinct roots in GF(p) of det(x I - mat)."""
    return _roots_mod(_charpoly_mod(mat, p), p)


def _charpoly_mod(mat, p):
    """det(x I - mat) over GF(p), ascending coefficients: reduce to upper
    Hessenberg form by similarity, then expand along the subdiagonal
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.2.9)."""
    n = len(mat)
    h = [[x % p for x in row] for row in mat]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        inv = pow(h[m][m - 1], p - 2, p)
        for i in range(m + 1, n):
            u = h[i][m - 1] * inv % p
            if u:
                # row_i -= u row_m, then column_m += u column_i
                h[i] = [(x - u * y) % p for x, y in zip(h[i], h[m])]
                for row in h:
                    row[m] = (row[m] + u * row[i]) % p
    # polys[m] = characteristic polynomial of the leading m x m block
    polys = [[1]]
    for m in range(n):
        prev = polys[m]
        new = [0] + prev
        for d, c in enumerate(prev):
            new[d] = (new[d] - h[m][m] * c) % p
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] % p
            c = h[i][m] * t % p
            if c:
                for d, q in enumerate(polys[i]):
                    new[d] = (new[d] - c * q) % p
        polys.append(new)
    return polys[n]


# -- polynomials over GF(p): ascending coefficients, no trailing zeros ------

def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _monic(a, p):
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _poly_divmod(a, m, p):
    """Quotient and remainder of a by the monic m."""
    r = list(a)
    d = len(m) - 1
    q = [0] * max(len(r) - d, 0)
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i]
        if c:
            q[i - d] = c
            for j in range(d + 1):
                r[i - d + j] = (r[i - d + j] - c * m[j]) % p
    return q, _trim(r[:d])


def _poly_mulmod(a, b, m, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly_divmod([c % p for c in out], m, p)[1]


def _linear_powmod(a, e, m, p):
    """(x + a)^e modulo the monic m, by left-to-right squaring."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _poly_mulmod(out, out, m, p)
        if bit == "1" and out:
            shifted = [0] + out
            for i, c in enumerate(out):
                shifted[i] = (shifted[i] + a * c) % p
            out = _poly_divmod(shifted, m, p)[1]
    return out


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return _trim([(x - y) % p for x, y in zip(a, b)])


def _poly_gcd(a, b, p):
    """Monic gcd of a and b."""
    while b:
        b = _monic(b, p)
        a, b = b, _poly_divmod(a, b, p)[1]
    return _monic(a, p) if a else a


def _roots_mod(f, p):
    """Sorted distinct roots in GF(p), p an odd prime, of the nonzero f.

    An f of degree at most 2 is solved in closed form (``_small_roots``).
    Otherwise g = gcd(f, x^p - x) is the product of the distinct linear
    factors of f; gcd(h, (x + a)^((p-1)/2) - 1) splits a factor h by
    whether r + a is a nonzero square at each root r, for a = 0, 1, ...
    until it splits (Cantor and Zassenhaus, Math. Comp. 36, 1981), and a
    factor of degree 2 is solved in closed form.
    """
    f = _monic(_trim([c % p for c in f]), p)
    if len(f) <= 3:
        return _small_roots(f, p)
    x = [0, 1]
    todo = [_poly_gcd(f, _poly_sub(_linear_powmod(0, p, f, p), x, p), p)]
    roots = []
    a = 0
    while todo:
        h = todo.pop()
        if len(h) <= 3:
            roots += _small_roots(h, p)
        else:
            w = _poly_sub(_linear_powmod(a, (p - 1) // 2, h, p), [1], p)
            s = _poly_gcd(h, w, p)
            a += 1
            if 1 < len(s) < len(h):
                todo += [s, _poly_divmod(h, s, p)[0]]
            else:
                todo.append(h)
    return sorted(roots)


def _small_roots(f, p):
    """Distinct roots of the monic f of degree at most 2, p an odd prime.

    x + c has the root -c.  x^2 + b x + c has the roots (-b +- r) / 2 with
    r^2 = b^2 - 4c: one root when the discriminant is 0, none when it is a
    non-square (Euler's criterion), two otherwise.
    """
    if len(f) < 3:
        return [-f[0] % p] if len(f) == 2 else []
    c, b = f[0], f[1]
    disc = (b * b - 4 * c) % p
    half = (p + 1) // 2                     # 1/2 mod p
    if not disc:
        return [-b * half % p]
    if pow(disc, (p - 1) // 2, p) != 1:
        return []
    r = _sqrt_mod(disc, p)
    return sorted({(-b + r) * half % p, (-b - r) * half % p})


def _sqrt_mod(a, p):
    """A square root of the nonzero square a mod the odd prime p.

    Tonelli-Shanks: with p - 1 = q 2^e, q odd, and z a non-square, start
    from r = a^((q+1)/2) and t = a^q, so r^2 = a t; each step multiplies r
    by a power of z^q that lowers the 2-power order of t, until t = 1
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 1.5.1).
    """
    q, e = p - 1, 0
    while not q & 1:
        q >>= 1
        e += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    t = pow(a, q, p)
    r = pow(a, (q + 1) // 2, p)
    while t != 1:
        # the least i with t^(2^i) = 1; then c^(2^(e-i-1)) fixes r
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (e - i - 1), p)
        e, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _split_space(space, mat, p):
    """Refine a subspace (rows spanning it) by eigenspaces of mat."""
    if len(space) <= 1:
        return [space]
    # restrict mat to the subspace: the coordinates of each image over the
    # rows, read off the null space of the columns [space | images]; the
    # rows are independent and span an invariant subspace, so the free
    # columns are exactly the m image columns
    m = len(space)
    images = [_mat_vec_t(mat, v, p) for v in space]
    j = next(j for j, x in enumerate(space[0]) if x)
    lam = images[0][j] * pow(space[0][j], p - 2, p) % p
    if all(w == [lam * x % p for x in v] for v, w in zip(space, images)):
        return [space]                  # mat is the scalar lam here
    sub = [[-x % p for x in v[:m]]
           for v in nullspace_mod([list(c) for c in zip(*space, *images)], p)]
    out = []
    for lam in _charpoly_roots(sub, p):
        # left eigenvectors: c . sub = lam c, i.e. (sub^T - lam) c = 0
        shifted = [[(sub[j][i] - (lam if i == j else 0)) % p
                    for j in range(len(sub))] for i in range(len(sub))]
        for v in nullspace_mod(shifted, p):
            w = [0] * len(space[0])
            for c, row in zip(v, space):
                if c:
                    w = [(wi + c * ri) % p for wi, ri in zip(w, row)]
            out.append((lam, w))
    groups: dict = {}
    for lam, w in out:
        groups.setdefault(lam, []).append(w)
    return list(groups.values())


def _mat_vec_t(m, v, p):
    # v is a row vector of omega-values; class matrices act as (M v)_j
    return [sum(map(_mul, row, v)) % p for row in m]


def rational_character_table(name: str, g,
                             data: ConjugacyData | None = None) -> CharacterTable:
    """The validated rational character table of ``g``, titled ``name``.

    A rational class of element order o is labeled "o-k", k counting the
    classes of order o so far; the n-th row, in the order the eigenspaces
    come out, is named ``chi<n>``.
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
    # common eigenvectors of the class matrices
    mats = _class_matrices(data, inv_class)
    spaces = [[[1 if i == j else 0 for j in range(k)] for i in range(k)]]
    while any(len(s) > 1 for s in spaces):
        mat = next(mats, None)
        if mat is None:
            raise RuntimeError("class matrices did not split the center")
        spaces = [part for s in spaces for part in _split_space(s, mat, p)]
    # normalize each eigenvector to character values mod p
    inv_sizes = [pow(size, p - 2, p) for size in data.sizes]
    id_idx = data.class_at[0]               # index 0 is the identity
    chars_mod_p = []
    for s in spaces:
        v = s[0]
        # scale so that the identity-class entry is 1 (omega(1) = 1)
        scale = pow(v[id_idx], p - 2, p)
        v = [x * scale % p for x in v]
        dot = sum(v[i] * v[inv_class[i]] * inv_sizes[i]
                  for i in range(k)) % p
        chi1_sq = order * pow(dot, p - 2, p) % p
        chi1 = _sqrt_lift(chi1_sq, p, isqrt(order))
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


def _sqrt_lift(x_sq: int, p: int, bound: int) -> int:
    """The square root of x_sq mod p that lifts into [1, bound]."""
    for r in range(1, bound + 1):
        if r * r % p == x_sq:
            return r
    raise RuntimeError("no small square root; prime too small?")
