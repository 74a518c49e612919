"""Small finite groups: enumeration, conjugacy data, rational character tables.

Groups are given by generators (permutations as tuples, or matrices as
tuples-of-tuples over GF(p) / over Z) and enumerated by closure; this is
meant for groups of order a few thousand at most.  Character tables are
computed by Dixon's method (class-matrix eigenvectors over GF(p) with
p = 1 mod exp(G)) and returned as a validated ``chartab.CharacterTable``
in Galois-orbit-summed (rational) form: all values are integers, one
character per rational class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .chartab import CharacterEntry, CharacterTable, ClassEntry

__all__ = [
    "PermGroup",
    "MatrixGroup",
    "rational_character_table",
]


# -- group containers ----------------------------------------------------------

class PermGroup:
    """Permutation group on range(n); elements are image tuples."""

    def __init__(self, degree: int, generators):
        self.degree = degree
        self.generators = [tuple(g) for g in generators]
        for g in self.generators:
            if sorted(g) != list(range(degree)):
                raise ValueError("generator is not a permutation")

    def identity(self):
        return tuple(range(self.degree))

    def mul(self, a, b):
        # apply b first, then a
        return tuple(a[b[i]] for i in range(self.degree))

    def inv(self, a):
        out = [0] * self.degree
        for i, ai in enumerate(a):
            out[ai] = i
        return tuple(out)


class MatrixGroup:
    """Matrix group with entries in GF(p) (p prime) or exact integers (p=0)."""

    def __init__(self, dim: int, generators, p: int = 0):
        self.dim = dim
        self.p = p
        self.generators = [self._norm(g) for g in generators]

    def _norm(self, m):
        if self.p:
            return tuple(tuple(x % self.p for x in row) for row in m)
        return tuple(tuple(int(x) for x in row) for row in m)

    def identity(self):
        return tuple(tuple(1 if i == j else 0 for j in range(self.dim))
                     for i in range(self.dim))

    def mul(self, a, b):
        n = self.dim
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                s = sum(a[i][k] * b[k][j] for k in range(n))
                row.append(s % self.p if self.p else s)
            out.append(tuple(row))
        return tuple(out)

    def inv(self, a):
        # a^(order-1); fine for the small groups handled here
        ident = self.identity()
        if a == ident:
            return ident
        prev, cur = a, self.mul(a, a)
        while cur != ident:
            prev, cur = cur, self.mul(cur, a)
        return prev


def enumerate_group(g) -> list:
    """All elements by breadth-first closure over the generators."""
    ident = g.identity()
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for s in g.generators:
                y = g.mul(x, s)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
        if len(seen) > 200000:
            raise RuntimeError("group too large for enumeration")
    return sorted(seen)


def element_order(g, x) -> int:
    ident = g.identity()
    acc = x
    n = 1
    while acc != ident:
        acc = g.mul(acc, x)
        n += 1
    return n


@dataclass
class ConjugacyData:
    elements: list
    classes: list        # list of frozensets
    class_of: dict       # element -> class index
    reps: list
    orders: list
    sizes: list


def conjugacy_classes(g) -> ConjugacyData:
    elements = enumerate_group(g)
    inv = {x: g.inv(x) for x in elements}
    class_of: dict = {}
    classes = []
    for x in elements:
        if x in class_of:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                for s in g.generators:
                    z = g.mul(g.mul(s, y), inv[s])
                    if z not in orbit:
                        orbit.add(z)
                        nxt.append(z)
            frontier = nxt
        idx = len(classes)
        classes.append(frozenset(orbit))
        for y in orbit:
            class_of[y] = idx
    reps = [min(c) for c in classes]
    orders = [element_order(g, r) for r in reps]
    sizes = [len(c) for c in classes]
    return ConjugacyData(elements, classes, class_of, reps, orders, sizes)


# -- Dixon's algorithm over GF(p) ----------------------------------------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def _dixon_prime(order: int, exponent: int) -> int:
    p = exponent + 1
    while p < 4 * order + 1 or not _is_prime(p) or p % exponent != 1:
        p += exponent
    return p


def _power_map(g, data: ConjugacyData, k: int) -> list[int]:
    out = []
    for r in data.reps:
        acc = g.identity()
        for _ in range(k % element_order(g, r) if k else 0):
            acc = g.mul(acc, r)
        out.append(data.class_of[acc])
    return out


def _class_matrices(g, data: ConjugacyData) -> list:
    k = len(data.classes)
    inv_reps = {}
    mats = []
    for i in range(k):
        mat = [[0] * k for _ in range(k)]
        for a in data.classes[i]:
            a_inv = g.inv(a)
            for kk, rep in enumerate(data.reps):
                b = g.mul(a_inv, rep)
                mat[data.class_of[b]][kk] += 1
        mats.append(mat)
    return mats


def _charpoly_roots(mat, p):
    """Roots in GF(p) of det(mat - x I): interpolate, then Horner-scan."""
    k = len(mat)
    xs = list(range(k + 1))
    ys = []
    for x in xs:
        a = [row[:] for row in mat]
        for i in range(k):
            a[i][i] = (a[i][i] - x) % p
        ys.append(_det_mod(a, p))
    coeffs = _interpolate_mod(xs, ys, p)
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


def _interpolate_mod(xs, ys, p):
    """Coefficients (ascending) of the unique polynomial through the points."""
    n = len(xs)
    coeffs = [0] * n
    for i in range(n):
        # Lagrange basis polynomial for node i
        num = [1]
        den = 1
        for j in range(n):
            if j == i:
                continue
            num = _polymul_mod(num, [(-xs[j]) % p, 1], p)
            den = den * (xs[i] - xs[j]) % p
        scale = ys[i] * pow(den, p - 2, p) % p
        for d, c in enumerate(num):
            coeffs[d] = (coeffs[d] + scale * c) % p
    return coeffs


def _polymul_mod(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _det_mod(a, p):
    n = len(a)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % p), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        inv = pow(a[col][col], p - 2, p)
        det = det * a[col][col] % p
        for r in range(col + 1, n):
            f = a[r][col] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return det % p


def _nullspace_mod(a, p):
    n_rows = len(a)
    n_cols = len(a[0])
    a = [row[:] for row in a]
    pivots = []
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if a[i][c] % p), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(n_rows):
            if i != r and a[i][c] % p:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n_cols
        v[fc] = 1
        for row_i, pc in enumerate(pivots):
            v[pc] = (-a[row_i][fc]) % p
        basis.append(v)
    return basis


def _split_space(space, mat, p):
    """Refine a subspace (rows spanning it) by eigenspaces of mat."""
    if len(space) <= 1:
        return [space]
    # restrict mat to the subspace: solve for the action in the row basis
    images = [_mat_vec_t(mat, v, p) for v in space]
    # express images over the span: build matrix with rows = space, solve
    coords = _solve_over_rows(space, images, p)
    sub = coords
    out = []
    for lam in _charpoly_roots([row[:] for row in sub], p):
        # left eigenvectors: c . sub = lam c, i.e. (sub^T - lam) c = 0
        shifted = [[(sub[j][i] - (lam if i == j else 0)) % p
                    for j in range(len(sub))] for i in range(len(sub))]
        for v in _nullspace_mod(shifted, p):
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
    k = len(m)
    return [sum(m[j][kk] * v[kk] for kk in range(k)) % p for j in range(k)]


def _solve_over_rows(rows, targets, p):
    """Coordinates of each target in the row span (rows independent)."""
    n = len(rows[0])
    m = len(rows)
    aug = [list(r) + [1 if i == j else 0 for j in range(m)]
           for i, r in enumerate(rows)]
    # row reduce [rows | I] to express pivots
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if aug[i][c] % p), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = pow(aug[r][c], p - 2, p)
        aug[r] = [x * inv % p for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] % p:
                f = aug[i][c]
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    out = []
    for t in targets:
        coeff_on_reduced = [t[c] % p for c in pivots]
        coords = [0] * m
        for i, cval in enumerate(coeff_on_reduced):
            if cval:
                for j in range(m):
                    coords[j] = (coords[j] + cval * aug[i][n + j]) % p
        out.append(coords)
    return out


def rational_character_table(name: str, g,
                             data: ConjugacyData | None = None) -> CharacterTable:
    """The validated rational character table of ``g``, titled ``name``.

    A rational class of element order o is labeled "o-k", k counting the
    classes of order o so far; the n-th row, in the order the eigenspaces
    come out, is named ``chi<n>``.
    """
    if data is None:
        data = conjugacy_classes(g)
    k = len(data.classes)
    order = len(data.elements)
    exponent = 1
    for o in data.orders:
        exponent = exponent * o // gcd(exponent, o)
    p = _dixon_prime(order, exponent)
    mats = _class_matrices(g, data)
    # common eigenvectors of the class matrices
    spaces = [[[1 if i == j else 0 for j in range(k)] for i in range(k)]]
    for mat in mats:
        if all(len(s) == 1 for s in spaces):
            break
        new_spaces = []
        for s in spaces:
            new_spaces.extend(_split_space(s, mat, p))
        spaces = new_spaces
    if not all(len(s) == 1 for s in spaces):
        raise RuntimeError("class matrices did not split the center")
    # normalize each eigenvector to character values mod p
    inv_class = [data.class_of[g.inv(r)] for r in data.reps]
    chars_mod_p = []
    for s in spaces:
        v = s[0]
        # scale so that the identity-class entry is 1 (omega(1) = 1)
        id_idx = data.class_of[g.identity()]
        scale = pow(v[id_idx], p - 2, p)
        v = [x * scale % p for x in v]
        dot = sum(v[i] * v[inv_class[i]] * pow(data.sizes[i], p - 2, p)
                  for i in range(k)) % p
        chi1_sq = order * pow(dot, p - 2, p) % p
        chi1 = _sqrt_lift(chi1_sq, p, isqrt(order))
        row = [v[i] * chi1 % p * pow(data.sizes[i], p - 2, p) % p
               for i in range(k)]
        chars_mod_p.append((chi1, row))
    # Galois orbits via power maps
    pow_maps = {a: _power_map(g, data, a)
                for a in range(1, exponent) if gcd(a, exponent) == 1}
    rows = [row for _, row in chars_mod_p]
    degs = [d for d, _ in chars_mod_p]
    assigned = [False] * k
    orbit_of: list = []
    for i in range(k):
        if assigned[i]:
            continue
        orbit = {i}
        for a, pm in pow_maps.items():
            twisted = tuple(rows[i][pm[j]] for j in range(k))
            for j in range(k):
                if not assigned[j] and tuple(rows[j]) == twisted:
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
            values.append(Fraction(val if val <= half else val - p))
        chars.append(CharacterEntry(f"chi{n}", len(orbit), deg // len(orbit),
                                    tuple(values)))
    return CharacterTable(name, order, classes, chars).validate()


def _sqrt_lift(x_sq: int, p: int, bound: int) -> int:
    """The square root of x_sq mod p that lifts into [1, bound]."""
    for r in range(1, bound + 1):
        if r * r % p == x_sq:
            return r
    raise RuntimeError("no small square root; prime too small?")
