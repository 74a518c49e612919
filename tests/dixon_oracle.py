"""Reference conjugacy data, class matrices and eigenvalue scan for the
Dixon tables.

The route ``groups`` used before it moved the group arithmetic onto
permutation images: every product goes through the group's ``mul`` method
in its own representation, an inverse is the last power before the
identity, and the eigenvalues of a class matrix are found by evaluating
det(M - x I) at k + 1 points, interpolating, and Horner-scanning every x
in GF(p).  The class matrices are built as ``groups`` built them before
it moved onto index tables: from products of permutation images.  The
tests compare the index-table route with both, reading the classes as
sets of elements through ``class_sets``.
"""

from operator import itemgetter

from k3moonshine.groups import _Cayley


def class_sets(g, data) -> tuple:
    """The classes of ``data`` as frozensets of elements, the map from
    element to class index, and the class representatives, rebuilt on the
    elements of the group's closure (``data`` keeps indices into it)."""
    elems = [g.from_perm(x) for x in _Cayley(g).perms]
    classes = [frozenset(elems[x] for x in m) for m in data.members]
    class_of = {elems[x]: c for x, c in enumerate(data.class_at)}
    reps = [elems[left[0]] for left in data.rep_left]    # r times identity
    return classes, class_of, reps


def inverse_by_powers(g, a):
    """a^(o-1) for a of order o, by repeated ``g.mul``."""
    ident = g.identity()
    if a == ident:
        return ident
    prev, cur = a, g.mul(a, a)
    while cur != ident:
        prev, cur = cur, g.mul(cur, a)
    return prev


def enumerate_by_mul(g) -> list:
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
    return sorted(seen)


def order_by_mul(g, x) -> int:
    ident = g.identity()
    acc = x
    n = 1
    while acc != ident:
        acc = g.mul(acc, x)
        n += 1
    return n


def conjugacy_by_mul(g) -> dict:
    """Elements, classes, reps, orders and sizes, classes in the order of
    their least elements."""
    elements = enumerate_by_mul(g)
    inv = {s: inverse_by_powers(g, s) for s in g.generators}
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
        for y in orbit:
            class_of[y] = len(classes)
        classes.append(frozenset(orbit))
    reps = [min(c) for c in classes]
    return {"elements": elements, "classes": classes, "class_of": class_of,
            "reps": reps, "orders": [order_by_mul(g, r) for r in reps],
            "sizes": [len(c) for c in classes]}


def roots_by_scan(coeffs, p) -> list:
    """Every x in GF(p) at which the polynomial (ascending) vanishes."""
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


def charpoly_roots_by_scan(mat, p) -> list:
    """Roots in GF(p) of det(mat - x I): interpolate, then Horner-scan."""
    k = len(mat)
    xs = list(range(k + 1))
    ys = []
    for x in xs:
        a = [row[:] for row in mat]
        for i in range(k):
            a[i][i] = (a[i][i] - x) % p
        ys.append(_det_mod(a, p))
    return roots_by_scan(_interpolate_mod(xs, ys, p), p)


def _interpolate_mod(xs, ys, p):
    """Coefficients (ascending) of the unique polynomial through the points."""
    n = len(xs)
    coeffs = [0] * n
    for i in range(n):
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


def class_matrices_by_products(g, data) -> list:
    """Every class matrix, in class order, from products of the
    permutation images ``g.as_perm`` gives the elements of ``data``.

    Entry [l][j] of matrix i counts the a in class i with a^-1 r_j in class
    l; the inverses a^-1 are the elements of the inverse class.
    """
    def times(s):                           # x -> x s on image tuples
        return itemgetter(*s) if len(s) > 1 else tuple

    classes, class_of, reps = class_sets(g, data)
    perm_of = {x: g.as_perm(x) for x in data.elements}
    perm_class = {perm_of[x]: i for x, i in class_of.items()}
    inv_class = []
    for r in reps:
        pr = perm_of[r]
        inv = tuple(sorted(range(len(pr)), key=pr.__getitem__))
        inv_class.append(perm_class[inv])
    k = len(classes)
    times_reps = [times(perm_of[r]) for r in reps]
    mats = []
    for i in range(k):
        mat = [[0] * k for _ in range(k)]
        for a in classes[inv_class[i]]:
            a = perm_of[a]
            for j, times_r in enumerate(times_reps):
                mat[perm_class[times_r(a)]][j] += 1
        mats.append(mat)
    return mats
