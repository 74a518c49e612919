"""Rational character tables of M23 and M24 from their permutation actions.

The rational classes of both groups are uniquely labeled by cycle type
(on 23 resp. 24 points), so every lambda-ring operation applied to the
permutation character can be evaluated exactly from combinatorial data:
psi^k needs only the cycle type of g^k.  Every irreducible appears in
some tensor power of the faithful permutation character, so iterating
exterior powers and products, and reducing the lattice of integral class
functions under the integer form sum |C_i| f_i g_i (integral LLL and
Fincke-Pohst), recovers the full Galois-orbit-summed table.

The class data (cycle types, centralizer orders) is standard published
group data; it is cross-checked on load: sizes sum to the group order,
each element order is the lcm of its cycle lengths, and power maps
close.  Each class's power map is stored then, once, for the Adams
operations to read.  The milled table is returned as a
``chartab.CharacterTable`` and checked by its one validator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, mul, sub
from types import MappingProxyType

from .chartab import CharacterEntry, CharacterTable, ClassEntry
from .lattice import hermite_normal_form, integer_kernel
from .qpoly import memoized
from .records import Record

__all__ = [
    "GroupClassData", "M23_CLASSES", "M24_CLASSES",
    "class_data", "exterior_powers", "mill_rational_table",
]


class ClassInfo(Record):
    """``cycle_type``: sorted (length, count) pairs; ``centralizer``: the
    centralizer order of a single element; ``merged``: the number of
    complex classes in the rational class."""

    __slots__ = ("label", "order", "cycle_type", "centralizer", "merged",
                 "group_order")

    @property
    def size(self) -> int:
        return self.merged * (self.group_order // self.centralizer)


def _ct(spec: str) -> tuple:
    """Parse '1^8 2^8' into ((1, 8), (2, 8))."""
    out = []
    for part in spec.split():
        if "^" in part:
            a, b = part.split("^")
            out.append((int(a), int(b)))
        else:
            out.append((int(part), 1))
    return tuple(sorted(out))


M23_ORDER = 10200960
M24_ORDER = 244823040

_M23_RAW = [
    ("1A", 1, "1^23", M23_ORDER, 1),
    ("2A", 2, "1^7 2^8", 2688, 1),
    ("3A", 3, "1^5 3^6", 180, 1),
    ("4A", 4, "1^3 2^2 4^4", 32, 1),
    ("5A", 5, "1^3 5^4", 15, 1),
    ("6A", 6, "1 2^2 3^2 6^2", 12, 1),
    ("7AB", 7, "1^2 7^3", 14, 2),
    ("8A", 8, "1 2 4 8^2", 8, 1),
    ("11AB", 11, "1 11^2", 11, 2),
    ("14AB", 14, "2 7 14", 14, 2),
    ("15AB", 15, "3 5 15", 15, 2),
    ("23AB", 23, "23", 23, 2),
]

_M24_RAW = [
    ("1A", 1, "1^24", M24_ORDER, 1),
    ("2A", 2, "1^8 2^8", 21504, 1),
    ("2B", 2, "2^12", 7680, 1),
    ("3A", 3, "1^6 3^6", 1080, 1),
    ("3B", 3, "3^8", 504, 1),
    ("4A", 4, "2^4 4^4", 384, 1),
    ("4B", 4, "1^4 2^2 4^4", 128, 1),
    ("4C", 4, "4^6", 96, 1),
    ("5A", 5, "1^4 5^4", 60, 1),
    ("6A", 6, "1^2 2^2 3^2 6^2", 24, 1),
    ("6B", 6, "6^4", 24, 1),
    ("7AB", 7, "1^3 7^3", 42, 2),
    ("8A", 8, "1^2 2 4 8^2", 16, 1),
    ("10A", 10, "2^2 10^2", 20, 1),
    ("11A", 11, "1^2 11^2", 11, 1),
    ("12A", 12, "2 4 6 12", 12, 1),
    ("12B", 12, "12^2", 12, 1),
    ("14AB", 14, "1 2 7 14", 14, 2),
    ("15AB", 15, "1 3 5 15", 15, 2),
    ("21AB", 21, "3 21", 21, 2),
    ("23AB", 23, "1 23", 23, 2),
]


class GroupClassData(Record):
    """``classes``: a tuple of ClassInfo; ``type_index``: a read-only map
    from cycle type to class position; ``power_maps``: per class, of g of
    order o, the classes of g^0, ..., g^(o-1)."""

    __slots__ = ("name", "order", "classes", "type_index", "power_maps")

    @property
    def permutation_character(self) -> tuple:
        """Fixed points of each class on the 23 resp. 24 points."""
        return tuple(dict(c.cycle_type).get(1, 0) for c in self.classes)

    def power_class(self, idx: int, k: int) -> int:
        """Rational class of g^k given the class of g."""
        powers = self.power_maps[idx]
        return powers[k % len(powers)]


def _power_type(cycle_type: tuple, k: int) -> tuple:
    """The cycle type of g^k: a cycle of length l splits into gcd(l, k)
    cycles of length l / gcd(l, k)."""
    powered: dict = {}
    for length, count in cycle_type:
        d = gcd(length, k)
        powered[length // d] = powered.get(length // d, 0) + count * d
    return tuple(sorted(powered.items()))


@memoized
def class_data(name: str) -> GroupClassData:
    """The checked class data of M23 or M24.

    Memoized per process on the group name; the result is immutable.
    """
    raw, order = {"M23": (_M23_RAW, M23_ORDER), "M24": (_M24_RAW, M24_ORDER)}[name]
    classes = []
    total = 0
    for label, elt_order, spec, cent, merged in raw:
        ct = _ct(spec)
        n_points = sum(length * count for length, count in ct)
        if n_points != (23 if name == "M23" else 24):
            raise ValueError(f"{name} {label}: cycle type covers {n_points}")
        if elt_order != lcm(*(length for length, _ in ct)):
            raise ValueError(f"{name} {label}: order {elt_order} is not "
                             f"the lcm of the cycle lengths")
        info = ClassInfo(label, elt_order, ct, cent, merged, order)
        classes.append(info)
        total += info.size
    if total != order:
        raise ValueError(f"{name}: class sizes sum to {total}, not {order}")
    type_index = {}
    for i, c in enumerate(classes):
        if c.cycle_type in type_index:
            raise ValueError(f"{name}: duplicate cycle type {c.cycle_type}")
        type_index[c.cycle_type] = i
    # power maps must close: a power type missing from the list raises
    power_maps = tuple(tuple(type_index[_power_type(c.cycle_type, k)]
                             for k in range(c.order)) for c in classes)
    return GroupClassData(name, order, tuple(classes),
                          MappingProxyType(type_index), power_maps)


# -- the mill --------------------------------------------------------------------
#
# Class functions are integer tuples over the rational classes, paired by
# the integer form <f, g> = sum |C_i| f_i g_i, which is |G| times the
# character inner product.  An orbit-sum row of norm n has <chi, chi> = n|G|.

_ROUNDS = 8


def _form(w, f, g) -> int:
    return sum(map(mul, map(mul, w, f), g))


def _adams(data: GroupClassData, f, k: int):
    return tuple(f[data.power_class(i, k)] for i in range(len(f)))


def exterior_powers(data: GroupClassData, f, kmax: int):
    """lambda^0..lambda^kmax of a character via Newton's identities."""
    lams = [tuple([1] * len(f))]
    psis = [None] + [_adams(data, f, k) for k in range(1, kmax + 1)]
    for k in range(1, kmax + 1):
        # k lambda^k = sum_j (-1)^(j-1) psi^j lambda^(k-j), class by class
        acc = [0] * len(f)
        for j in range(1, k + 1):
            acc = list(map(add if j % 2 else sub, acc,
                           map(mul, psis[j], lams[k - j])))
        if any(x % k for x in acc):
            raise ArithmeticError("exterior power is not integral")
        lams.append(tuple([x // k for x in acc]))
    return lams


def _mul(f, g):
    return tuple(a * b for a, b in zip(f, g))


def _lll(w, rows):
    """Integral LLL reduction (delta = 3/4) of independent integer rows
    under the form sum w_i x_i y_i with positive integer weights w.

    Cohen, *A Course in Computational Algebraic Number Theory*, Alg. 2.6.7:
    the Gram-Schmidt data is kept as integers and updated incrementally.
    Returns (basis, d, lam), 1-indexed as in Cohen: d[i] is the Gram
    determinant of basis[:i] (d[0] = 1) and lam[k][j] = d[j] * mu_kj.
    """
    n = len(rows)
    b = [None] + [tuple(r) for r in rows]
    d = [1] + [0] * n
    lam = [[0] * (n + 1) for _ in range(n + 1)]

    def redi(k, l):
        if 2 * abs(lam[k][l]) > d[l]:
            q = (2 * lam[k][l] + d[l]) // (2 * d[l])
            b[k] = tuple(x - q * y for x, y in zip(b[k], b[l]))
            lam[k][l] -= q * d[l]
            for i in range(1, l):
                lam[k][i] -= q * lam[l][i]

    def swapi(k, kmax):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(1, k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        m = lam[k][k - 1]
        big = (d[k - 2] * d[k] + m * m) // d[k - 1]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k] * lam[i][k - 1] - m * t) // d[k - 1]
            lam[i][k - 1] = (big * t + m * lam[i][k]) // d[k]
        d[k - 1] = big

    k, kmax = 1, 0
    while k <= n:
        if k > kmax:                   # incremental Gram-Schmidt of b[k]
            kmax = k
            for j in range(1, k + 1):
                u = _form(w, b[k], b[j])
                for i in range(1, j):
                    u = (d[i] * u - lam[k][i] * lam[j][i]) // d[i - 1]
                if j < k:
                    lam[k][j] = u
                elif u == 0:
                    raise ValueError("LLL rows are linearly dependent")
                else:
                    d[k] = u
        if k == 1:
            k = 2
            continue
        redi(k, k - 1)
        if 4 * d[k] * d[k - 2] < 3 * d[k - 1] ** 2 - 4 * lam[k][k - 1] ** 2:
            swapi(k, kmax)
            k = max(2, k - 1)
        else:
            for l in range(k - 2, 0, -1):
                redi(k, l)
            k += 1
    return b[1:], d, lam


def _short_vectors(w, rows, bound: int):
    """Every nonzero v in the span of the independent integer ``rows``
    with sum w_i v_i^2 <= bound, one of each pair +-v.

    Fincke-Pohst enumeration (Math. Comp. 44, 1985) over the integral LLL
    data.  The level-i Gram-Schmidt term is (d_i x_i + c)^2 / (d_i d_{i-1})
    with c an integer, so one isqrt gives the exact range of x_i; the first
    nonzero coordinate from the top is taken positive.
    """
    basis, d, lam = _lll(w, rows)
    n = len(basis)
    x = [0] * (n + 1)
    out = []

    def rec(i, rem, top):
        if i == 0:
            if not top:
                out.append(tuple(sum(x[j] * basis[j - 1][c]
                                     for j in range(1, n + 1))
                                 for c in range(len(w))))
            return
        c = sum(lam[j][i] * x[j] for j in range(i + 1, n + 1))
        scaled = rem * d[i] * d[i - 1]
        s = isqrt(scaled.numerator // scaled.denominator)
        lo = 0 if top else -((s + c) // d[i])
        for xi in range(lo, (s - c) // d[i] + 1):
            x[i] = xi
            t = d[i] * xi + c
            rec(i - 1, rem - Fraction(t * t, d[i] * d[i - 1]), top and not xi)
        x[i] = 0

    rec(n, Fraction(bound), True)
    return out


def mill_rational_table(name: str) -> CharacterTable:
    """All Galois-orbit-summed irreducible characters of M23 or M24.

    Returns the validated ``CharacterTable`` with rows sorted by
    constituent degree: orbit size 1 marks a rational irreducible, named
    ``chi<pos>``, and orbit size 2 a summed conjugate pair, named
    ``chi<pos>_<pos+1>``, where pos counts the complex irreducibles.

    One loop, at most ``_ROUNDS`` rounds.  Each round reduces the pool
    (exterior powers of the permutation character, then products, Adams
    twists and symmetric/exterior squares of the rows found) against the
    rows found, sweeps the norm <= 2 vectors of the lattice the residues
    span through one acceptance predicate, norm 1 before norm 2, and
    enriches the pool.  After a sweep that adds nothing while the
    residues already span the orthogonal complement of the found rows,
    the next sweep runs on the complement's integer points instead.  The
    table is checked once, by ``CharacterTable.validate``.
    """
    data = class_data(name)
    w = tuple(c.size for c in data.classes)
    k = len(w)
    perm = data.permutation_character
    found: list = [tuple([1] * k)]
    norms: list = [1]

    def reduce_vec(f):
        for chi, n in zip(found, norms):
            m, r = divmod(_form(w, f, chi), n * data.order)
            if r:
                raise ArithmeticError("non-integral multiplicity in the mill")
            if m:
                f = tuple(a - m * b for a, b in zip(f, chi))
        return f

    def admissible(v, norm):
        """``v`` with positive degree if it passes every test a Galois-orbit
        sum of ``norm`` complex irreducibles passes, else None.

        Such a row has <v, v> = norm|G|, positive degree (even for a
        pair), is orthogonal to the rows found, pairs with every rational
        character of the pool to a multiple of norm|G| (conjugates occur
        equally often) and has v(g)^2 = v(g^2) mod 2 (the difference is
        2 Lambda^2 v).
        """
        if v[0] < 0:
            v = tuple(-a for a in v)
        if (_form(w, v, v) != norm * data.order or v[0] == 0 or v[0] % norm
                or any(_form(w, v, chi) for chi in found)
                or any((a * a - b) % 2 for a, b in zip(v, _adams(data, v, 2)))
                or any(_form(w, f, v) % (norm * data.order) for f in pool)):
            return None
        return v

    pool = dict.fromkeys(exterior_powers(data, perm, 12)[1:])
    on_complement = False
    for _ in range(_ROUNDS):
        if on_complement:
            basis = integer_kernel([[s * chi[i] for chi in found]
                                    for i, s in enumerate(w)])
        else:
            basis = hermite_normal_form(
                [r for r in map(reduce_vec, pool) if any(r)])
        short = _short_vectors(w, basis, 2 * data.order)
        n_found = len(found)
        for norm in (1, 2):
            for v in short:
                v = admissible(v, norm)
                if v:
                    found.append(v)
                    norms.append(norm)
        if len(found) == k:
            break
        on_complement = len(found) == n_found and len(basis) == k - n_found
        for i, a in enumerate(found):
            for b in found[i:]:
                pool[_mul(a, b)] = None
            pool[_mul(a, perm)] = None
            sq, psi2 = _mul(a, a), _adams(data, a, 2)     # Lambda^2, S^2
            pool[tuple((x - y) // 2 for x, y in zip(sq, psi2))] = None
            pool[tuple((x + y) // 2 for x, y in zip(sq, psi2))] = None
            for kk in (3, 5, 7):
                pool[_adams(data, a, kk)] = None
    else:
        raise RuntimeError(f"mill did not complete the {name} table")
    rows = sorted(zip(found, norms),
                  key=lambda fn: (fn[0][0] // fn[1], fn[1], fn[0]))
    classes = [ClassEntry(c.label, c.order, c.size, c.merged)
               for c in data.classes]
    chars = []
    pos = 1
    for values, norm in rows:
        row_name = "chi" + "_".join(str(pos + j) for j in range(norm))
        chars.append(CharacterEntry(row_name, norm, values[0] // norm, values))
        pos += norm
    return CharacterTable(name, data.order, classes, chars).validate()
