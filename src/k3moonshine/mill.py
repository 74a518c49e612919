"""Rational character tables of M23 and M24 from their permutation actions.

The rational classes of both groups are uniquely labeled by cycle type
(on 23 resp. 24 points), so every lambda-ring operation applied to the
permutation character can be evaluated exactly from combinatorial data:
psi^k needs only the cycle type of g^k.  Every irreducible appears in
some tensor power of the faithful permutation character, so iterating
exterior powers, products, and exact Gram reduction over the rational
class functions recovers the full Galois-orbit-summed table.

The class data (cycle types, centralizer orders) is standard published
group data; it is cross-checked on load: sizes sum to the group order,
power maps close, and the milled table passes both orthogonality
relations and the degree sum.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from types import MappingProxyType

__all__ = [
    "GroupClassData", "M23_CLASSES", "M24_CLASSES",
    "class_data", "mill_rational_table",
]


@dataclass(frozen=True)
class ClassInfo:
    label: str
    order: int
    cycle_type: tuple      # sorted (length, count) pairs
    centralizer: int       # centralizer order of a single element
    merged: int            # number of complex classes in the rational class

    @property
    def size(self) -> int:
        return self.merged * (self.group_order // self.centralizer)

    group_order: int = 0


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


@dataclass(frozen=True)
class GroupClassData:
    name: str
    order: int
    classes: tuple         # tuple of ClassInfo
    type_index: Mapping    # read-only: cycle type -> class position

    def power_class(self, idx: int, k: int) -> int:
        """Rational class of g^k given the class of g (from cycle types)."""
        powered: dict = {}
        for length, count in self.classes[idx].cycle_type:
            d = gcd(length, k)
            powered[length // d] = powered.get(length // d, 0) + count * d
        key = tuple(sorted(powered.items()))
        return self.type_index[key]


@lru_cache(maxsize=None)
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
    data = GroupClassData(name, order, tuple(classes),
                          MappingProxyType(type_index))
    for i in range(len(classes)):          # power maps must close
        for k in range(2, classes[i].order):
            data.power_class(i, k)
    return data


# -- the mill --------------------------------------------------------------------

def _inner(data: GroupClassData, f, g) -> Fraction:
    acc = 0
    for c, a, b in zip(data.classes, f, g):
        acc += c.size * a * b
    return Fraction(acc, data.order)


def _adams(data: GroupClassData, f, k: int):
    return tuple(f[data.power_class(i, k)] for i in range(len(f)))


def _exterior_powers(data: GroupClassData, f, kmax: int):
    """lambda^0..lambda^kmax of a character via Newton's identities."""
    lams = [tuple([1] * len(f))]
    psis = [None] + [_adams(data, f, k) for k in range(1, kmax + 1)]
    for k in range(1, kmax + 1):
        acc = [Fraction(0)] * len(f)
        for j in range(1, k + 1):
            sign = 1 if j % 2 else -1
            pj = psis[j]
            lkj = lams[k - j]
            for i in range(len(f)):
                acc[i] += sign * pj[i] * lkj[i]
        vals = []
        for x in acc:
            q = x / k
            if q.denominator != 1:
                raise ArithmeticError("exterior power is not integral")
            vals.append(q.numerator)
        lams.append(tuple(vals))
    return lams


def _mul(f, g):
    return tuple(a * b for a, b in zip(f, g))


def mill_rational_table(name: str):
    """All Galois-orbit-summed irreducible characters of M23 or M24.

    Returns (data, rows) with rows a list of (values, norm) sorted by
    constituent degree; norm 1 marks a rational irreducible, norm 2 a
    summed conjugate pair.  Norm-1 remainders are exhausted before any
    norm-2 candidate is accepted, and a norm-2 candidate must pair
    evenly with the whole pool (true orbit sums do; accidental sums of
    two rational irreducibles generally do not).  The final table is
    validated by orthogonality and the degree relation.
    """
    data = class_data(name)
    k = len(data.classes)
    perm = tuple(dict(c.cycle_type).get(1, 0) for c in data.classes)
    found: list = [tuple([1] * k)]
    norms: list = [Fraction(1)]

    def reduce_vec(f):
        f = list(Fraction(x) for x in f)
        for chi, n in zip(found, norms):
            m = _inner(data, f, chi) / n
            if m.denominator != 1:
                raise ArithmeticError("non-integral multiplicity in the mill")
            if m:
                f = [a - m * b for a, b in zip(f, chi)]
        return tuple(f)

    def accept(r, nrm):
        found.append(tuple(int(x) for x in r))
        norms.append(Fraction(nrm))

    # the pool: exterior powers 1..12 of the permutation character;
    # at most 8 rounds of absorbing remainders
    pool = list(_exterior_powers(data, perm, 12)[1:])
    for _ in range(8):
        if _complete(data, found, norms):
            break
        # phase 1: absorb every norm-1 remainder reachable from the pool
        progress = True
        while progress:
            progress = False
            for f in pool:
                r = reduce_vec(f)
                if any(r) and _inner(data, r, r) == 1:
                    if r[0] < 0:
                        r = tuple(-x for x in r)
                    accept(r, 1)
                    progress = True
        if _complete(data, found, norms):
            break
        # phase 2: norm-2 remainders that pair evenly with the whole pool
        candidates = []
        for f in pool:
            r = reduce_vec(f)
            if any(r) and _inner(data, r, r) == 2 and r not in candidates:
                candidates.append(r)
        accepted_any = False
        for r in candidates:
            if r[0] < 0:
                r = tuple(-x for x in r)
            if r[0] <= 0 or r[0] % 2:
                continue
            if any(Fraction(x).denominator != 1 for x in r):
                continue
            if any(_inner(data, f, r) % 2 for f in pool):
                continue
            if any(_inner(data, r, chi) for chi in found):
                continue
            accept(r, 2)
            accepted_any = True
        # phase 3: enrich the pool: products, Adams twists, and the
        # symmetric/exterior squares (the splitting lever)
        snapshot = [f for f, n in zip(found, norms)]
        def push(v):
            v = tuple(v)
            if v not in pool:
                pool.append(v)
        for a in snapshot:
            for b in snapshot:
                push(_mul(a, b))
            push(_mul(a, perm))
            psi2 = _adams(data, a, 2)
            sq = _mul(a, a)
            push(tuple((x - y) // 2 for x, y in zip(sq, psi2)))   # Lambda^2
            push(tuple((x + y) // 2 for x, y in zip(sq, psi2)))   # S^2
            for kk in (3, 5, 7):
                push(_adams(data, a, kk))
        residues = []
        for f in pool:
            r = reduce_vec(f)
            if any(r):
                residues.append(tuple(int(x) for x in r))
        for r in residues[:40]:
            psi2 = _adams(data, r, 2)
            sq = _mul(r, r)
            push(tuple((x - y) // 2 for x, y in zip(sq, psi2)))
            push(tuple((x + y) // 2 for x, y in zip(sq, psi2)))
        if len(pool) > 900:
            pool = pool[:900]
        if not accepted_any and not _complete(data, found, norms):
            _sweep_residues(data, residues, found, norms, pool)
    if not _complete(data, found, norms):
        # last resort: small integer combinations of leftover residues
        residues = []
        for f in pool:
            r = reduce_vec(f)
            if any(r):
                residues.append(r)
        _sweep_residues(data, residues, found, norms, pool)
    if not _complete(data, found, norms):
        _complete_by_complement(data, found, norms, pool)
    if not _complete(data, found, norms):
        raise RuntimeError(f"mill did not complete the {name} table")
    rows = sorted(zip(found, norms),
                  key=lambda fn: (Fraction(fn[0][0], fn[1]), fn[1], fn[0]))
    _validate(data, rows)
    return data, [(tuple(int(x) for x in f), int(n)) for f, n in rows]


def _complete(data, found, norms) -> bool:
    if len(found) != len(data.classes):
        return False
    total = sum(Fraction(f[0] * f[0], n) for f, n in zip(found, norms))
    return total == data.order


def _row_reduce_integer_basis(vecs):
    """Integer row-span basis of the given integer vectors (row HNF)."""
    from .lattice import hermite_normal_form
    rows = [list(int(x) for x in v) for v in vecs]
    return [tuple(r) for r in hermite_normal_form(rows)]


def _gram_schmidt(data, basis):
    n = len(basis)
    star, mu, B = [], [[Fraction(0)] * n for _ in range(n)], []
    for i in range(n):
        v = [Fraction(x) for x in basis[i]]
        for j in range(i):
            if B[j]:
                mu[i][j] = _inner(data, basis[i], star[j]) / B[j]
                v = [a - mu[i][j] * b for a, b in zip(v, star[j])]
        star.append(v)
        B.append(_inner(data, v, v))
    return star, mu, B


def _lll(data, basis):
    basis = [list(b) for b in basis]
    n = len(basis)
    if n <= 1:
        return basis
    k = 1
    guard = 0
    while k < n and guard < 5000:
        guard += 1
        star, mu, B = _gram_schmidt(data, basis)
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[j])]
        star, mu, B = _gram_schmidt(data, basis)
        if B[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * B[k - 1]:
            k += 1
        else:
            basis[k], basis[k - 1] = basis[k - 1], basis[k]
            k = max(k - 1, 1)
    return basis


def _short_vectors(data, basis):
    """All lattice vectors of norm <= 2 (up to sign), Fincke-Pohst."""
    n = len(basis)
    star, mu, B = _gram_schmidt(data, basis)
    out = []
    coeffs = [0] * n

    def rec(i, remaining):
        if i < 0:
            v = [0] * len(basis[0])
            for c, b in zip(coeffs, basis):
                if c:
                    v = [a + c * x for a, x in zip(v, b)]
            if any(v):
                out.append(tuple(v))
            return
        if B[i] == 0:
            return
        center = sum(mu[j][i] * coeffs[j] for j in range(i + 1, n))
        # |x + center|^2 * B[i] <= remaining
        import math
        lim = remaining / B[i]
        # integer x with (x + center)^2 <= lim
        from math import isqrt
        num = lim
        bound = Fraction(isqrt(int(num * 10 ** 8)) + 1, 10 ** 4)
        x = int(-center - bound) - 1
        while Fraction(x) + center < -bound:
            x += 1
        while Fraction(x) + center <= bound:
            used = (Fraction(x) + center) ** 2 * B[i]
            if used <= remaining:
                coeffs[i] = x
                rec(i - 1, remaining - used)
            x += 1
        coeffs[i] = 0

    rec(n - 1, Fraction(2))
    # deduplicate up to sign
    seen = set()
    uniq = []
    for v in out:
        key = v if v >= tuple(-x for x in v) else tuple(-x for x in v)
        if key not in seen:
            seen.add(key)
            uniq.append(key)
    return uniq


def _lattice_reduce(data, vecs):
    """Short vectors (norm <= 2) of the lattice spanned by ``vecs``."""
    basis = _row_reduce_integer_basis(vecs)
    if not basis:
        return []
    reduced = _lll(data, basis)
    return _short_vectors(data, reduced)


def _sweep_residues(data, residues, found, norms, pool=()) -> bool:
    """Extract short vectors from the residue lattice and accept them.

    Norm-1 vectors (rational irreducibles) are taken first; a norm-2
    vector is accepted only if it pairs evenly with every pool character
    (true conjugate-pair sums do; sums or differences of two rational
    irreducibles are rejected by parity against some pool element).
    """
    vecs = [tuple(int(x) for x in r) for r in residues if any(r)]
    if not vecs:
        return False
    short = _lattice_reduce(data, vecs)
    added = False
    for target_norm in (1, 2):
        for v in short:
            if _inner(data, v, v) != target_norm:
                continue
            if v[0] < 0:
                v = tuple(-x for x in v)
            if v[0] <= 0:
                continue
            if any(_inner(data, v, chi) for chi in found):
                continue
            if target_norm == 2:
                if v[0] % 2:
                    continue
                if any(_inner(data, f, v) % 2 for f in pool):
                    continue
            found.append(v)
            norms.append(Fraction(target_norm))
            added = True
    return added


def _complete_by_complement(data, found, norms, pool):
    """Solve for the missing orbit-sum rows inside the integer orthogonal
    complement of the found characters.

    The complement lattice (integer class vectors pairing to zero with
    every found character) contains the missing rows; its norm-1 vectors
    with positive integral degree are rational irreducibles and its
    admissible norm-2 vectors are conjugate-pair sums (fractional mixtures
    are excluded because their degrees are non-integral).
    """
    from .lattice import integer_kernel
    k = len(data.classes)
    cond = []
    for chi in found:
        cond.append([data.classes[c].size * chi[c] for c in range(k)])
    # right kernel of the condition matrix = left kernel of its transpose
    transposed = [[cond[i][j] for i in range(len(cond))] for j in range(k)]
    kern = integer_kernel(transposed)
    if not kern:
        return
    short = _short_vectors(data, _lll(data, kern))
    for target_norm in (1, 2):
        for v in short:
            if _inner(data, v, v) != target_norm:
                continue
            if v[0] < 0:
                v = tuple(-x for x in v)
            if v[0] <= 0:
                continue
            if any(_inner(data, v, chi) for chi in found):
                continue
            if target_norm == 2:
                if v[0] % 2:
                    continue
                if any(_inner(data, f, v) % 2 for f in pool):
                    continue
            else:
                if any(_inner(data, f, v).denominator != 1 for f in pool):
                    continue
            # lambda-ring integrality: v(g) = v(g^2) mod 2 for characters
            psi2 = _adams(data, v, 2)
            if any((a - b) % 2 for a, b in zip(_mul(v, v), psi2)):
                continue
            found.append(tuple(int(x) for x in v))
            norms.append(Fraction(target_norm))


def _validate(data: GroupClassData, rows):
    k = len(data.classes)
    for i, (fi, ni) in enumerate(rows):
        for j, (fj, nj) in enumerate(rows):
            got = _inner(data, fi, fj)
            want = ni if i == j else 0
            if got != want:
                raise ArithmeticError(
                    f"orthogonality failure at rows {i},{j}: {got} != {want}")
    # column relation at the identity: sum over constituents of deg^2 = |G|
    total = sum(Fraction(f[0] ** 2, n) for f, n in rows)
    if total != data.order:
        raise ArithmeticError("degree sum does not match the group order")
    if len(rows) != k:
        raise ArithmeticError("wrong number of rational irreducibles")
