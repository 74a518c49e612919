"""Concrete models of the eleven maximal symplectic automorphism groups.

Each group is realized as a small permutation or matrix group, enumerated
exactly, and validated against its published order and element-order
spectrum before its rational character table is computed.  The table data
(not the group elements) is what the lattice machinery consumes.
"""

from __future__ import annotations

from .chartab import CharacterTable
from .groups import (
    MatrixGroup, PermGroup, conjugacy_classes, rational_character_table,
)
from .records import Record

__all__ = ["MUKAI_GROUPS", "MukaiGroupSpec", "build_group", "mukai_table"]


class MukaiGroupSpec(Record):
    """``index``: position 1..11 in the published list."""

    __slots__ = ("index", "name", "order", "element_orders")


MUKAI_GROUPS = (
    MukaiGroupSpec(1, "L2(7)", 168, (1, 2, 3, 4, 7)),
    MukaiGroupSpec(2, "A6", 360, (1, 2, 3, 4, 5)),
    MukaiGroupSpec(3, "S5", 120, (1, 2, 3, 4, 5, 6)),
    MukaiGroupSpec(4, "2^4A5", 960, (1, 2, 3, 4, 5)),
    MukaiGroupSpec(5, "2^4S4", 384, (1, 2, 3, 4, 8)),
    MukaiGroupSpec(6, "A44", 288, (1, 2, 3, 4, 6)),
    MukaiGroupSpec(7, "T192", 192, (1, 2, 3, 4, 6)),
    MukaiGroupSpec(8, "2^4D12", 192, (1, 2, 3, 4, 6)),
    MukaiGroupSpec(9, "3^2D8", 72, (1, 2, 3, 4, 6)),
    MukaiGroupSpec(10, "3^2Q8", 72, (1, 2, 3, 4)),
    MukaiGroupSpec(11, "T48", 48, (1, 2, 3, 4, 6, 8)),
)


# -- GF(4) arithmetic for the affine constructions ------------------------------

_GF4_ADD = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
_GF4_MUL = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]


def _gf4_points():
    return [(a, b) for a in range(4) for b in range(4)]


def _affine_perm(mat, shift, frob: bool):
    """Permutation of GF(4)^2 given by v -> mat . v^sigma + shift."""
    pts = _gf4_points()
    index = {pt: i for i, pt in enumerate(pts)}
    images = []
    for (x, y) in pts:
        if frob:
            x, y = _GF4_MUL[x][x], _GF4_MUL[y][y]
        nx = _GF4_ADD[_GF4_MUL[mat[0][0]][x]][_GF4_MUL[mat[0][1]][y]]
        ny = _GF4_ADD[_GF4_MUL[mat[1][0]][x]][_GF4_MUL[mat[1][1]][y]]
        images.append(index[(_GF4_ADD[nx][shift[0]], _GF4_ADD[ny][shift[1]])])
    return tuple(images)


def _psl27():
    # action on the projective line over F_7: points 0..6 and infinity = 7
    def frac(num_a, num_b, den_a, den_b):
        images = []
        for z in range(8):
            if z == 7:
                na, da = num_a, den_a
            else:
                na, da = (num_a * z + num_b) % 7, (den_a * z + den_b) % 7
            images.append(7 if da % 7 == 0 else na * pow(da, 5, 7) % 7)
        return tuple(images)

    t = frac(1, 1, 0, 1)       # z -> z + 1
    s = frac(0, -1, 1, 0)      # z -> -1/z
    return PermGroup(8, [t, s])


def _a6():
    return PermGroup(6, [(1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1)])


def _s5():
    return PermGroup(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])


def _m20():
    # ASL(2,4) = 2^4 : SL(2,4) on the 16 points of the affine plane
    gens = [
        _affine_perm(((1, 1), (0, 1)), (0, 0), False),
        _affine_perm(((1, 2), (0, 1)), (0, 0), False),
        _affine_perm(((1, 0), (1, 1)), (0, 0), False),
        _affine_perm(((1, 0), (2, 1)), (0, 0), False),
        _affine_perm(((1, 0), (0, 1)), (1, 0), False),
        _affine_perm(((1, 0), (0, 1)), (0, 1), False),
    ]
    return PermGroup(16, gens)


def _f384():
    # 2^4 : S4 inside the affine semilinear group: the point stabilizer of
    # [1:0] in SigmaL(2,4) (upper-triangular + Frobenius) over translations
    gens = [
        _affine_perm(((1, 1), (0, 1)), (0, 0), False),
        _affine_perm(((2, 0), (0, 3)), (0, 0), False),
        _affine_perm(((1, 0), (0, 1)), (0, 0), True),
        _affine_perm(((1, 0), (0, 1)), (1, 0), False),
        _affine_perm(((1, 0), (0, 1)), (0, 1), False),
    ]
    return PermGroup(16, gens)


def _a44():
    # {(s, t) in S4 x S4 : sgn s = sgn t} on 4 + 4 points
    def pair(left, right):
        return tuple(list(left) + [4 + x for x in right])

    id4 = (0, 1, 2, 3)
    c3 = (1, 2, 0, 3)
    sw = (1, 0, 2, 3)
    c4 = (1, 2, 3, 0)
    gens = [pair(c3, id4), pair(id4, c3), pair(sw, sw), pair(c4, c4),
            pair(sw, c4)]
    return PermGroup(8, gens)


def _t192():
    # (Q8 * Q8) . S3 acting on the quaternions by x -> a x b, extended by
    # the order-3 rotation i -> j -> k and the improper involution
    # x -> q xbar qbar with q = (i+j)/sqrt(2), as signed 4x4 integer
    # matrices in the basis (1, i, j, k).  The other natural involution
    # x -> xbar yields a different order-192 group with the same element
    # orders but a finer order-character lattice.
    li = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))
    lj = ((0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, -1, 0, 0))
    ri = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))
    rj = ((0, 0, -1, 0), (0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 0))
    rot = ((1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0))
    refl = ((1, 0, 0, 0), (0, 0, -1, 0), (0, -1, 0, 0), (0, 0, 0, 1))
    return MatrixGroup(4, [li, lj, ri, rj, rot, refl], p=0)


def _h192():
    # 2^4 : D12 with the dihedral complement in SigmaL(2,4): sigma of order 6
    # (semilinear, with Frobenius) and an involution tau inverting it
    gens = [
        _affine_perm(((2, 1), (3, 1)), (0, 0), True),
        _affine_perm(((1, 0), (2, 1)), (0, 0), False),
        _affine_perm(((1, 0), (0, 1)), (1, 0), False),
        _affine_perm(((1, 0), (0, 1)), (0, 1), False),
    ]
    return PermGroup(16, gens)


def _f3_affine_perm(mat, shift):
    """Permutation of F_3^2, the point (x, y) numbered 3x + y, given by
    v -> mat . v + shift."""
    (a, b), (c, d) = mat
    return tuple(3 * ((a * x + b * y + shift[0]) % 3)
                 + (c * x + d * y + shift[1]) % 3
                 for x in range(3) for y in range(3))


def _n72():
    # 3^2 : D8 inside the affine group of the plane over F_3 (9 points)
    gens = [_f3_affine_perm(((0, -1), (1, 0)), (0, 0)),   # rotation of order 4
            _f3_affine_perm(((1, 0), (0, -1)), (0, 0)),   # reflection
            _f3_affine_perm(((1, 0), (0, 1)), (1, 0)),
            _f3_affine_perm(((1, 0), (0, 1)), (0, 1))]
    return PermGroup(9, gens)


def _m9():
    gens = [_f3_affine_perm(((0, -1), (1, 0)), (0, 0)),
            _f3_affine_perm(((1, 1), (1, -1)), (0, 0)),
            _f3_affine_perm(((1, 0), (0, 1)), (1, 0)),
            _f3_affine_perm(((1, 0), (0, 1)), (0, 1))]
    return PermGroup(9, gens)


def _t48():
    # binary octahedral group as 2x2 matrices over GF(17):
    # i^2 = -1 with i = 4, sqrt(2) = 6
    p = 17
    i_mat = ((4, 0), (0, 13))
    j_mat = ((0, 1), (16, 0))
    # s = (1 + i)/sqrt(2) -> diag((1+4)/6, (1-4)/6) = diag(5*3, 14*3)
    s_mat = ((15, 0), (0, 8))
    # w = (-1 + i + j + k)/2, 2^{-1} = 9
    one = ((1, 0), (0, 1))
    k_mat = ((0, 4), (4, 0))
    w = tuple(tuple((9 * (-one[r][c] + i_mat[r][c] + j_mat[r][c]
                          + k_mat[r][c])) % p for c in range(2))
              for r in range(2))
    return MatrixGroup(2, [i_mat, j_mat, s_mat, w], p=p)


_BUILDERS = {
    1: _psl27, 2: _a6, 3: _s5, 4: _m20, 5: _f384, 6: _a44,
    7: _t192, 8: _h192, 9: _n72, 10: _m9, 11: _t48,
}


def build_group(index: int):
    """The concrete model of Mukai group no. ``index`` (1-based)."""
    return _BUILDERS[index]()


def mukai_table(index: int) -> CharacterTable:
    """Rational character table of Mukai group no. ``index``, validated."""
    spec = MUKAI_GROUPS[index - 1]
    g = build_group(index)
    data = conjugacy_classes(g)
    if len(data.elements) != spec.order:
        raise RuntimeError(
            f"{spec.name}: order {len(data.elements)} != {spec.order}")
    spectrum = tuple(sorted(set(data.orders)))
    if spectrum != spec.element_orders:
        raise RuntimeError(
            f"{spec.name}: element orders {spectrum} != {spec.element_orders}")
    return rational_character_table(spec.name, g, data)
