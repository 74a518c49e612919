import pytest

from k3moonshine.groups import (
    MatrixGroup, PermGroup, conjugacy_classes, rational_character_table,
)
from k3moonshine.mukai import MUKAI_GROUPS, build_group, mukai_table


def test_s3_table():
    s3 = PermGroup(3, [(1, 0, 2), (1, 2, 0)])
    t = rational_character_table("S3", s3)
    assert t.order == 6
    assert sorted(ch.degree for ch in t.characters) == [1, 1, 2]
    t.validate()


def test_q8_table():
    q8 = MatrixGroup(2, [((0, -1), (1, 0)), ((1, 1), (1, -1))], p=3)
    t = rational_character_table("Q8", q8)
    assert t.order == 8
    assert sorted((ch.degree, ch.orbit_size) for ch in t.characters) == \
        [(1, 1)] * 4 + [(2, 1)]


def test_a4_rationalization():
    a4 = PermGroup(4, [(1, 0, 3, 2), (1, 2, 0, 3)])
    t = rational_character_table("A4", a4)
    # omega and its conjugate merge into one orbit-sum of norm 2
    assert sorted((ch.degree, ch.orbit_size) for ch in t.characters) == \
        [(1, 1), (1, 2), (3, 1)]


def test_perm_group_inverse():
    g = PermGroup(5, [(1, 2, 3, 4, 0)])
    x = (1, 2, 3, 4, 0)
    assert g.mul(x, g.inv(x)) == g.identity()


def test_matrix_group_inverse():
    g = MatrixGroup(2, [((1, 1), (0, 1))], p=5)
    x = ((1, 3), (0, 1))
    assert g.mul(x, g.inv(x)) == g.identity()


@pytest.mark.parametrize("spec", MUKAI_GROUPS, ids=lambda s: s.name)
def test_mukai_groups_validate(spec):
    g = build_group(spec.index)
    data = conjugacy_classes(g)
    assert len(data.elements) == spec.order
    assert tuple(sorted(set(data.orders))) == spec.element_orders


def test_mukai_table_orthogonality():
    # the Dixon output passes its own validation (done inside) and the
    # class count equals the rational-irreducible count
    t = mukai_table(1)
    assert len(t.characters) == len(t.classes)
    assert t.order == 168
    # L2(7): element orders 1-4, 7 with the 7s merged rationally
    assert next(c.merged for c in t.classes if c.order == 7) == 2
