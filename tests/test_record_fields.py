"""A record takes its fields, declared once in ``__slots__``, by position
in slot order or by keyword, and raises TypeError on a missing, extra,
repeated or unknown field."""

import pytest

from k3moonshine.chartab import CharacterTable, ClassEntry
from k3moonshine.lattice import AbelianQuotient


def test_fields_by_position_and_by_keyword():
    a = ClassEntry("2A", 2, 3, 1)
    assert ClassEntry("2A", 2, merged=1, size=3) == a
    assert ClassEntry(label="2A", order=2, size=3, merged=1) == a
    assert AbelianQuotient((), rank_deficit=2).rank_deficit == 2


@pytest.mark.parametrize("args, kwargs", [
    (("2A", 2, 3), {}),                      # missing
    (("2A", 2, 3, 1, 0), {}),                # extra
    (("2A", 2, 3, 1), {"size": 3}),          # repeated
    (("2A", 2, 3, 1), {"colour": "red"}),    # unknown
])
def test_bad_fields_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        ClassEntry(*args, **kwargs)


def test_character_table_stores_tuples():
    t = CharacterTable("G", 1, [ClassEntry("1A", 1, 1, 1)], iter(()))
    assert t.classes == (ClassEntry("1A", 1, 1, 1),) and t.characters == ()
