import os

import pytest

from k3moonshine import tables
from k3moonshine.chartab import CharacterTable, TableFormatError
from k3moonshine.mill import class_data, mill_rational_table
from k3moonshine.tables import (
    _mill_to_table, load_co0_restricted, load_m23, load_m24, load_mukai,
    validate_co0_restricted,
)

COMMITTED = os.path.join(os.path.dirname(tables.__file__), "data")


def test_m23_fixture_shape():
    t = load_m23()
    assert t.n_irreducibles == 17
    assert len(t.classes) == 12
    assert t.order == 10200960
    labels = [c.label for c in t.classes]
    assert labels[:8] == ["1A", "2A", "3A", "4A", "5A", "6A", "7AB", "8A"]


def test_m24_fixture_shape():
    t = load_m24()
    assert t.n_irreducibles == 26
    assert len(t.classes) == 21
    assert t.order == 244823040


def test_co0_fixture_classes():
    t = load_co0_restricted()
    assert [c.label for c in t.classes] == \
        ["1A+", "2A+", "3B+", "4C+", "5B+", "6E+", "7B+", "8E+"]
    # the 24-dimensional generator row carries the fixed-point traces
    lam1 = next(ch for ch in t.characters if ch.degree == 24)
    assert [int(v) for v in lam1.values] == [24, 8, 6, 4, 4, 2, 3, 2]


def test_roundtrip_bitexact(tmp_path):
    t = load_mukai(9)
    path = tmp_path / "copy.tbl"
    t.dump(path)
    again = CharacterTable.load(path)
    assert again.dumps() == t.dumps()


def test_bad_class_sizes_rejected():
    t = load_mukai(10)
    text = t.dumps().replace(f"order {t.order}", f"order {t.order + 8}")
    with pytest.raises(TableFormatError):
        CharacterTable.loads(text)


def test_orthogonality_enforced_on_load():
    t = load_mukai(10)
    lines = t.dumps().splitlines()
    for i, ln in enumerate(lines):
        if ln.startswith("char chi2 "):
            parts = ln.split()
            parts[-1] = str(int(parts[-1]) + 1)
            lines[i] = " ".join(parts)
            break
    with pytest.raises(TableFormatError):
        CharacterTable.loads("\n".join(lines) + "\n")


def test_co0_validation_on_load():
    text = load_co0_restricted().dumps()
    committed = CharacterTable.loads_unchecked(text)
    assert validate_co0_restricted(committed) is committed
    lambda3 = "char gen3 1 2024 2024 -8 26 -4 4 -2 1 -2"
    bad_lambda3 = text.replace(lambda3, lambda3[:-2] + "-1")
    # gen1 + gen2 restricts a virtual character but is no product of rows
    with_sum = text.replace("characters 26", "characters 27").replace(
        "\nend\n", "\nchar gen26 1 300 300 28 21 8 10 1 6 2\nend\n")
    for bad, reason in ((bad_lambda3, "exterior power 3"),
                        (with_sum, "gen26 is not the product")):
        with pytest.raises(TableFormatError, match=reason):
            validate_co0_restricted(CharacterTable.loads_unchecked(bad))


def test_m23_class_data_consistency():
    data = class_data("M23")
    assert sum(c.size for c in data.classes) == 10200960
    # power maps close over the class list (computed in the constructor)
    assert data.power_class(data.type_index[((1, 1), (2, 1), (4, 1), (8, 2))], 2) \
        == data.type_index[((1, 3), (2, 2), (4, 4))]


def test_class_data_is_memoized_and_immutable():
    import dataclasses
    data = class_data("M24")
    assert class_data("M24") is data
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.classes = ()
    with pytest.raises(AttributeError):
        data.classes.append(data.classes[0])
    with pytest.raises(TypeError):
        data.type_index[((1, 24),)] = 1


def test_mill_m23_matches_fixture():
    # regenerating the table reproduces the shipped fixture
    data, rows = mill_rational_table("M23")
    t = load_m23()
    assert len(rows) == len(t.characters)
    for (values, norm), ch in zip(rows, t.characters):
        assert norm == ch.orbit_size
        assert list(values) == [int(v) for v in ch.values]
    with open(os.path.join(COMMITTED, "m23.tbl")) as fh:
        assert _mill_to_table("M23").dumps() == fh.read()


def test_mill_m24_matches_fixture():
    # the M24 table the lattice criteria read is regenerated byte for byte
    with open(os.path.join(COMMITTED, "m24.tbl")) as fh:
        assert _mill_to_table("M24").dumps() == fh.read()
