import os
import pathlib
import re
from fractions import Fraction
from math import gcd

import pytest

from k3moonshine import tables
from k3moonshine.chartab import (
    CLASS_ORDER, SYMPLECTIC_CLASSES, CharacterTable, TableFormatError,
    _parse_value,
)
from k3moonshine.mill import class_data, mill_rational_table
from k3moonshine.tables import (
    load_co0_restricted, load_m23, load_m24, load_mukai,
    validate_co0_restricted,
)

from canonical import is_canonical

COMMITTED = os.path.join(os.path.dirname(tables.__file__), "data")


def test_m23_fixture_shape():
    t = load_m23()
    assert sum(ch.orbit_size for ch in t.characters) == 17
    assert len(t.classes) == 12
    assert t.order == 10200960
    labels = [c.label for c in t.classes]
    assert labels[:8] == ["1A", "2A", "3A", "4A", "5A", "6A", "7AB", "8A"]


def test_m24_fixture_shape():
    t = load_m24()
    assert sum(ch.orbit_size for ch in t.characters) == 26
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


def _edit_rows(text, edit):
    """``text`` with its char lines split into fields, edited in place by
    ``edit`` (a dict row name -> fields; a row set to None is dropped) and
    the characters count kept in step."""
    lines = text.splitlines()
    rows = {ln.split()[1]: ln.split() for ln in lines if ln.startswith("char ")}
    edit(rows)
    kept = [r for r in rows.values() if r is not None]
    head = [ln for ln in lines if not ln.startswith(("char ", "characters ",
                                                     "end"))]
    return "\n".join(head + [f"characters {len(kept)}"]
                     + [" ".join(r) for r in kept] + ["end"]) + "\n"


def _bump(rows):
    rows["chi2"][-1] = str(int(rows["chi2"][-1]) + 1)


def _make_non_integral(rows):
    rows["chi2"][-1] = "1/2"


def _drop(rows):
    rows["chi2"] = None


def _swap_degrees(rows):
    # chi2 (degree 23) and chi7 (degree 252) of M24 trade degree fields;
    # the degree sum is unchanged, so only the identity column shows it
    rows["chi2"][3], rows["chi7"][3] = rows["chi7"][3], rows["chi2"][3]


def _set_value(value):
    def edit(rows):
        rows["chi2"][-1] = value
    return edit


def _truncate_chi1(rows):
    rows["chi1"] = rows["chi1"][:3]


CORRUPTIONS = {
    "order-field": ("mukai_01.tbl",
                    lambda text: text.replace("order 168", "order 168x"),
                    "malformed int field '168x'"),
    "class-field": ("mukai_01.tbl",
                    lambda text: text.replace("class 3-1 3 56 1",
                                              "class 3-1 x 56 1"),
                    "malformed int field 'x'"),
    "value-field": ("mukai_01.tbl",
                    lambda text: _edit_rows(text, _set_value("abc")),
                    "malformed Fraction field 'abc'"),
    "zero-denominator": ("mukai_01.tbl",
                         lambda text: _edit_rows(text, _set_value("1/0")),
                         "malformed Fraction field '1/0'"),
    "short-char-line": ("mukai_01.tbl",
                        lambda text: _edit_rows(text, _truncate_chi1),
                        "malformed char line"),
    "class-sizes": ("mukai_10.tbl",
                    lambda text: text.replace("order 72", "order 80"),
                    "class sizes sum"),
    "orthogonality": ("mukai_10.tbl", lambda text: _edit_rows(text, _bump),
                      "orthogonality fails"),
    "non-square": ("mukai_10.tbl", lambda text: _edit_rows(text, _drop),
                   "not square"),
    "non-integral": ("mukai_10.tbl",
                     lambda text: _edit_rows(text, _make_non_integral),
                     "non-integral"),
    "swapped-degree": ("m24.tbl", lambda text: _edit_rows(text, _swap_degrees),
                       "at the identity"),
}


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_corrupt_table_rejected(corruption):
    fname, corrupt, reason = CORRUPTIONS[corruption]
    with open(os.path.join(COMMITTED, fname)) as fh:
        text = fh.read()
    assert _edit_rows(text, lambda rows: None) == text
    bad = corrupt(text)
    assert bad != text
    with pytest.raises(TableFormatError, match=reason):
        CharacterTable.loads(bad)


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


@pytest.mark.parametrize("name", ["M23", "M24"])
def test_stored_power_maps_match_cycle_types(name):
    # g^k for every class and every k up to twice the element order, by
    # the cycle type of g^k looked up in the class list
    data = class_data(name)
    for i, c in enumerate(data.classes):
        assert len(data.power_maps[i]) == c.order
        for k in range(2 * c.order + 1):
            powered: dict = {}
            for length, count in c.cycle_type:
                d = gcd(length, k)
                powered[length // d] = powered.get(length // d, 0) + count * d
            assert data.power_class(i, k) == \
                data.type_index[tuple(sorted(powered.items()))]


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


def test_loaded_table_is_memoized_and_immutable():
    import dataclasses
    table = load_m24()
    assert load_m24() is table
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.order = 1
    with pytest.raises(AttributeError):
        table.characters.pop()
    with pytest.raises(AttributeError):
        table.classes.append(table.classes[0])
    assert load_m24() is table
    assert len(table.characters) == 21 and table.order == 244823040


def test_mill_m23_matches_fixture():
    # regenerating the table reproduces the shipped fixture's rows
    milled = mill_rational_table("M23")
    t = load_m23()
    assert len(milled.characters) == len(t.characters)
    for got, ch in zip(milled.characters, t.characters):
        assert got.orbit_size == ch.orbit_size
        assert [int(v) for v in got.values] == [int(v) for v in ch.values]


def _int_valued(table) -> bool:
    """Every value is an int, the canonical form of an integral value."""
    return all(type(v) is int for ch in table.characters for v in ch.values)


@pytest.mark.parametrize("fname", tables._FIXTURES)
def test_fixture_matches_builder(fname):
    # every committed fixture is what its builder writes, byte for byte,
    # and the builder emits every (integral) value as an int
    built = tables._FIXTURES[fname]()
    assert _int_valued(built)
    with open(os.path.join(COMMITTED, fname)) as fh:
        assert built.dumps() == fh.read()


def test_generate_all_writes_the_fixtures_the_loaders_read(tmp_path,
                                                          monkeypatch):
    """A first call writes all 14 fixtures, byte for byte the committed
    ones, and names them; a second writes nothing; ``force`` rewrites every
    one.  The loaders read exactly those files, and a Mukai index with no
    fixture is a ValueError naming it, not a file to generate."""
    committed = {p.name: p.read_bytes()
                 for p in sorted(pathlib.Path(COMMITTED).glob("*.tbl"))}
    names = list(committed)
    assert len(names) == 14

    def files():
        return {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    assert sorted(tables.generate_all(str(tmp_path))) == names
    assert files() == committed
    for n in names:
        (tmp_path / n).write_bytes(b"stale")
    assert tables.generate_all(str(tmp_path)) == []
    assert files() == dict.fromkeys(names, b"stale")
    assert sorted(tables.generate_all(str(tmp_path), force=True)) == names
    assert files() == committed
    monkeypatch.setenv("K3MOONSHINE_DATA", str(tmp_path))
    assert load_mukai(11).dumps().encode() == committed["mukai_11.tbl"]
    with pytest.raises(ValueError, match="^index .*got 12$"):
        load_mukai(12)


@pytest.mark.parametrize("fname", tables._FIXTURES)
def test_fixture_loads_as_ints_and_round_trips(fname):
    with open(os.path.join(COMMITTED, fname)) as fh:
        text = fh.read()
    loaded = (CharacterTable.loads_unchecked(text)
              if fname == "co0_restricted.tbl" else CharacterTable.loads(text))
    assert _int_valued(loaded)
    assert loaded.dumps() == text


# every kind of token the value parser can meet: the ASCII-digit fast path
# ("0", "-0", "007"), what ``int`` takes and ``Fraction`` may not ("+5",
# "1_0", which Fraction rejects before Python 3.11, a non-ASCII digit),
# integral and non-integral quotients, and malformed fields
VALUE_TOKENS = ("0", "-0", "+5", "007", "1_0", "\u0663", "1/1", "2/4", "-3/6",
                "abc", "1/0", "-", "")


@pytest.mark.parametrize("token", VALUE_TOKENS)
def test_value_parser_matches_fraction(token):
    try:
        want = Fraction(token)
    except (ValueError, ZeroDivisionError):
        message = re.escape(f"malformed Fraction field {token!r}")
        with pytest.raises(TableFormatError, match=message):
            _parse_value(token)
        if token:
            with pytest.raises(TableFormatError, match=message):
                CharacterTable.loads_unchecked(_one_value_table(token))
        return
    got = _parse_value(token)
    assert got == want and is_canonical(got)
    assert CharacterTable.loads_unchecked(
        _one_value_table(token)).characters[0].values == (got,)


def _one_value_table(token):
    return ("group G\norder 1\nclasses 1\nclass 1-1 1 1 1\ncharacters 1\n"
            f"char chi1 1 1 {token}\nend\n")


# whole rows: all plain ASCII integers, and rows that mix them with tokens
# that only the Fraction route takes, or that the parser refuses
VALUE_ROWS = (("0", "-0", "007", "12", "-5"), ("+5", "1", "-2"),
              ("3", "1_0", "-0"), ("-0", "\u0663", "007"), ("2/4", "1", "1"),
              ("007", "5-3", "1"), ("-", "1", "2"), ("1", "2", "--3"),
              ("-0", "+5", "1_0", "\u0663", "007", "-7"))


@pytest.mark.parametrize("row", VALUE_ROWS, ids=" ".join)
def test_value_rows_parse_as_their_tokens(row):
    text = ("group G\norder 1\nclasses %d\n" % len(row)
            + "".join(f"class {i}-1 1 1 1\n" for i in range(len(row)))
            + "characters 1\nchar chi1 1 1 " + " ".join(row) + "\nend\n")
    try:
        want = tuple(map(_parse_value, row))
    except TableFormatError as exc:
        with pytest.raises(TableFormatError, match=re.escape(str(exc))):
            CharacterTable.loads_unchecked(text)
        return
    got = CharacterTable.loads_unchecked(text).characters[0].values
    assert got == want and all(map(is_canonical, got))
    assert [type(x) for x in got] == [type(x) for x in want]


def test_symplectic_classes_are_the_m23_classes_of_order_at_most_8():
    # the labels and orders stated in chartab are the mill's M23 classes
    # of element order <= 8, in its order, so the two cannot drift apart
    m23 = class_data("M23").classes
    assert list(CLASS_ORDER.items()) == \
        [(c.label, c.order) for c in m23 if c.order <= 8]
    assert SYMPLECTIC_CLASSES == tuple(CLASS_ORDER)
