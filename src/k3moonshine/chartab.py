"""Character-table fixtures: schema, validation, and text serialization.

The file format is line-oriented text with exact rationals:

    group <name>
    order <integer>
    classes <count>
    class <label> <element-order> <size> <merged-count>
    ...
    characters <count>
    char <name> <orbit-size> <degree> <v_1> <v_2> ... <v_k>
    ...
    end

Values are integers or "a/b" strings, and follow the series rule in
memory: a value is an ``int`` exactly when integral, else a ``Fraction``.
A full table stores one row per Galois orbit of complex irreducibles
(values are the orbit sums, so they are integers) and one column per
rational class.  Round-trips are bit-exact.  ``CharacterTable.validate``
is the one full-table check; both builders
(``groups.rational_character_table`` and ``mill.mill_rational_table``)
and ``CharacterTable.loads`` run it.  Restricted slices are parsed with
``loads_unchecked`` and checked by their own rules.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .records import Record

__all__ = ["CharacterTable", "TableFormatError", "format_rational",
           "CLASS_ORDER", "SYMPLECTIC_CLASSES"]

# The symplectic classes, the M23 classes of element order <= 8: label: order
CLASS_ORDER = {
    "1A": 1, "2A": 2, "3A": 3, "4A": 4, "5A": 5, "6A": 6, "7AB": 7, "8A": 8,
}
SYMPLECTIC_CLASSES = tuple(CLASS_ORDER)


class TableFormatError(ValueError):
    pass


class ClassEntry(Record):
    __slots__ = ("label", "order", "size", "merged")


class CharacterEntry(Record):
    __slots__ = ("name", "orbit_size", "degree", "values")


class CharacterTable(Record):
    """A validated or restricted table; frozen, so a memoized load is safe
    to share (``classes`` and ``characters`` are stored as tuples)."""

    __slots__ = ("group", "order", "classes", "characters")

    def __init__(self, group: str, order: int, classes, characters):
        super().__init__(group, order, tuple(classes), tuple(characters))

    # -- access -----------------------------------------------------------

    def class_index(self, label: str) -> int:
        for i, c in enumerate(self.classes):
            if c.label == label:
                return i
        raise KeyError(f"{self.group}: no class labeled {label}")

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Check the full table and return it; raise ``TableFormatError``.

        Works in the integer form sum |C_i| a_i b_i, which is |G| times the
        character inner product: class sizes sum to |G|, the table is square
        with integral values, each row's value at the identity (the class
        of element order 1) is orbit_size * degree, rows satisfy
        sum |C_i| a_i b_i = orbit_size * |G| * delta, and
        sum orbit_size * degree^2 = |G|.
        """
        name = self.group
        total = sum(c.size for c in self.classes)
        if total != self.order:
            raise TableFormatError(
                f"{name}: class sizes sum to {total}, not {self.order}")
        k = len(self.classes)
        for ch in self.characters:
            if len(ch.values) != k:
                raise TableFormatError(f"{name}: ragged row {ch.name}")
        if len(self.characters) != k:
            raise TableFormatError(
                f"{name}: {len(self.characters)} rows for {k} classes, "
                f"not square")
        for ch in self.characters:
            if any(v.denominator != 1 for v in ch.values):
                raise TableFormatError(
                    f"{name}: non-integral value in row {ch.name}")
        ones = [i for i, c in enumerate(self.classes) if c.order == 1]
        if len(ones) != 1:
            raise TableFormatError(
                f"{name}: {len(ones)} classes of element order 1")
        for ch in self.characters:
            if ch.values[ones[0]] != ch.orbit_size * ch.degree:
                raise TableFormatError(
                    f"{name}: row {ch.name} has value {ch.values[ones[0]]} at "
                    f"the identity, not orbit size {ch.orbit_size} times "
                    f"degree {ch.degree}")
        sizes = [c.size for c in self.classes]
        for i, a in enumerate(self.characters):
            weighted = [s * x for s, x in zip(sizes, a.values)]
            for b in self.characters[i:]:
                got = sum(map(mul, weighted, b.values))
                want = a.orbit_size * self.order if b is a else 0
                if got != want:
                    raise TableFormatError(
                        f"{name}: orthogonality fails at ({a.name},{b.name}): "
                        f"sum |C| a b = {got}, not {want}")
        degtotal = sum(ch.orbit_size * ch.degree ** 2 for ch in self.characters)
        if degtotal != self.order:
            raise TableFormatError(
                f"{name}: degree sum {degtotal} != order")
        return self

    # -- serialization -----------------------------------------------------

    def dumps(self) -> str:
        lines = [f"group {self.group}", f"order {self.order}",
                 f"classes {len(self.classes)}"]
        for c in self.classes:
            lines.append(f"class {c.label} {c.order} {c.size} {c.merged}")
        lines.append(f"characters {len(self.characters)}")
        for ch in self.characters:
            vals = " ".join(map(format_rational, ch.values))
            lines.append(f"char {ch.name} {ch.orbit_size} {ch.degree} {vals}")
        lines.append("end")
        return "\n".join(lines) + "\n"

    @staticmethod
    def loads(text: str) -> "CharacterTable":
        return CharacterTable.loads_unchecked(text).validate()

    @staticmethod
    def loads_unchecked(text: str) -> "CharacterTable":
        """Parse without the full-table validation (restricted slices)."""
        lines = [ln.strip() for ln in text.splitlines()
                 if ln.strip() and not ln.startswith("#")]
        it = iter(lines)

        def expect(prefix):
            ln = next(it, None)
            if ln is None or not ln.startswith(prefix):
                raise TableFormatError(f"expected '{prefix}', got {ln!r}")
            return ln[len(prefix):].strip()

        group = expect("group ")
        order = _parse(expect("order "), int)
        n_classes = _parse(expect("classes "), int)
        classes = []
        for _ in range(n_classes):
            parts = expect("class ").split()
            if len(parts) != 4:
                raise TableFormatError(f"malformed class line: {parts}")
            classes.append(ClassEntry(parts[0], *(_parse(x, int)
                                                  for x in parts[1:])))
        n_chars = _parse(expect("characters "), int)
        chars = []
        for _ in range(n_chars):
            parts = expect("char ").split()
            if len(parts) < 3:
                raise TableFormatError(f"malformed char line: {parts}")
            name = parts[0]
            orbit, degree = (_parse(x, int) for x in parts[1:3])
            values = tuple(map(_parse_value, parts[3:]))
            if len(values) != n_classes:
                raise TableFormatError(f"row {name} has {len(values)} values")
            chars.append(CharacterEntry(name, orbit, degree, values))
        if next(it, None) != "end":
            raise TableFormatError("missing 'end'")
        return CharacterTable(group, order, classes, chars)

    def dump(self, path):
        with open(path, "w") as fh:
            fh.write(self.dumps())

    @staticmethod
    def load(path) -> "CharacterTable":
        with open(path) as fh:
            return CharacterTable.loads(fh.read())


def format_rational(x) -> str:
    """An exact rational as "a/b", or a bare integer when integral: the
    one text form of the tables, the f_g data file and the CLI."""
    if type(x) is not int and type(x) is not Fraction:
        raise TypeError(f"exact rational expected, got {x!r}")
    return str(x)


def _parse_value(s: str):
    """A table value: an ``int`` straight from ASCII digits with an optional
    leading '-'; any other token through ``Fraction``, as an ``int`` when
    integral.  ``int`` alone would also take '+5', '1_0' and non-ASCII
    digits, which ``Fraction`` accepts or rejects by its own rules."""
    digits = s[1:] if s[:1] == "-" else s
    if digits.isdigit() and digits.isascii():
        return int(s)
    x = _parse(s)
    return x.numerator if x.denominator == 1 else x


def _parse(s: str, kind=Fraction):
    """``kind(s)``; a malformed field is a ``TableFormatError``."""
    try:
        return kind(s)
    except (ValueError, ZeroDivisionError):
        raise TableFormatError(f"malformed {kind.__name__} field {s!r}") \
            from None
