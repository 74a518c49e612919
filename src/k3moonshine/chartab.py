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

Values are integers or "a/b" strings; a rationalized table stores one row
per Galois orbit of complex irreducibles (values are the orbit sums).
Round-trips are bit-exact.  Loading validates the class-size sum and the
row orthogonality relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

__all__ = ["CharacterTable", "TableFormatError"]


class TableFormatError(ValueError):
    pass


@dataclass(frozen=True)
class ClassEntry:
    label: str
    order: int
    size: int
    merged: int = 1


@dataclass(frozen=True)
class CharacterEntry:
    name: str
    orbit_size: int
    degree: int
    values: tuple


@dataclass
class CharacterTable:
    group: str
    order: int
    classes: list = field(default_factory=list)
    characters: list = field(default_factory=list)
    rationalized: bool = True

    # -- access -----------------------------------------------------------

    def class_index(self, label: str) -> int:
        for i, c in enumerate(self.classes):
            if c.label == label:
                return i
        raise KeyError(f"{self.group}: no class labeled {label}")

    @property
    def n_irreducibles(self) -> int:
        """Number of complex irreducibles (orbit sizes summed)."""
        return sum(ch.orbit_size for ch in self.characters)

    def inner(self, f, g) -> Fraction:
        acc = Fraction(0)
        for c, a, b in zip(self.classes, f, g):
            acc += Fraction(c.size) * a * b
        return acc / self.order

    # -- validation ---------------------------------------------------------

    def validate(self):
        if sum(c.size for c in self.classes) != self.order:
            raise TableFormatError(
                f"{self.group}: class sizes sum to "
                f"{sum(c.size for c in self.classes)}, not {self.order}")
        for ch in self.characters:
            if len(ch.values) != len(self.classes):
                raise TableFormatError(f"{self.group}: ragged row {ch.name}")
            if self.rationalized and any(
                    Fraction(v).denominator != 1 for v in ch.values):
                raise TableFormatError(
                    f"{self.group}: non-integral value in rationalized row "
                    f"{ch.name}")
        for i, a in enumerate(self.characters):
            for j, b in enumerate(self.characters):
                got = self.inner(a.values, b.values)
                want = a.orbit_size if i == j else 0
                if got != want:
                    raise TableFormatError(
                        f"{self.group}: orthogonality fails at "
                        f"({a.name},{b.name}): {got} != {want}")
        degtotal = sum(ch.orbit_size * ch.degree ** 2 for ch in self.characters)
        if self.characters and degtotal != self.order:
            raise TableFormatError(
                f"{self.group}: degree sum {degtotal} != order")
        return self

    # -- serialization -----------------------------------------------------

    def dumps(self) -> str:
        lines = [f"group {self.group}", f"order {self.order}",
                 f"classes {len(self.classes)}"]
        for c in self.classes:
            lines.append(f"class {c.label} {c.order} {c.size} {c.merged}")
        lines.append(f"characters {len(self.characters)}")
        for ch in self.characters:
            vals = " ".join(_fmt(v) for v in ch.values)
            lines.append(f"char {ch.name} {ch.orbit_size} {ch.degree} {vals}")
        lines.append("end")
        return "\n".join(lines) + "\n"

    @staticmethod
    def loads_unchecked(text: str) -> "CharacterTable":
        """Parse without the full-table validation (restricted slices)."""
        return CharacterTable._parse_text(text)

    @staticmethod
    def loads(text: str) -> "CharacterTable":
        return CharacterTable._parse_text(text).validate()

    @staticmethod
    def _parse_text(text: str) -> "CharacterTable":
        lines = [ln.strip() for ln in text.splitlines()
                 if ln.strip() and not ln.startswith("#")]
        it = iter(lines)

        def expect(prefix):
            ln = next(it, None)
            if ln is None or not ln.startswith(prefix):
                raise TableFormatError(f"expected '{prefix}', got {ln!r}")
            return ln[len(prefix):].strip()

        group = expect("group ")
        order = int(expect("order "))
        n_classes = int(expect("classes "))
        classes = []
        for _ in range(n_classes):
            parts = expect("class ").split()
            if len(parts) != 4:
                raise TableFormatError(f"malformed class line: {parts}")
            classes.append(ClassEntry(parts[0], int(parts[1]),
                                      int(parts[2]), int(parts[3])))
        n_chars = int(expect("characters "))
        chars = []
        for _ in range(n_chars):
            parts = expect("char ").split()
            name, orbit, degree = parts[0], int(parts[1]), int(parts[2])
            values = tuple(_parse(v) for v in parts[3:])
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


def _fmt(v) -> str:
    f = Fraction(v)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _parse(s: str) -> Fraction:
    return Fraction(s)
