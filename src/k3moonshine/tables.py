"""Character-table fixtures: generation and cached loading.

All fixtures are derived in-repo: the eleven maximal-group tables come
from the Dixon engine over explicit group models, the M23/M24 tables from
the permutation-character mill, and the Co0 fixture lists restrictions of
explicit virtual characters of Aut(Leech) (the lambda-ring of the 24-
dimensional representation, evaluated through power-trace data) at the
eight symplectic classes.  Both full-table builders return a
``CharacterTable`` that ``CharacterTable.validate`` has checked, and
``generate_all`` writes it as it is.  Every fixture revalidates on load:
the full tables through the same validator, the Co0 slice through
``validate_co0_restricted``.
"""

from __future__ import annotations

import os
from operator import mul

from .chartab import (
    CLASS_ORDER, SYMPLECTIC_CLASSES as SYMPLECTIC_M23_LABELS, CharacterTable,
    CharacterEntry, ClassEntry, TableFormatError,
)
from .mill import class_data, exterior_powers, mill_rational_table
from .mukai import MUKAI_GROUPS, mukai_table
from .lattice import hnf_basis
from .qpoly import memoized, require_key

__all__ = [
    "data_dir", "load_m23", "load_m24", "load_mukai", "load_co0_restricted",
    "validate_co0_restricted", "fixture_lattice_report", "generate_all",
    "SYMPLECTIC_M24_LABELS", "SYMPLECTIC_M23_LABELS", "M24_LABEL",
    "CO0_ORDER",
]

# Classes carry M23 labels (``chartab``, ``mckay``); M24 calls the symplectic
# 4A its 4B and ``mckay``'s 4A-M24 its 4A, and every other label as is.
M24_LABEL = {"4A": "4B", "4A-M24": "4A"}
SYMPLECTIC_M24_LABELS = tuple(M24_LABEL.get(lab, lab)
                              for lab in SYMPLECTIC_M23_LABELS)
CO0_CLASS_LABELS = ("1A+", "2A+", "3B+", "4C+", "5B+", "6E+", "7B+", "8E+")
CO0_ORDER = 8315553613086720000

_ENV_VAR = "K3MOONSHINE_DATA"


def data_dir() -> str:
    env = os.environ.get(_ENV_VAR)
    if env:
        return env
    return os.path.join(os.path.dirname(__file__), "data")


def _path(name: str) -> str:
    return os.path.join(data_dir(), name)


def co0_restricted_rows() -> list:
    """Restrictions of exterior powers of the Leech representation (and
    their pointwise products) at the eight symplectic classes.

    The symplectic classes embed through the coordinate-permutation copy
    of M24 in Aut(Leech), so Lambda^0..Lambda^24 of the 24-dim
    representation restrict to those of the M24 permutation character.
    """
    m24 = class_data("M24")
    idx = {c.label: i for i, c in enumerate(m24.classes)}
    cols = [idx[lab] for lab in SYMPLECTIC_M24_LABELS]
    k = len(cols)
    rows = [tuple(lam[c] for c in cols)
            for lam in exterior_powers(m24, m24.permutation_character, 24)]
    # close under pointwise products, keeping a small generating set: each
    # round tests every unordered pair that has a generator added in the
    # round before (all of them in the first round) once
    lattice = hnf_basis([list(r) for r in rows], ambient=k)
    gens = list(rows)
    fresh = 0
    while fresh < len(gens):
        end = len(gens)
        for i in range(end):
            for j in range(max(i, fresh), end):
                p = tuple(map(mul, gens[i], gens[j]))
                if not lattice.contains(p):
                    gens.append(p)
                    lattice = hnf_basis(
                        [list(r) for r in lattice.basis] + [list(p)], ambient=k)
        fresh = end
    return gens


def _det_one_plus_tp(cycle_type) -> list:
    """Coefficients of det(1 + tP) = prod(1 - (-t)^L) for a permutation
    matrix P with the given (length, count) cycle type; the coefficient of
    t^k is the trace of P on the k-th exterior power."""
    poly = [1]
    for length, count in cycle_type:
        sign = -(-1) ** length
        for _ in range(count):
            poly += [0] * length
            for j in range(len(poly) - 1, length - 1, -1):
                poly[j] += sign * poly[j - length]
    return poly


def validate_co0_restricted(table: CharacterTable) -> CharacterTable:
    """Check a restricted Co0 fixture and return it unchanged.

    Class sizes and orthogonality do not apply to a restricted slice.  What
    applies: the eight class labels and element orders; rows 0..24 are the
    exterior powers of the 24-dim representation, checked against
    det(1 + tP) over the cycle types of the matching M24 classes (a route
    independent of the Newton-identity recurrence that
    ``co0_restricted_rows`` shares with the mill); every later row is the
    pointwise product of two earlier rows.
    """
    m24 = class_data("M24")
    by_label = {c.label: c for c in m24.classes}
    m24_classes = [by_label[lab] for lab in SYMPLECTIC_M24_LABELS]
    got = [(c.label, c.order) for c in table.classes]
    want = [(lab, c.order) for lab, c in zip(CO0_CLASS_LABELS, m24_classes)]
    if got != want:
        raise TableFormatError(f"Co0: classes {got}, expected {want}")
    columns = [_det_one_plus_tp(c.cycle_type) for c in m24_classes]
    exterior = [tuple(col[k] for col in columns)
                for k in range(len(columns[0]))]
    if any(v.denominator != 1 for ch in table.characters for v in ch.values):
        raise TableFormatError("Co0: non-integral value")
    rows = [ch.values for ch in table.characters]
    if len(rows) < len(exterior):
        raise TableFormatError(
            f"Co0: {len(rows)} rows, fewer than the {len(exterior)} "
            f"exterior powers")
    for k, (ch, row, want_row) in enumerate(
            zip(table.characters, rows, exterior)):
        if row != want_row:
            raise TableFormatError(
                f"Co0: row {ch.name} is not the exterior power {k} "
                f"given by det(1 + tP)")
    for i in range(len(exterior), len(rows)):
        if not any(rows[i] == tuple(x * y for x, y in zip(rows[a], rows[b]))
                   for a in range(i) for b in range(a, i)):
            raise TableFormatError(
                f"Co0: row {table.characters[i].name} is not the product "
                f"of two earlier rows")
    return table


def _co0_to_table() -> CharacterTable:
    rows = co0_restricted_rows()
    classes = [ClassEntry(lab, order, 0, 1)
               for lab, order in zip(CO0_CLASS_LABELS, CLASS_ORDER.values())]
    chars = [CharacterEntry(f"gen{i}", 1, r[0], r) for i, r in enumerate(rows)]
    return validate_co0_restricted(
        CharacterTable("Co0", CO0_ORDER, classes, chars))


_FIXTURES = {
    "m23.tbl": lambda: mill_rational_table("M23"),
    "m24.tbl": lambda: mill_rational_table("M24"),
    "co0_restricted.tbl": _co0_to_table,
}
_MUKAI_FILES = {spec.index: f"mukai_{spec.index:02d}.tbl"
                for spec in MUKAI_GROUPS}
for _index, _fname in _MUKAI_FILES.items():
    _FIXTURES[_fname] = lambda i=_index: mukai_table(i)


def generate_all(directory=None, force=False):
    directory = directory or data_dir()
    os.makedirs(directory, exist_ok=True)
    written = []
    for fname, builder in _FIXTURES.items():
        path = os.path.join(directory, fname)
        if force or not os.path.exists(path):
            table = builder()
            table.dump(path)
            written.append(fname)
    return written


def _load(fname: str, validate: bool = True) -> CharacterTable:
    path = _path(fname)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"fixture {fname} not found in {data_dir()}; "
            f"run k3moonshine.tables.generate_all()")
    with open(path) as fh:
        text = fh.read()
    if validate:
        return CharacterTable.loads(text)
    # restricted fixtures skip the full-table validation; the caller
    # applies the checks that hold for the slice
    return CharacterTable.loads_unchecked(text)


def _cached_per_directory(load):
    """Memoize ``load`` on the data directory as well as its arguments.

    The directory is resolved on every call, so a changed
    ``K3MOONSHINE_DATA`` is never served tables read from another
    directory.
    """
    return memoized(load, context=lambda: os.path.abspath(data_dir()))


@_cached_per_directory
def load_m23() -> CharacterTable:
    return _load("m23.tbl")


@_cached_per_directory
def load_m24() -> CharacterTable:
    return _load("m24.tbl")


@_cached_per_directory
def load_mukai(index: int) -> CharacterTable:
    """Fixture no. ``index``, an int in 1..11 (else TypeError or ValueError
    naming it)."""
    return _load(require_key("index", index, _MUKAI_FILES))


@_cached_per_directory
def load_co0_restricted() -> CharacterTable:
    return validate_co0_restricted(
        _load("co0_restricted.tbl", validate=False))


def fixture_lattice_report():
    """``replattice.build_lattice_report`` over the committed fixtures.

    The one route to the lattice suite for ``lattice-check`` and acceptance
    criterion 8.
    """
    from .replattice import build_lattice_report
    return build_lattice_report(
        [load_mukai(i) for i in range(1, 12)], load_m24(), load_m23(),
        load_co0_restricted(), SYMPLECTIC_M24_LABELS, SYMPLECTIC_M23_LABELS)
