"""The library's frozen records behave as the frozen dataclasses they
replace: field-wise equality and hashing, the same repr, and
``FrozenInstanceError`` on assignment and deletion.

Each record is checked against a frozen dataclass made here with the same
field names in the same order, which is the behaviour it must keep.
"""

import copy
import dataclasses
import pickle

import pytest

from k3moonshine.acceptance import CriterionResult
from k3moonshine.chartab import CharacterEntry, CharacterTable, ClassEntry
from k3moonshine.genus import MoonshineReport
from k3moonshine.lattice import AbelianQuotient, SolveResult
from k3moonshine.mckay import FgRecord
from k3moonshine.mill import ClassInfo, GroupClassData
from k3moonshine.mukai import MukaiGroupSpec
from k3moonshine.n4char import GenusDecomposition, N4Multiplicities
from k3moonshine.replattice import LatticeReport

RECORDS = (
    ClassEntry, CharacterEntry, CharacterTable, AbelianQuotient, SolveResult,
    N4Multiplicities, GenusDecomposition, MoonshineReport, ClassInfo,
    GroupClassData, MukaiGroupSpec, FgRecord, LatticeReport, CriterionResult,
)


def _values(cls, salt=0):
    # hashable, distinct per field, and stable under CharacterTable's
    # tuple() of its classes and characters
    return [(name, i + salt) for i, name in enumerate(cls.__slots__)]


def _reference(cls):
    return dataclasses.make_dataclass(cls.__qualname__, cls.__slots__,
                                      frozen=True)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_matches_a_frozen_dataclass(cls):
    values = _values(cls)
    rec, twin = cls(*values), cls(*_values(cls))
    ref = _reference(cls)(*values)
    assert rec == twin and hash(rec) == hash(twin) == hash(ref)
    assert rec != cls(*_values(cls, salt=1))
    assert rec != ref and (rec == values) is False
    assert repr(rec) == repr(ref)
    assert [getattr(rec, f) for f in cls.__slots__] == values
    assert copy.deepcopy(rec) == rec
    assert pickle.loads(pickle.dumps(rec)) == rec
    for name in cls.__slots__:
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"cannot assign to field '{name}'"):
            setattr(rec, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"cannot delete field '{name}'"):
            delattr(rec, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.not_a_field = 1
    assert [getattr(rec, f) for f in cls.__slots__] == values
