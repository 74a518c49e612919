"""Frozen record base for the library's plain value classes.

A record class declares its fields once, in ``__slots__``.  The base fills
them from positional arguments in slot order and from keyword arguments by
slot name, and raises TypeError on a missing, repeated or unknown field.
It compares, hashes and prints a record by its fields in slot order, as a
frozen dataclass does, and refuses assignment and deletion with
``dataclasses.FrozenInstanceError``.
The ``dataclasses`` module (and the ``inspect`` chain it imports) is loaded
only on that error path, which keeps it out of the CLI's start-up.
"""

from __future__ import annotations

__all__ = ["Record"]


def _frozen(name: str, verb: str):
    from dataclasses import FrozenInstanceError
    return FrozenInstanceError(f"cannot {verb} field {name!r}")


class Record:
    """Immutable value object whose fields are its ``__slots__``."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__qualname__} takes {len(names)} "
                            f"fields, {len(args)} given")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name not in kwargs:
                raise TypeError(
                    f"{type(self).__qualname__} missing field {name!r}")
            object.__setattr__(self, name, kwargs.pop(name))
        if kwargs:
            raise TypeError(f"{type(self).__qualname__} got unexpected or "
                            f"repeated fields {sorted(kwargs)}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since setattr is closed
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise _frozen(name, "assign to")

    def __delattr__(self, name):
        raise _frozen(name, "delete")
