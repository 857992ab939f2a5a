"""The base of thetalab's immutable value types whose constructor
validates or derives its fields.

Plain records are typing.NamedTuples.  A type whose constructor checks
or normalises its input subclasses Frozen instead: its fields are the
names in its __slots__, set once in __init__ through _set, and
equality, hashing and repr go by them in that order.
"""

from __future__ import annotations


class Frozen:
    """Fields are the subclass's __slots__; assigning to one raises
    AttributeError once the constructor has set it."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
