"""Base of the package's immutable value types.

A value type lists its fields in ``__slots__`` and stores each one once,
in its own ``__init__``, through :data:`setfield`; after that, assigning
or deleting an attribute raises AttributeError.  Two values are equal
when they have the same type and equal fields, and hash alike; the repr
is ``Name(field=value, ...)`` in field order.  Pickling and copying
go through ``__init__``.
"""

from __future__ import annotations

# the one way past Value.__setattr__, for __init__ methods
setfield = object.__setattr__


class Value:
    """Immutable record with equality, hash and repr by type and fields."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        # rebuilt through __init__, checks included: by default pickle and
        # copy restore each slot by assignment, which Value refuses
        return type(self), self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
