"""Immutable values written as plain classes, with no code generated at import.

A :class:`Frozen` value refuses every assignment and deletion of an
attribute, as a frozen dataclass does; its constructor writes the fields
straight into ``self.__dict__`` (or, in a class with ``__slots__``, through
``object.__setattr__``), so a copy or an unpickled value is restored the
same way.  A :class:`Record` is also compared, hashed and
shown by its fields, as a dataclass with ``eq=True`` is.
"""

from __future__ import annotations


class Frozen:
    """A value whose attributes are set once, by its constructor."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Record(Frozen):
    """A frozen value compared, hashed and shown by its ``_fields``, in
    order: equal only to a value of exactly its class with equal fields,
    hashed as the tuple of its fields, and shown as ``Class(field=value, ...)``."""

    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
