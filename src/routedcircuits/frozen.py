"""Immutable values written as plain classes, with no code generated at import.

A :class:`Frozen` value refuses every assignment and deletion of an
attribute, as a frozen dataclass does; its constructor writes the fields
straight into ``self.__dict__`` (or, in a class with ``__slots__``, through
``object.__setattr__``).  A :class:`Record` is also compared, hashed and
shown by its fields, as a dataclass with ``eq=True`` is.

Every value pickles and copies by one rule, :meth:`Record.__reduce__`: call
the class again with its ``_fields`` in order, each read-only mapping passed
as a dict, so the constructor validates the copy and derives the rest
again.  A Record's ``_fields`` are therefore its constructor's parameters.
The one exception is :class:`iodag.Partition`, built on :class:`Frozen`
alone: its slots hold the blocks it derives, not its constructor's
arguments, so it writes its own ``__reduce__``.
"""

from __future__ import annotations

from types import MappingProxyType


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
    hashed as the tuple of its fields, shown as ``Class(field=value, ...)``,
    and rebuilt from them by its constructor, whose parameters they are."""

    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __reduce__(self):
        args = (dict(v) if type(v) is MappingProxyType else v for v in self._astuple())
        return type(self), tuple(args)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
