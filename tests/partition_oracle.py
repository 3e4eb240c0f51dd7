"""The union-find equivalence relation, kept as the test oracle of ``iodag.Partition``.

Blocks are merged one pair at a time with a public ``union`` and are
re-derived and re-sorted on every query; the representative of a block is
its member with the smallest ``repr``.  ``iodag.Partition`` fixes its
blocks at construction and must agree with this class on every query.
"""

from __future__ import annotations

from typing import Iterable


def _sort_key(value):
    return repr(value)


class Partition:
    """An equivalence relation over a finite universe (union-find backed)."""

    def __init__(self, universe: Iterable, pairs: Iterable[tuple] = ()):
        self._parent = {x: x for x in universe}
        for a, b in pairs:
            self.union(a, b)

    # -- construction ----------------------------------------------------

    @classmethod
    def discrete(cls, universe: Iterable) -> "Partition":
        return cls(universe)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable]) -> "Partition":
        blocks = [tuple(block) for block in blocks]
        return cls((x for block in blocks for x in block), _partition_pairs(blocks))

    # -- union-find core ---------------------------------------------------

    def find(self, x):
        parent = self._parent[x]
        if parent != x:
            parent = self._parent[x] = self.find(parent)
        return parent

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        # keep the smaller representative canonical
        if _sort_key(rb) < _sort_key(ra):
            ra, rb = rb, ra
        self._parent[rb] = ra

    # -- queries -------------------------------------------------------------

    @property
    def universe(self) -> frozenset:
        return frozenset(self._parent)

    def related(self, a, b) -> bool:
        return self.find(a) == self.find(b)

    def block_of(self, x) -> frozenset:
        root = self.find(x)
        return frozenset(y for y in self._parent if self.find(y) == root)

    def blocks(self) -> tuple[frozenset, ...]:
        grouped: dict = {}
        for x in self._parent:
            grouped.setdefault(self.find(x), set()).add(x)
        return tuple(
            frozenset(block)
            for _, block in sorted(grouped.items(), key=lambda kv: _sort_key(kv[0]))
        )

    def restrict(self, subset: Iterable) -> "Partition":
        subset = set(subset)
        return Partition(subset, _partition_pairs(block & subset for block in self.blocks()))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Partition)
            and self.universe == other.universe
            and self.blocks() == other.blocks()
        )

    def __repr__(self) -> str:
        rendered = ", ".join(
            "{" + ", ".join(sorted(map(repr, block), key=_sort_key)) + "}"
            for block in self.blocks()
        )
        return f"Partition({rendered})"


def _partition_pairs(blocks: Iterable[Iterable]) -> list[tuple]:
    """Pairs joining each block's first member to the others:
    ``Partition(universe, pairs)`` rebuilds the blocks from them."""
    return [(members[0], other) for members in map(tuple, blocks) for other in members[1:]]
