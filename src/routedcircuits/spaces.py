"""Partitioned finite-dimensional Hilbert spaces.

A partitioned space is a direct sum of sectors, one per label of an index
set.  The canonical basis keeps sectors contiguous and in label order, so
sector projectors are 0/1 diagonal matrices and coordinate bookkeeping is
exact.  Tensor products therefore come with an explicit permutation from
the raw Kronecker basis to the sector-contiguous one.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvariantViolation, UnknownLabel
from .frozen import Record
from .relations import IndexSet, Label


class SectorRange(Record):
    """Coordinate range of one sector in its parent space."""

    _fields = ("label", "offset", "dim")

    def __init__(self, label: Label, offset: int, dim: int):
        self.__dict__.update(label=label, offset=offset, dim=dim)


class PartitionedSpace(Record):
    """A Hilbert space with a hardcoded ordered orthogonal sector split:
    ``sector_offsets`` holds the first coordinate of each sector."""

    _fields = ("sector_labels", "sector_dims")

    def __init__(self, sector_labels: IndexSet, sector_dims: Iterable[int]):
        sector_dims = tuple(map(operator.index, sector_dims))  # no float or str
        if len(sector_dims) != sector_labels.size:
            raise InvariantViolation(
                f"{sector_labels.size} labels but {len(sector_dims)} sector dims"
            )
        if any(d < 1 for d in sector_dims):
            raise InvariantViolation(f"sector dims must be >= 1, got {sector_dims}")
        offsets = tuple(itertools.accumulate(sector_dims[:-1], initial=0))
        self.__dict__.update(
            sector_labels=sector_labels, sector_dims=sector_dims, sector_offsets=offsets
        )

    @classmethod
    def trivial(cls, dim: int = 1) -> "PartitionedSpace":
        """A single-sector space (an unpartitioned wire)."""
        return cls(IndexSet.trivial(), (dim,))

    @classmethod
    def from_dims(cls, labels: Iterable[Label], dims: Iterable[int]) -> "PartitionedSpace":
        return cls(IndexSet(labels), dims)

    @property
    def total_dim(self) -> int:
        return sum(self.sector_dims)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PartitionedSpace)
            and self.sector_labels == other.sector_labels
            and self.sector_dims == other.sector_dims
        )

    def __hash__(self) -> int:
        return hash((self.sector_labels, self.sector_dims))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{label!r}:{dim}" for label, dim in zip(self.sector_labels, self.sector_dims)
        )
        return f"PartitionedSpace({pairs})"

    def dim_of(self, label: Label) -> int:
        return self.sector_dims[self.sector_labels.position(label)]

    @property
    def sector_index(self) -> np.ndarray:
        """The sector position of every coordinate."""
        return np.repeat(np.arange(len(self.sector_dims)), self.sector_dims)

    def sector_range(self, label: Label) -> SectorRange:
        pos = self.sector_labels.position(label)
        return SectorRange(label, self.sector_offsets[pos], self.sector_dims[pos])

    def sector_slice(self, label: Label) -> slice:
        r = self.sector_range(label)
        return slice(r.offset, r.offset + r.dim)

    def sector_of_coordinate(self, coord: int) -> Label:
        if not 0 <= coord < self.total_dim:
            raise UnknownLabel(f"coordinate {coord} outside space of dim {self.total_dim}")
        return self.sector_labels.labels[self.sector_index[coord]]


def projector(space: PartitionedSpace, label: Label) -> np.ndarray:
    """The 0/1 diagonal projector onto one sector."""
    return subset_projector(space, [label])


def subset_projector(space: PartitionedSpace, labels: Iterable[Label]) -> np.ndarray:
    """Projector onto the direct sum of the given sectors."""
    positions = [space.sector_labels.position(label) for label in labels]
    return np.diag(np.isin(space.sector_index, positions)).astype(complex)


def block_maxima(values: np.ndarray, *spaces: PartitionedSpace) -> np.ndarray:
    """The largest entry of every sector block along the last ``len(spaces)``
    axes, one axis per space, each of which then runs over its space's
    sectors; leading axes pass through."""
    for axis, space in enumerate(spaces, start=values.ndim - len(spaces)):
        values = np.maximum.reduceat(values, space.sector_offsets, axis=axis)
    return values


def sector_blocks(
    allowed: np.ndarray, domain: PartitionedSpace, codomain: PartitionedSpace
) -> Iterator[tuple[int, int, slice, slice]]:
    """``(k, l, rows, cols)`` for every true ``allowed[k, l]``, input sector
    position ``k`` outermost: the coordinate slices of the block from
    sector ``k`` of ``domain`` to sector ``l`` of ``codomain``."""
    inputs, outputs = np.nonzero(allowed)
    for k, l in zip(inputs.tolist(), outputs.tolist()):
        row, col = codomain.sector_offsets[l], domain.sector_offsets[k]
        rows = slice(row, row + codomain.sector_dims[l])
        yield k, l, rows, slice(col, col + domain.sector_dims[k])


# -- tensor products ---------------------------------------------------


def tensor(left: PartitionedSpace, right: PartitionedSpace) -> PartitionedSpace:
    """Tensor product with sectors re-sorted to contiguous row-major order.

    The sector of pair label (k, l) has dimension dim(k) * dim(l); its
    projector equals the Kronecker product of the component projectors once
    coordinates are passed through :func:`kron_to_canonical`.
    """
    return tensor_many((left, right))


def kron_to_canonical(*spaces: PartitionedSpace) -> np.ndarray:
    """Index map sending raw Kronecker coordinates to canonical tensor ones.

    ``perm[r]`` is the coordinate, in the sector-contiguous basis of
    ``tensor_many(spaces)``, of the basis vector whose row-major Kronecker
    coordinate is ``r``.  Sectors come in row-major order of their label
    tuples, and coordinates inside one sector keep their row-major order,
    so the canonical order is a stable sort of the raw coordinates by their
    row-major sector keys.
    """
    keys = np.zeros(1, dtype=np.intp)
    for space in spaces:
        keys = (keys[:, None] * space.sector_labels.size + space.sector_index).ravel()
    order = np.argsort(keys, kind="stable")
    perm = np.empty_like(order)
    perm[order] = np.arange(order.size)
    return perm


def tensor_matrix(
    matrix_left: np.ndarray,
    matrix_right: np.ndarray,
    domain_left: PartitionedSpace,
    domain_right: PartitionedSpace,
    codomain_left: PartitionedSpace,
    codomain_right: PartitionedSpace,
) -> np.ndarray:
    """Kronecker product of two maps, in the canonical tensor bases.

    Leading axes broadcast, so stacks of matrices give stacks of products.
    """
    matrix_left, matrix_right = np.asarray(matrix_left), np.asarray(matrix_right)
    kron = matrix_left[..., :, None, :, None] * matrix_right[..., None, :, None, :]
    rows = matrix_left.shape[-2] * matrix_right.shape[-2]
    kron = kron.reshape(*kron.shape[:-4], rows, -1)
    out_perm = kron_to_canonical(codomain_left, codomain_right)
    in_perm = kron_to_canonical(domain_left, domain_right)
    result = np.empty_like(kron)
    result[..., out_perm[:, None], in_perm] = kron
    return result


def tensor_many(spaces: Sequence[PartitionedSpace]) -> PartitionedSpace:
    """n-ary tensor with flat per-factor label tuples.

    Returns the trivial space for no factors and the factor itself for one;
    otherwise sector labels are tuples with one component per factor, in
    row-major order, matching a left fold of :func:`tensor` coordinatewise.
    Component labels stay opaque: a component may itself be a tuple.
    """
    if not spaces:
        return PartitionedSpace.trivial()
    if len(spaces) == 1:
        return spaces[0]
    labels = itertools.product(*(space.sector_labels for space in spaces))
    dims = itertools.product(*(space.sector_dims for space in spaces))
    return PartitionedSpace(IndexSet(labels), (math.prod(d) for d in dims))
