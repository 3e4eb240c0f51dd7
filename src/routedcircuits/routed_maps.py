"""Routed linear maps: a dense complex matrix paired with the relation it follows.

The route of a map whitelists sector-to-sector blocks; construction rejects
matrices with weight on forbidden blocks instead of projecting it away.
Composition, tensoring, adjoints, relabelling and equality are written
once, over Kraus stacks, for routed maps (one operator) and routed CP maps
alike.  Gated composition additionally enforces the route-level properness
conditions that make isometry/unitary behaviour compose.
"""

from __future__ import annotations

import math
from typing import Iterable, TypeVar

import numpy as np

from . import relations as rel
from .errors import (
    DomainMismatch,
    ImproperComposition,
    InvariantViolation,
    RouteViolation,
    ShapeMismatch,
)
from .frozen import Record
from .relations import Relation
from .spaces import PartitionedSpace, block_maxima, tensor, tensor_matrix

DEFAULT_TOLERANCE = 1e-9


def _check_numbers(tolerance: float, arrays: Iterable[np.ndarray], what: str) -> None:
    """Reject a negative or non-finite tolerance and non-finite entries.

    The route checks take maxima of entry magnitudes, which a NaN would
    silently pass, so finiteness is settled first, once per object.  An
    array's sum is NaN or infinite exactly when one of its entries is,
    unless the entries come within a factor of the array's size of the
    largest float, where no map can be composed anyway.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance!r}")
    if not all(np.isfinite(a.sum()) for a in arrays):
        raise InvariantViolation(f"non-finite entries in the {what}")


def _stored(given) -> np.ndarray:
    """The array a routed map or CP map keeps of ``given``: ``given`` itself
    when it is complex, C-contiguous and read-only and its data is owned by
    a read-only array of the same size (itself, or the one-operator stack
    it is the matrix of), so that nothing can write to it; anything else
    copied in C order and made read-only."""
    owner = given if getattr(given, "base", None) is None else given.base
    kept = isinstance(owner, np.ndarray) and owner.base is None and not owner.flags.writeable
    if kept and owner.size == given.size and given.dtype == complex and given.flags.c_contiguous:
        return given
    array = np.array(given, dtype=complex, order="C")
    array.setflags(write=False)
    return array


def _check_typing(matrix: np.ndarray, route, domain, codomain) -> None:
    """Raise unless a matrix, or a ``(count, rows, columns)`` stack of them,
    and its plain or coherence route are typed by the spaces."""
    if matrix.shape[-2:] != (codomain.total_dim, domain.total_dim):
        raise ShapeMismatch(
            f"matrix shape {matrix.shape} does not match spaces "
            f"({codomain.total_dim}, {domain.total_dim})"
        )
    if route.domain != domain.sector_labels or route.codomain != codomain.sector_labels:
        raise ShapeMismatch("route is not typed by the given spaces' sector labels")


def _forbidden_block_excess(
    matrix: np.ndarray, route: Relation, domain: PartitionedSpace, codomain: PartitionedSpace
) -> float:
    """Largest entry magnitude sitting on a block the route forbids, after
    checking that the matrix and the route are typed by the spaces.

    A stack of matrices, with ``matrix`` of shape ``(count, rows, columns)``,
    is checked as a whole.  A route that forbids nothing has no excess.
    """
    _check_typing(matrix, route, domain, codomain)
    if route.matrix.all():
        return 0.0
    top = block_maxima(np.abs(matrix), codomain, domain)  # top[..., l, k]
    return float(top.max(where=~route.matrix.T, initial=0.0))


def follows(
    matrix: np.ndarray,
    route: Relation,
    domain: PartitionedSpace,
    codomain: PartitionedSpace,
    tol: float = DEFAULT_TOLERANCE,
) -> bool:
    """Whether every forbidden sector block of ``matrix`` (or of every matrix
    of a ``(count, rows, columns)`` stack) is within ``tol`` of zero."""
    matrix = np.asarray(matrix)
    _check_numbers(tol, (matrix,), "matrix")
    return _forbidden_block_excess(matrix, route, domain, codomain) <= tol


class RoutedMap(Record):
    """A linear map together with the route it follows.

    ``kraus_stack`` is a read-only ``(1, d_out, d_in)`` view of ``matrix``:
    the pairwise algebra below reads only it, for routed CP maps too.
    ``matrix`` is stored by the rule of :func:`_stored`.
    """

    _fields = ("route", "matrix", "domain", "codomain", "tolerance")
    _kind = "maps"  # in messages

    def __init__(
        self,
        route: Relation,
        matrix: np.ndarray,
        domain: PartitionedSpace,
        codomain: PartitionedSpace,
        tolerance: float = DEFAULT_TOLERANCE,
    ):
        matrix = _stored(matrix)
        if matrix.ndim != 2:
            raise ShapeMismatch(f"a routed map needs a matrix, got shape {matrix.shape}")
        _check_numbers(tolerance, (matrix,), "matrix")
        excess = _forbidden_block_excess(matrix, route, domain, codomain)
        if excess > tolerance:
            raise RouteViolation(
                f"matrix has weight {excess:.3e} on a forbidden sector block "
                f"(tolerance {tolerance:.1e})"
            )
        self.__dict__.update(
            route=route, matrix=matrix, domain=domain, codomain=codomain, tolerance=tolerance,
            kraus_stack=matrix[None],
        )

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, space: PartitionedSpace, tolerance: float = DEFAULT_TOLERANCE) -> "RoutedMap":
        """The identity map with the diagonal route."""
        return cls(
            Relation.identity(space.sector_labels),
            np.eye(space.total_dim, dtype=complex),
            space,
            space,
            tolerance,
        )

    @classmethod
    def from_stack(cls, route, stack, domain, codomain, tolerance=DEFAULT_TOLERANCE):
        """The map whose ``kraus_stack`` is ``stack``, of one operator."""
        (matrix,) = stack
        return cls(route, matrix, domain, codomain, tolerance)

    def __repr__(self) -> str:
        return (
            f"RoutedMap({self.domain!r} -> {self.codomain!r}, "
            f"route weight {int(self.route.matrix.sum())})"
        )

    # -- shared with routed CP maps --------------------------------------

    def __eq__(self, other) -> bool:
        """Representation equality: the same route, spaces and Kraus stack,
        operators in order, so two Kraus lists of one channel in different
        orders differ; compare ``choi_matrix`` to compare channels."""
        return (
            isinstance(other, type(self))
            and self.route == other.route
            and self.domain == other.domain
            and self.codomain == other.codomain
            and np.array_equal(self.kraus_stack, other.kraus_stack)
        )

    def tensor(self, right):
        """``self ⊗ right``; see :func:`tensor_map`."""
        return tensor_map(self, right)

    def relabel(
        self,
        domain: PartitionedSpace | None = None,
        codomain: PartitionedSpace | None = None,
    ):
        """Rename sector labels without touching coordinates.

        A missing space stays as it is; a replacement must have the same
        sector dimension list.
        """
        domain = domain if domain is not None else self.domain
        codomain = codomain if codomain is not None else self.codomain
        if domain.sector_dims != self.domain.sector_dims:
            raise ShapeMismatch("relabelled domain changes sector dimensions")
        if codomain.sector_dims != self.codomain.sector_dims:
            raise ShapeMismatch("relabelled codomain changes sector dimensions")
        route = type(self.route)(domain.sector_labels, codomain.sector_labels, self.route.matrix)
        return self.from_stack(route, self.kraus_stack, domain, codomain, self.tolerance)


Routed = TypeVar("Routed")  # a RoutedMap or a routed_cpms.RoutedCPM


def _require_composable(second: Routed, first: Routed) -> None:
    if first.codomain != second.domain:
        raise DomainMismatch(
            f"cannot compose {first._kind}: {first.codomain!r} != {second.domain!r}"
        )


def compose(second: Routed, first: Routed) -> Routed:
    """Pairwise sequential composition: the routes compose and the operators
    multiply pairwise, ``second``'s operator index outermost, straight into
    a read-only stack that the composite keeps without a copy."""
    _require_composable(second, first)
    a, b = second.kraus_stack, first.kraus_stack
    kraus = np.empty((len(a) * len(b), a.shape[1], b.shape[2]), dtype=complex)
    np.matmul(a[:, None], b[None], out=kraus.reshape(len(a), len(b), *kraus.shape[1:]))
    kraus.setflags(write=False)
    return first.from_stack(
        rel.compose(second.route, first.route),
        kraus,
        first.domain,
        second.codomain,
        max(first.tolerance, second.tolerance),
    )


def tensor_map(left: Routed, right: Routed) -> Routed:
    """Pairwise parallel composition in the canonical tensor bases: the
    routes and the operators tensor pairwise, ``left``'s operator index
    outermost."""
    kraus = tensor_matrix(
        left.kraus_stack[:, None],
        right.kraus_stack[None],
        left.domain,
        right.domain,
        left.codomain,
        right.codomain,
    )
    return left.from_stack(
        rel.product(left.route, right.route),
        kraus.reshape(-1, *kraus.shape[2:]),
        tensor(left.domain, right.domain),
        tensor(left.codomain, right.codomain),
        max(left.tolerance, right.tolerance),
    )


def dagger(op: Routed) -> Routed:
    """Adjoint: every operator conjugate-transposed, written once in C order
    into a read-only stack that the adjoint keeps, with the transposed route."""
    adjoint = np.conjugate(op.kraus_stack.transpose(0, 2, 1), order="C")
    adjoint.setflags(write=False)
    return op.from_stack(rel.transpose(op.route), adjoint, op.codomain, op.domain, op.tolerance)


def is_practical_isometry(op: Routed, tol: float | None = None) -> bool:
    """Whether ``Σ K†K`` over the operators, read on the practical input
    coordinates (those of the sectors the route's plain view relates to
    anything), is the identity there: a partial isometry for a map, and
    practical trace preservation for a channel.

    With ``K = A + iB``, ``Σ K†K = AᵀA + BᵀB + i(AᵀB - BᵀA)``, all four
    read off one real product ``M`` of the stack's real view with itself,
    so the stack is not copied: ``(AᵀA + iAᵀB) - i(BᵀA + iBᵀB)``, two
    complex views of ``M``."""
    tol = op.tolerance if tol is None else tol
    _check_numbers(tol, (), "operators")
    practical = rel.diagonal_view(op.route).any(axis=1)[op.domain.sector_index]
    d = op.domain.total_dim
    parts = op.kraus_stack.reshape(-1, d).view(np.float64)  # columns re, im of each input
    rows = (parts.T @ parts).view(complex).reshape(d, 2, d)  # [i, re or im of column i, j]
    gram = (rows[:, 0] - 1j * rows[:, 1])[np.ix_(practical, practical)]
    return float(np.abs(gram - np.eye(len(gram))).max(initial=0.0)) <= tol


def is_practical_unitary(routed: RoutedMap, tol: float | None = None) -> bool:
    """Practical isometry in both directions."""
    return is_practical_isometry(routed, tol) and is_practical_isometry(dagger(routed), tol)


def checked_compose(second: RoutedMap, first: RoutedMap, mode: str = "none") -> RoutedMap:
    """Compose with the properness gate of the requested mode.

    mode 'isometry' guarantees that practical isometries compose to a
    practical isometry, 'unitary' likewise for practical unitaries, 'none'
    skips the gate.  The gate looks only at the two routes; on failure the
    raised error carries the escaping labels.
    """
    if mode not in ("none", "isometry", "unitary"):
        raise ValueError(f"unknown mode {mode!r}")
    _require_composable(second, first)
    if mode != "none":
        _require_proper(first.route, second.route, f"{mode} maps", mode == "unitary")
    return compose(second, first)


def _require_proper(first, second, kind: str, both_sides: bool) -> None:
    """Raise ImproperComposition with the labels escaping the gate of
    ``second ∘ first``, two routes of either kind; the output side counts
    only with ``both_sides``."""
    inputs, outputs = rel.escaped(first, second)
    if inputs:
        raise ImproperComposition(
            f"composition is improper for {kind}: labels {list(inputs)} "
            "escape the downstream practical input set",
            side="input",
            witness=inputs,
        )
    if both_sides and outputs:
        raise ImproperComposition(
            f"composition is improper for {kind}: labels {list(outputs)} "
            "escape the upstream practical output set",
            side="output",
            witness=outputs,
        )
