"""Routed completely positive maps, represented by Kraus operator lists.

The coherence route of a CP map whitelists pairs of sector connections that
may stay coherent.  Route-following is decided on Choi-matrix blocks: the
defining condition is linear in the input state, so vanishing of the
forbidden Choi blocks is both finite and complete.  A construction first
tries a Cauchy–Schwarz bound on those blocks, from the norms of the
operators' coordinates, then one from each operator's block maxima; both
are exact for one operator, and a route that forbids nothing needs neither;
only a map neither clears builds its Choi matrix.  Two channels are the
same map when their Choi matrices are equal, while ``==`` compares Kraus
stacks in order; Kraus lists are never minimised.  A channel stores its
operators as one read-only ``(count, d_out, d_in)`` array, ``kraus_stack``,
which the Choi matrix works on whole.  ``compose``, ``tensor_cpm``,
``dagger_cpm``, ``relabel`` and ``==`` are those of :mod:`routed_maps`,
written once over Kraus stacks; their routes compose, tensor and transpose
by the one algebra of :mod:`relations`, which reads a coherence route's two
sector axes per side as one.  ``is_practically_trace_preserving`` is
:func:`routed_maps.is_practical_isometry`, and the channel gate is the
isometry gate: both read a route's plain view, which for a coherence route
is its diagonal.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import relations as rel
from .errors import NotFullDecoherence, RouteViolation, ShapeMismatch
from .frozen import Record
from .relations import CPRelation, Label
from .routed_maps import (
    DEFAULT_TOLERANCE,
    RoutedMap,
    _check_numbers,
    _check_typing,
    _require_composable,
    _require_proper,
    _stored,
    compose,
    follows,
)
from .routed_maps import dagger as dagger_cpm
from .routed_maps import is_practical_isometry as is_practically_trace_preserving
from .routed_maps import tensor_map as tensor_cpm
from .spaces import PartitionedSpace, block_maxima, sector_blocks


def _stacked(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """The operators as one ``(count, d_out, d_in)`` complex array: a
    stacked complex array as it is, anything else in a new read-only array,
    which nothing else holds and so :func:`_stored` keeps."""
    try:
        stack = np.asarray(kraus, complex)
    except ValueError:
        raise ShapeMismatch("Kraus operators must all have the same shape") from None
    if stack is not kraus and stack.base is None:
        stack.setflags(write=False)
    if not len(stack):
        raise ShapeMismatch("a routed CP map needs at least one Kraus operator")
    if stack.ndim != 3:
        raise ShapeMismatch(f"Kraus operators must be matrices, got a stack of shape {stack.shape}")
    return stack


def choi_matrix(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """Choi matrix of ``rho -> sum_i K rho K^dag``, rows indexed (out, in):
    one product of the vectorised operators with their conjugates."""
    stack = _stacked(kraus)
    vectors = stack.reshape(len(stack), -1)
    return vectors.T @ vectors.conj()


def apply_channel(kraus: Sequence[np.ndarray], rho: np.ndarray) -> np.ndarray:
    stack = _stacked(kraus)
    return (stack @ rho @ stack.conj().transpose(0, 2, 1)).sum(axis=0)


def _choi_block_bound(
    stack: np.ndarray, route: CPRelation, domain: PartitionedSpace, codomain: PartitionedSpace
) -> float:
    """An upper bound on :func:`_choi_block_excess`, equal to it for one
    operator, from one pass over the stack: no Choi matrix is built.

    By Cauchy–Schwarz, a Choi entry is at most ``n[a] * n[b]``, where
    ``n`` is the norm of a coordinate across the operators.  With
    ``top[k, l]`` the largest ``n`` on the block from input sector ``k`` to
    output sector ``l``, the bound is the largest ``top[k, l] *
    top[k', l']`` over the forbidden ``(k, k', l, l')``.
    """
    # per (out, in) coordinate, from views of the stack: no copy of it is made
    norms = np.sqrt(sum(np.einsum("koi,koi->oi", part, part) for part in (stack.real, stack.imag)))
    top = block_maxima(norms, codomain, domain).T
    pairs = top[:, None, :, None] * top[None, :, None, :]
    return float(pairs.max(where=~route.matrix, initial=0.0))


def _operator_block_bound(stack: np.ndarray, route: CPRelation, domain, codomain) -> float:
    """``Σ_i top[i, l, k] * top[i, l', k']`` over the forbidden blocks, with
    ``top`` each operator's block maxima: an upper bound on a Choi entry,
    zero where no one operator touches both blocks (as in a decohering
    channel, or a product of them), where the Cauchy–Schwarz bound is not."""
    top = block_maxima(np.abs(stack), codomain, domain)
    pairs = np.einsum("ilk,imj->kjlm", top, top)  # [k, k', l, l']
    return float(pairs.max(where=~route.matrix, initial=0.0))


def _choi_block_excess(
    kraus: Sequence[np.ndarray],
    route: CPRelation,
    domain: PartitionedSpace,
    codomain: PartitionedSpace,
) -> float:
    """Largest Choi entry sitting on a coherence block the route forbids,
    after checking that the operators and the route are typed by the spaces."""
    kraus = _stacked(kraus)
    _check_typing(kraus, route, domain, codomain)
    d_in, d_out = domain.total_dim, codomain.total_dim
    choi = choi_matrix(kraus).reshape(d_out, d_in, d_out, d_in)
    top = block_maxima(np.abs(choi), codomain, domain, codomain, domain)  # top[l, k, l', k']
    return float(top.max(where=~route.matrix.transpose(2, 0, 3, 1), initial=0.0))


def follows_cp(
    kraus: Sequence[np.ndarray],
    route: CPRelation,
    domain: PartitionedSpace,
    codomain: PartitionedSpace,
    tol: float = DEFAULT_TOLERANCE,
) -> bool:
    """Whether the channel's forbidden Choi blocks all vanish within ``tol``."""
    kraus = _stacked(kraus)
    _check_numbers(tol, (kraus,), "Kraus operators")
    return _choi_block_excess(kraus, route, domain, codomain) <= tol


class RoutedCPM(Record):
    """A CP map (as a Kraus list) together with the coherence route it follows.

    ``kraus`` may be given as a sequence of operators or as one stacked
    array; it is kept as ``kraus_stack`` itself, the operators stacked
    read-only along a leading axis, by the storage rule of routed maps
    (:func:`routed_maps._stored`).
    """

    _fields = ("route", "kraus", "domain", "codomain", "tolerance")
    _kind = "channels"

    def __init__(
        self,
        route: CPRelation,
        kraus: np.ndarray,
        domain: PartitionedSpace,
        codomain: PartitionedSpace,
        tolerance: float = DEFAULT_TOLERANCE,
    ):
        stack = _stored(_stacked(kraus))
        self.__dict__.update(
            route=route, kraus=stack, domain=domain, codomain=codomain, tolerance=tolerance,
            kraus_stack=stack,
        )
        _check_numbers(tolerance, (stack,), "Kraus operators")
        _check_typing(stack, route, domain, codomain)
        if route.matrix.all():  # no block is forbidden
            return
        # half the tolerance leaves room for rounding in the bounds
        for bound in (_choi_block_bound, _operator_block_bound):
            if bound(stack, route, domain, codomain) <= tolerance / 2:
                return
        excess = _choi_block_excess(stack, route, domain, codomain)
        if excess > tolerance:
            raise RouteViolation(
                f"channel has Choi weight {excess:.3e} on a forbidden coherence block "
                f"(tolerance {tolerance:.1e})"
            )

    def __repr__(self) -> str:
        return (
            f"RoutedCPM({self.domain!r} -> {self.codomain!r}, "
            f"{len(self.kraus)} Kraus operators)"
        )

    def choi(self) -> np.ndarray:
        return choi_matrix(self.kraus_stack)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return apply_channel(self.kraus_stack, rho)

    @classmethod
    def identity(cls, space: PartitionedSpace, tolerance: float = DEFAULT_TOLERANCE) -> "RoutedCPM":
        return lift_pure(RoutedMap.identity(space, tolerance))

    @classmethod
    def from_stack(cls, route, stack, domain, codomain, tolerance=DEFAULT_TOLERANCE):
        return cls(route, stack, domain, codomain, tolerance)

    # the pairwise algebra of routed maps, which reads only ``kraus_stack``
    __eq__, tensor, relabel = RoutedMap.__eq__, RoutedMap.tensor, RoutedMap.relabel


def lift_pure(routed: RoutedMap) -> RoutedCPM:
    """The conjugation channel of a routed map, with the fully coherent route."""
    return RoutedCPM(
        rel.full_coherence(routed.route),
        routed.kraus_stack,
        routed.domain,
        routed.codomain,
        routed.tolerance,
    )


def checked_compose_channel(second: RoutedCPM, first: RoutedCPM) -> RoutedCPM:
    """Compose with the channel properness gate on the routes' diagonals.

    Guarantees that practically trace-preserving channels compose to a
    practically trace-preserving channel.
    """
    _require_composable(second, first)
    _require_proper(first.route, second.route, "channels", False)
    return compose(second, first)


def kraus_follow_diagonal(channel: RoutedCPM, tol: float | None = None) -> bool:
    """Whether every Kraus operator follows the route's diagonal as a plain
    route.  Holds for every valid routed CP map; this is the cross-check."""
    tol = channel.tolerance if tol is None else tol
    diag = rel.diagonal(channel.route)
    return follows(channel.kraus_stack, diag, channel.domain, channel.codomain, tol)


def adapted_kraus_decomposition(
    channel: RoutedCPM,
) -> list[tuple[Label, Label, list[np.ndarray]]]:
    """Split a fully decohering channel into per-(input, output) sector pieces.

    For each allowed (k, l) the returned operators are supported on the
    single block from sector k to sector l; they are obtained by
    eigendecomposing the Choi matrix of the block map
    ``rho -> P_l C(P_k rho P_k) P_l``.  The union of all pieces reproduces
    the channel's Choi matrix.
    """
    if channel.route != rel.full_decoherence(rel.diagonal(channel.route)):
        raise NotFullDecoherence(
            "adapted decompositions only exist for fully decohering routes"
        )
    out: list[tuple[Label, Label, list[np.ndarray]]] = []
    domain, codomain = channel.domain, channel.codomain
    for k, l, rows, cols in sector_blocks(rel.diagonal_view(channel.route), domain, codomain):
        blocks = channel.kraus_stack[:, rows, cols]
        eigvals, eigvecs = np.linalg.eigh(choi_matrix(blocks))
        ops = []
        cutoff = max(channel.tolerance, 1e-12) * max(1.0, float(eigvals.max(initial=0.0)))
        for value, vec in zip(eigvals, eigvecs.T):
            if value <= cutoff:
                continue
            full = np.zeros((codomain.total_dim, domain.total_dim), dtype=complex)
            full[rows, cols] = np.sqrt(value) * vec.reshape(blocks.shape[1:])
            ops.append(full)
        if ops:
            out.append((domain.sector_labels.labels[k], codomain.sector_labels.labels[l], ops))
    return out


def discard(space: PartitionedSpace, tolerance: float = DEFAULT_TOLERANCE) -> RoutedCPM:
    """The trace channel, routed to forbid coherence between input sectors."""
    codomain = PartitionedSpace.trivial()
    n = space.sector_labels.size
    route_matrix = np.eye(n, dtype=bool).reshape(n, n, 1, 1)
    kraus = np.eye(space.total_dim, dtype=complex)[:, None, :]
    return RoutedCPM(
        CPRelation(space.sector_labels, codomain.sector_labels, route_matrix),
        kraus,
        space,
        codomain,
        tolerance,
    )
