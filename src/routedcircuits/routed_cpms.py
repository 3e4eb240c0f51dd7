"""Routed completely positive maps, represented by Kraus operator lists.

The coherence route of a CP map whitelists pairs of sector connections that
may stay coherent.  Route-following is decided on Choi-matrix blocks: the
defining condition is linear in the input state, so vanishing of the
forbidden Choi blocks is both finite and complete.  Channel equality
elsewhere in the package is likewise Choi comparison; Kraus lists are never
minimised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import relations as rel
from .errors import DomainMismatch, NotFullDecoherence, RouteViolation, ShapeMismatch
from .relations import CPRelation, Label
from .routed_maps import (
    DEFAULT_TOLERANCE,
    RoutedMap,
    _check_numbers,
    _relabelled_spaces,
    _require_proper,
    _tensor_flat,
    follows,
)
from .spaces import PartitionedSpace, subset_projector, tensor, tensor_matrix


def choi_matrix(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """Choi matrix of ``rho -> sum_i K rho K^dag``, rows indexed (out, in).

    The vectorised operators are multiplied in chunks of at most ``d`` of
    them, so the temporaries besides the result stay within its size, and
    a list shorter than ``d`` costs no second ``d x d`` array at all.
    """
    d = kraus[0].size
    out = None
    for start in range(0, len(kraus), d):
        chunk = kraus[start : start + d]
        vectors = np.array([np.asarray(k, dtype=complex).reshape(d) for k in chunk])
        part = vectors.T @ vectors.conj()
        if out is None:
            out = part
        else:
            out += part
    return out


def apply_channel(kraus: Sequence[np.ndarray], rho: np.ndarray) -> np.ndarray:
    out = np.zeros((kraus[0].shape[0], kraus[0].shape[0]), dtype=complex)
    for k in kraus:
        out += k @ rho @ k.conj().T
    return out


def _choi_block_excess(
    kraus: Sequence[np.ndarray],
    route: CPRelation,
    domain: PartitionedSpace,
    codomain: PartitionedSpace,
) -> float:
    """Largest Choi entry sitting on a coherence block the route forbids,
    after checking that the operators and the route are typed by the spaces.

    One pass per codomain sector of the first output index, as in
    :func:`routed_maps._forbidden_block_excess`; the mask of each pass
    covers the remaining three indices.
    """
    shape = (codomain.total_dim, domain.total_dim)
    if any(k.shape != shape for k in kraus):
        raise ShapeMismatch(f"Kraus operators must all have shape {shape}")
    if route.base_domain != domain.sector_labels or route.base_codomain != codomain.sector_labels:
        raise ShapeMismatch("route is not typed by the given spaces' sector labels")
    d_in, d_out = domain.total_dim, codomain.total_dim
    choi = choi_matrix(kraus).reshape(d_out, d_in, d_out, d_in)
    forbidden = ~route.matrix
    coords = np.ix_(domain.sector_index, codomain.sector_index, domain.sector_index)
    worst = 0.0
    for l, (offset, dim) in enumerate(zip(codomain.sector_offsets, codomain.sector_dims)):
        if not forbidden[:, :, l, :].any():
            continue
        # mask[k, l2, k2]: the connection k -> l may not be coherent with k2 -> l2
        mask = forbidden[:, :, l, :].transpose(0, 2, 1)[coords]
        band = np.abs(choi[offset : offset + dim])
        worst = max(worst, float(band.max(where=mask, initial=0.0)))
    return worst


def follows_cp(
    kraus: Sequence[np.ndarray],
    route: CPRelation,
    domain: PartitionedSpace,
    codomain: PartitionedSpace,
    tol: float = DEFAULT_TOLERANCE,
) -> bool:
    """Whether the channel's forbidden Choi blocks all vanish within ``tol``."""
    kraus = [np.asarray(k, dtype=complex) for k in kraus]
    return _choi_block_excess(kraus, route, domain, codomain) <= tol


@dataclass(frozen=True, eq=False)
class RoutedCPM:
    """A CP map (as a Kraus list) together with the coherence route it follows."""

    route: CPRelation
    kraus: tuple[np.ndarray, ...] = field(repr=False)
    domain: PartitionedSpace
    codomain: PartitionedSpace
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        kraus = tuple(np.array(k, dtype=complex) for k in self.kraus)
        if not kraus:
            raise ShapeMismatch("a routed CP map needs at least one Kraus operator")
        for k in kraus:
            k.setflags(write=False)
        object.__setattr__(self, "kraus", kraus)
        _check_numbers(self.tolerance, kraus, "Kraus operators")
        excess = _choi_block_excess(kraus, self.route, self.domain, self.codomain)
        if excess > self.tolerance:
            raise RouteViolation(
                f"channel has Choi weight {excess:.3e} on a forbidden coherence block "
                f"(tolerance {self.tolerance:.1e})"
            )

    def __eq__(self, other) -> bool:
        """Representation equality; use :func:`choi_matrix` to compare channels."""
        return (
            isinstance(other, RoutedCPM)
            and self.route == other.route
            and self.domain == other.domain
            and self.codomain == other.codomain
            and len(self.kraus) == len(other.kraus)
            and all(np.array_equal(a, b) for a, b in zip(self.kraus, other.kraus))
        )

    def __repr__(self) -> str:
        return (
            f"RoutedCPM({self.domain!r} -> {self.codomain!r}, "
            f"{len(self.kraus)} Kraus operators)"
        )

    def choi(self) -> np.ndarray:
        return choi_matrix(self.kraus)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return apply_channel(self.kraus, rho)

    @classmethod
    def identity(cls, space: PartitionedSpace, tolerance: float = DEFAULT_TOLERANCE) -> "RoutedCPM":
        return lift_pure(RoutedMap.identity(space, tolerance))

    @classmethod
    def lift(cls, pure: RoutedMap) -> "RoutedCPM":
        """The routed CP map acting as ``pure``; see :func:`lift_pure`."""
        return lift_pure(pure)

    def compose(self, first: "RoutedCPM") -> "RoutedCPM":
        """``self ∘ first``; see :func:`compose`."""
        return compose(self, first)

    def tensor(self, right: "RoutedCPM") -> "RoutedCPM":
        """``self ⊗ right``; see :func:`tensor_cpm`."""
        return tensor_cpm(self, right)

    def relabel(
        self,
        domain: PartitionedSpace | None = None,
        codomain: PartitionedSpace | None = None,
    ) -> "RoutedCPM":
        """Rename sector labels without touching coordinates."""
        domain, codomain = _relabelled_spaces(self, domain, codomain)
        route = CPRelation(domain.sector_labels, codomain.sector_labels, self.route.matrix)
        return RoutedCPM(route, self.kraus, domain, codomain, self.tolerance)


def lift_pure(routed: RoutedMap) -> RoutedCPM:
    """The conjugation channel of a routed map, with the fully coherent route."""
    return RoutedCPM(
        rel.full_coherence(routed.route),
        (routed.matrix,),
        routed.domain,
        routed.codomain,
        routed.tolerance,
    )


def compose(second: RoutedCPM, first: RoutedCPM) -> RoutedCPM:
    """Sequential composition: routes compose, Kraus lists multiply pairwise."""
    if first.codomain != second.domain:
        raise DomainMismatch(
            f"cannot compose channels: {first.codomain!r} != {second.domain!r}"
        )
    kraus = tuple(l @ k for l in second.kraus for k in first.kraus)
    return RoutedCPM(
        rel.cp_compose(second.route, first.route),
        kraus,
        first.domain,
        second.codomain,
        max(first.tolerance, second.tolerance),
    )


def tensor_cpm(left: RoutedCPM, right: RoutedCPM) -> RoutedCPM:
    """Parallel composition in the canonical tensor bases."""
    kraus = tuple(
        tensor_matrix(a, b, left.domain, right.domain, left.codomain, right.codomain)
        for a in left.kraus
        for b in right.kraus
    )
    return RoutedCPM(
        rel.cp_product(left.route, right.route),
        kraus,
        tensor(left.domain, right.domain),
        tensor(left.codomain, right.codomain),
        max(left.tolerance, right.tolerance),
    )


def tensor_cpms_flat(channels: list[RoutedCPM]) -> RoutedCPM:
    """Left-fold tensor with labels flattened to one component per factor."""
    return _tensor_flat(channels, RoutedCPM)


def dagger_cpm(channel: RoutedCPM) -> RoutedCPM:
    """Adjoint channel: Kraus-wise dagger with the transposed route."""
    return RoutedCPM(
        rel.cp_transpose(channel.route),
        tuple(k.conj().T for k in channel.kraus),
        channel.codomain,
        channel.domain,
        channel.tolerance,
    )


def is_practically_trace_preserving(channel: RoutedCPM, tol: float | None = None) -> bool:
    """Trace preservation restricted to the practical input space of the
    route's diagonal."""
    tol = channel.tolerance if tol is None else tol
    p = subset_projector(
        channel.domain, rel.practical_input_set(rel.diagonal(channel.route))
    )
    gram = sum(k.conj().T @ k for k in channel.kraus)
    sandwich = p @ gram @ p
    return float(np.abs(sandwich - p).max(initial=0.0)) <= tol


def checked_compose_channel(second: RoutedCPM, first: RoutedCPM) -> RoutedCPM:
    """Compose with the channel properness gate on the routes' diagonals.

    Guarantees that practically trace-preserving channels compose to a
    practically trace-preserving channel.
    """
    if first.codomain != second.domain:
        raise DomainMismatch(
            f"cannot compose channels: {first.codomain!r} != {second.domain!r}"
        )
    _require_proper(rel.diagonal(first.route), rel.diagonal(second.route), "channels", False)
    return compose(second, first)


def kraus_follow_diagonal(channel: RoutedCPM, tol: float | None = None) -> bool:
    """Whether every Kraus operator follows the route's diagonal as a plain
    route.  Holds for every valid routed CP map; this is the cross-check."""
    tol = channel.tolerance if tol is None else tol
    diag = rel.diagonal(channel.route)
    return all(
        follows(k, diag, channel.domain, channel.codomain, tol) for k in channel.kraus
    )


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
    diag = rel.diagonal(channel.route)
    out: list[tuple[Label, Label, list[np.ndarray]]] = []
    d_out, d_in = channel.codomain.total_dim, channel.domain.total_dim
    for k in channel.domain.sector_labels:
        cols = channel.domain.sector_slice(k)
        for l in channel.codomain.sector_labels:
            if not diag.relates(k, l):
                continue
            rows = channel.codomain.sector_slice(l)
            blocks = [op[rows, cols] for op in channel.kraus]
            eigvals, eigvecs = np.linalg.eigh(choi_matrix(blocks))
            ops = []
            cutoff = max(channel.tolerance, 1e-12) * max(1.0, float(eigvals.max(initial=0.0)))
            for value, vec in zip(eigvals, eigvecs.T):
                if value <= cutoff:
                    continue
                small = np.sqrt(value) * vec.reshape(blocks[0].shape)
                full = np.zeros((d_out, d_in), dtype=complex)
                full[rows, cols] = small
                ops.append(full)
            if ops:
                out.append((k, l, ops))
    return out


def discard(space: PartitionedSpace, tolerance: float = DEFAULT_TOLERANCE) -> RoutedCPM:
    """The trace channel, routed to forbid coherence between input sectors."""
    codomain = PartitionedSpace.trivial()
    n = space.sector_labels.size
    route_matrix = np.eye(n, dtype=bool).reshape(n, n, 1, 1)
    kraus = tuple(
        np.eye(space.total_dim, dtype=complex)[i : i + 1, :] for i in range(space.total_dim)
    )
    return RoutedCPM(
        CPRelation(space.sector_labels, codomain.sector_labels, route_matrix),
        kraus,
        space,
        codomain,
        tolerance,
    )


def routed_cpm_to_json(channel: RoutedCPM, domain_name: str, codomain_name: str) -> dict:
    from .routed_maps import matrix_to_json

    return {
        "route": rel.cp_relation_to_json(channel.route),
        "kraus": [matrix_to_json(k) for k in channel.kraus],
        "domain": domain_name,
        "codomain": codomain_name,
    }
