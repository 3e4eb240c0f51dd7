"""Random generators for routed maps and channels.

Used by the test suite and the demo scripts.  The practical-isometry
sampler builds columns sector by sector inside the allowed output
subspaces, orthogonal to everything already placed; it returns None when
the route and dimensions admit no such map (the caller resamples).
"""

from __future__ import annotations

import itertools

import numpy as np

from . import relations as rel
from .relations import IndexSet, Relation
from .routed_cpms import RoutedCPM
from .routed_maps import RoutedMap, is_practical_unitary
from .spaces import PartitionedSpace, sector_blocks


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a complex Gaussian."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_relation(
    domain: IndexSet,
    codomain: IndexSet,
    rng: np.random.Generator,
    density: float = 0.5,
) -> Relation:
    matrix = rng.random((domain.size, codomain.size)) < density
    return Relation(domain, codomain, matrix)


def random_space(
    rng: np.random.Generator, max_sectors: int = 3, max_dim: int = 2, labels=None
) -> PartitionedSpace:
    n = int(rng.integers(1, max_sectors + 1)) if labels is None else len(labels)
    labels = list(range(n)) if labels is None else list(labels)
    dims = [int(rng.integers(1, max_dim + 1)) for _ in range(n)]
    return PartitionedSpace(IndexSet(labels), dims)


def random_matrix_following(
    route: Relation,
    domain: PartitionedSpace,
    codomain: PartitionedSpace,
    rng: np.random.Generator,
    scale: float = 1.0,
) -> np.ndarray:
    """Gaussian matrix supported on the allowed sector blocks only."""
    matrix = np.zeros((codomain.total_dim, domain.total_dim), dtype=complex)
    for _, _, rows, cols in sector_blocks(route.matrix, domain, codomain):
        shape = matrix[rows, cols].shape
        matrix[rows, cols] = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return matrix


def _inverse_sqrt_gram(blocks: list[np.ndarray]) -> np.ndarray:
    """``G^(-1/2)`` for the Gram matrix ``G = Σ b†b`` of the blocks, which
    must be invertible: right-multiplied into every block, it makes their
    Gram matrix the identity."""
    eigvals, eigvecs = np.linalg.eigh(sum(b.conj().T @ b for b in blocks))
    return eigvecs @ np.diag(eigvals**-0.5) @ eigvecs.conj().T


def _null_space(matrix: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the kernel, as columns."""
    if matrix.shape[0] == 0:
        return np.eye(matrix.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(matrix)
    rank = int(np.sum(s > tol * max(matrix.shape)))
    return vh[rank:].conj().T


def random_practical_isometry(
    route: Relation,
    domain: PartitionedSpace,
    codomain: PartitionedSpace,
    rng: np.random.Generator,
) -> RoutedMap | None:
    """A route-following partial isometry with initial domain the practical
    input space, or None when none exists for these dimensions."""
    dim_b = codomain.total_dim
    matrix = np.zeros((dim_b, domain.total_dim), dtype=complex)
    placed = np.zeros((dim_b, 0), dtype=complex)
    practical = np.diag(route.matrix.any(axis=1))  # the practical sectors, each to itself
    for k, _, cols, _ in sector_blocks(practical, domain, domain):
        basis = np.eye(dim_b, dtype=complex)[:, route.matrix[k][codomain.sector_index]]
        kernel = _null_space(placed.conj().T @ basis)
        need = domain.sector_dims[k]
        if kernel.shape[1] < need:
            return None
        shape = (kernel.shape[1], need)
        q, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        columns = basis @ kernel @ q[:, :need]
        matrix[:, cols] = columns
        placed = np.hstack([placed, columns])
    return RoutedMap(route, matrix, domain, codomain)


def random_practical_unitary(
    route: Relation,
    domain: PartitionedSpace,
    codomain: PartitionedSpace,
    rng: np.random.Generator,
) -> RoutedMap | None:
    """A route-following practical unitary, or None when dimensions forbid it."""
    inputs, outputs = route.matrix.any(axis=1), route.matrix.any(axis=0)  # the practical sectors
    if np.dot(inputs, domain.sector_dims) != np.dot(outputs, codomain.sector_dims):
        return None
    candidate = random_practical_isometry(route, domain, codomain, rng)
    if candidate is None:
        return None
    return candidate if is_practical_unitary(candidate) else None


def random_block_diagonal_unitary(
    space: PartitionedSpace, rng: np.random.Generator
) -> RoutedMap:
    """A sector-preserving unitary (identity route)."""
    matrix = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    route = Relation.identity(space.sector_labels)
    for k, _, block, _ in sector_blocks(route.matrix, space, space):
        matrix[block, block] = random_unitary(space.sector_dims[k], rng)
    return RoutedMap(route, matrix, space, space)


def random_kraus_following(
    connectivity: Relation,
    domain: PartitionedSpace,
    codomain: PartitionedSpace,
    rng: np.random.Generator,
    count: int = 3,
    scale: float = 0.5,
) -> list[np.ndarray]:
    """Random Kraus operators each following the given plain route."""
    return [
        random_matrix_following(connectivity, domain, codomain, rng, scale)
        for _ in range(count)
    ]


def random_coherent_cpm(
    connectivity: Relation,
    domain: PartitionedSpace,
    codomain: PartitionedSpace,
    rng: np.random.Generator,
    count: int = 3,
) -> RoutedCPM:
    """A CP map following the fully coherent route over ``connectivity``."""
    kraus = random_kraus_following(connectivity, domain, codomain, rng, count)
    return RoutedCPM(rel.full_coherence(connectivity), tuple(kraus), domain, codomain)


def random_decohered_cpm(
    connectivity: Relation,
    domain: PartitionedSpace,
    codomain: PartitionedSpace,
    rng: np.random.Generator,
    ops_per_block: int = 2,
    trace_preserving: bool = False,
) -> RoutedCPM:
    """A CP map following the fully decohering route over ``connectivity``.

    Each Kraus operator is confined to a single allowed (input, output)
    sector pair.  With ``trace_preserving`` the per-input-sector blocks are
    rescaled so the channel preserves trace on its practical input space;
    that needs the blocks of an input sector to reach at least its
    dimension, or a ``ValueError`` is raised before anything is drawn.
    """
    if trace_preserving:
        for k, row in enumerate(connectivity.matrix.tolist()):
            reach = ops_per_block * sum(itertools.compress(codomain.sector_dims, row))
            if any(row) and domain.sector_dims[k] > reach:
                raise ValueError(
                    f"input sector {domain.sector_labels.labels[k]!r} has dimension "
                    f"{domain.sector_dims[k]}, but its {ops_per_block} operators per "
                    f"block reach only {reach} dimensions"
                )
    kraus: list[np.ndarray] = []
    blocks = sector_blocks(connectivity.matrix, domain, codomain)
    for _, group in itertools.groupby(blocks, key=lambda block: block[0]):
        block_ops = []
        for _, _, rows, cols in group:
            for _ in range(ops_per_block):
                shape = (rows.stop - rows.start, cols.stop - cols.start)
                draw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                block_ops.append((rows, cols, draw))
        if trace_preserving:
            inv_sqrt = _inverse_sqrt_gram([b for _, _, b in block_ops])
            block_ops = [(rows, cols, b @ inv_sqrt) for rows, cols, b in block_ops]
        for rows, cols, b in block_ops:
            full = np.zeros((codomain.total_dim, domain.total_dim), dtype=complex)
            full[rows, cols] = b
            kraus.append(full)
    if not kraus:  # empty connectivity: the zero channel
        kraus.append(np.zeros((codomain.total_dim, domain.total_dim), dtype=complex))
    return RoutedCPM(rel.full_decoherence(connectivity), tuple(kraus), domain, codomain)


def random_sector_preserving_channel(
    space: PartitionedSpace, rng: np.random.Generator, count: int = 2
) -> RoutedCPM:
    """A trace-preserving channel with block-diagonal Kraus operators.

    Follows the fully coherent route over the identity connectivity (each
    sector maps to itself, coherence between sectors is kept).
    """
    dim = space.total_dim
    kraus = [np.zeros((dim, dim), dtype=complex) for _ in range(count)]
    identity = Relation.identity(space.sector_labels)
    for k, _, block, _ in sector_blocks(identity.matrix, space, space):
        d = space.sector_dims[k]
        raw = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(count)]
        inv_sqrt = _inverse_sqrt_gram(raw)
        for op, b in zip(kraus, raw):
            op[block, block] = b @ inv_sqrt
    return RoutedCPM(rel.full_coherence(identity), tuple(kraus), space, space)


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = z @ z.conj().T
    return rho / np.trace(rho)
