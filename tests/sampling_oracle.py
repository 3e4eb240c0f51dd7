"""The label-loop block writers, kept as the test oracle of ``sampling``
and of ``routed_cpms.adapted_kraus_decomposition``.

Each walks the allowed sector blocks by label, looking every block up
with ``relates``, ``sector_slice`` and ``dim_of``, and draws its random
numbers in that order.  The library walks the same blocks by position
with ``spaces.sector_blocks``; its samplers must make the same draws and
so the same arrays, bit for bit.
"""

from __future__ import annotations

import numpy as np

from routedcircuits import relations as rel
from routedcircuits.relations import Relation
from routedcircuits.routed_cpms import RoutedCPM, choi_matrix
from routedcircuits.routed_maps import RoutedMap, is_practical_unitary
from routedcircuits.sampling import _null_space, random_unitary


def random_matrix_following(route, domain, codomain, rng, scale=1.0):
    matrix = np.zeros((codomain.total_dim, domain.total_dim), dtype=complex)
    for k in domain.sector_labels:
        cols = domain.sector_slice(k)
        for l in codomain.sector_labels:
            if not route.relates(k, l):
                continue
            rows = codomain.sector_slice(l)
            shape = (rows.stop - rows.start, cols.stop - cols.start)
            matrix[rows, cols] = scale * (
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            )
    return matrix


def random_coherent_cpm(connectivity, domain, codomain, rng, count=3):
    kraus = [
        random_matrix_following(connectivity, domain, codomain, rng, 0.5) for _ in range(count)
    ]
    return RoutedCPM(rel.full_coherence(connectivity), tuple(kraus), domain, codomain)


def random_practical_isometry(route, domain, codomain, rng):
    dim_b = codomain.total_dim
    matrix = np.zeros((dim_b, domain.total_dim), dtype=complex)
    placed = np.zeros((dim_b, 0), dtype=complex)
    practical = rel.practical_input_set(route)
    for k in domain.sector_labels:
        if k not in practical:
            continue
        allowed_coords = []
        for l in codomain.sector_labels:
            if route.relates(k, l):
                block = codomain.sector_slice(l)
                allowed_coords.extend(range(block.start, block.stop))
        basis = np.zeros((dim_b, len(allowed_coords)), dtype=complex)
        for column, coord in enumerate(allowed_coords):
            basis[coord, column] = 1.0
        kernel = _null_space(placed.conj().T @ basis)
        need = domain.dim_of(k)
        if kernel.shape[1] < need:
            return None
        gaussian = rng.standard_normal((kernel.shape[1], need)) + 1j * rng.standard_normal(
            (kernel.shape[1], need)
        )
        q, _ = np.linalg.qr(gaussian)
        columns = basis @ kernel @ q[:, :need]
        matrix[:, domain.sector_slice(k)] = columns
        placed = np.hstack([placed, columns])
    return RoutedMap(route, matrix, domain, codomain)


def random_practical_unitary(route, domain, codomain, rng):
    s_dim = sum(domain.dim_of(k) for k in rel.practical_input_set(route))
    t_dim = sum(codomain.dim_of(l) for l in rel.practical_output_set(route))
    if s_dim != t_dim:
        return None
    candidate = random_practical_isometry(route, domain, codomain, rng)
    if candidate is None:
        return None
    return candidate if is_practical_unitary(candidate) else None


def random_block_diagonal_unitary(space, rng):
    matrix = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for label in space.sector_labels:
        block = space.sector_slice(label)
        matrix[block, block] = random_unitary(space.dim_of(label), rng)
    return RoutedMap(Relation.identity(space.sector_labels), matrix, space, space)


def random_decohered_cpm(
    connectivity, domain, codomain, rng, ops_per_block=2, trace_preserving=False
):
    kraus = []
    for k in domain.sector_labels:
        cols = domain.sector_slice(k)
        dim_k = domain.dim_of(k)
        block_ops = []
        for l in codomain.sector_labels:
            if not connectivity.relates(k, l):
                continue
            rows = codomain.sector_slice(l)
            for _ in range(ops_per_block):
                shape = (rows.stop - rows.start, dim_k)
                block_ops.append(
                    (rows, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                )
        if not block_ops:
            continue
        if trace_preserving:
            gram = sum(b.conj().T @ b for _, b in block_ops)
            eigvals, eigvecs = np.linalg.eigh(gram)
            inv_sqrt = eigvecs @ np.diag(eigvals**-0.5) @ eigvecs.conj().T
            block_ops = [(rows, b @ inv_sqrt) for rows, b in block_ops]
        for rows, b in block_ops:
            full = np.zeros((codomain.total_dim, domain.total_dim), dtype=complex)
            full[rows, cols] = b
            kraus.append(full)
    if not kraus:
        kraus.append(np.zeros((codomain.total_dim, domain.total_dim), dtype=complex))
    return RoutedCPM(rel.full_decoherence(connectivity), tuple(kraus), domain, codomain)


def random_sector_preserving_channel(space, rng, count=2):
    dim = space.total_dim
    kraus = [np.zeros((dim, dim), dtype=complex) for _ in range(count)]
    for label in space.sector_labels:
        block = space.sector_slice(label)
        d = space.dim_of(label)
        raw = [
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for _ in range(count)
        ]
        gram = sum(b.conj().T @ b for b in raw)
        eigvals, eigvecs = np.linalg.eigh(gram)
        inv_sqrt = eigvecs @ np.diag(eigvals**-0.5) @ eigvecs.conj().T
        for op, b in zip(kraus, raw):
            op[block, block] = b @ inv_sqrt
    route = rel.full_coherence(Relation.identity(space.sector_labels))
    return RoutedCPM(route, tuple(kraus), space, space)


def adapted_kraus_decomposition(channel):
    diag = rel.diagonal(channel.route)
    out = []
    d_out, d_in = channel.codomain.total_dim, channel.domain.total_dim
    for k in channel.domain.sector_labels:
        cols = channel.domain.sector_slice(k)
        for l in channel.codomain.sector_labels:
            if not diag.relates(k, l):
                continue
            rows = channel.codomain.sector_slice(l)
            blocks = channel.kraus_stack[:, rows, cols]
            eigvals, eigvecs = np.linalg.eigh(choi_matrix(blocks))
            ops = []
            cutoff = max(channel.tolerance, 1e-12) * max(1.0, float(eigvals.max(initial=0.0)))
            for value, vec in zip(eigvals, eigvecs.T):
                if value <= cutoff:
                    continue
                small = np.sqrt(value) * vec.reshape(blocks.shape[1:])
                full = np.zeros((d_out, d_in), dtype=complex)
                full[rows, cols] = small
                ops.append(full)
            if ops:
                out.append((k, l, ops))
    return out
