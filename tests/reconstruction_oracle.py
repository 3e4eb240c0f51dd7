"""The block-by-block route check, kept as the test oracle of ``routed_maps.follows``.

The matrix is rebuilt from the sector blocks its route allows, one block
at a time through ``sector_slice``, and it follows the route when the
rebuilt matrix is within the tolerance of the original.  It shares only
the spaces and relations with the block-maxima check in ``routed_maps``.
"""

from __future__ import annotations

import numpy as np

from routedcircuits.relations import Relation
from routedcircuits.routed_maps import DEFAULT_TOLERANCE
from routedcircuits.spaces import PartitionedSpace


def follows_by_reconstruction(
    matrix: np.ndarray,
    route: Relation,
    domain: PartitionedSpace,
    codomain: PartitionedSpace,
    tol: float = DEFAULT_TOLERANCE,
) -> bool:
    """Equivalent route check: summing the allowed blocks rebuilds the matrix."""
    matrix = np.asarray(matrix, dtype=complex)
    rebuilt = np.zeros_like(matrix)
    for k in domain.sector_labels:
        cols = domain.sector_slice(k)
        for l in codomain.sector_labels:
            if route.relates(k, l):
                rows = codomain.sector_slice(l)
                rebuilt[rows, cols] = matrix[rows, cols]
    return float(np.abs(rebuilt - matrix).max(initial=0.0)) <= tol
