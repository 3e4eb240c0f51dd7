"""The variable-by-variable elimination, kept as the test oracle of the
planned elimination in ``circuits`` (``_elimination_plan`` and
``_run_plan``).

It eliminates the variables in sorted-name order and, for each one,
builds the joint of every table that touches it anew: no plan is
shared between calls and nothing is precomputed.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np


def _eliminate(
    factors: list[tuple[tuple[str, ...], np.ndarray]],
    keep: Sequence[str],
    sizes: Mapping[str, int],
) -> np.ndarray:
    """Sum a product of boolean tables over all variables not in ``keep``."""
    factors = [(vars_, table.astype(bool)) for vars_, table in factors]
    to_eliminate = sorted(
        {v for vars_, _ in factors for v in vars_ if v not in keep}
    )
    for victim in to_eliminate:
        touching = [f for f in factors if victim in f[0]]
        rest = [f for f in factors if victim not in f[0]]
        union_vars = sorted({v for vars_, _ in touching for v in vars_})
        joint = np.ones(tuple(sizes[v] for v in union_vars), dtype=bool)
        for vars_, table in touching:
            expand = table
            # move the table's axes into the union's axis order
            order = sorted(range(len(vars_)), key=lambda i: union_vars.index(vars_[i]))
            expand = np.transpose(expand, order)
            shape = [
                sizes[v] if v in vars_ else 1 for v in union_vars
            ]
            expand = expand.reshape(shape)
            joint = joint & expand
        axis = union_vars.index(victim)
        reduced = joint.any(axis=axis)
        new_vars = tuple(v for v in union_vars if v != victim)
        factors = rest + [(new_vars, reduced)]
    # join what is left onto the keep axes
    result = np.ones(tuple(sizes[v] for v in keep), dtype=bool)
    for vars_, table in factors:
        order = sorted(range(len(vars_)), key=lambda i: keep.index(vars_[i]))
        table = np.transpose(table, order)
        shape = [sizes[v] if v in vars_ else 1 for v in keep]
        result = result & table.reshape(shape)
    return result
