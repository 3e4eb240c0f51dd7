"""The variable-by-variable elimination, kept as the test oracle of the
planned elimination in ``circuits`` (``_elimination_plan`` and
``_run_plan``), and the candidate-by-candidate insertion, kept as the test
oracle of the one-run insertion, the 'insertion' program of ``circuits``.

The elimination eliminates the variables in sorted-name order and, for
each one, builds the joint of every table that touches it anew: no plan is
shared between calls and nothing is precomputed.  The insertion pins one
candidate tuple at a time and runs one elimination per candidate.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from routedcircuits.circuits import (
    RoutedCircuit,
    Slice,
    _elimination_plan,
    _program,
    _run_plan,
    _tables,
)


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


def accessible_by_insertion(circuit: RoutedCircuit, cut: Slice) -> np.ndarray:
    """Defining test: fix the slice sectors to a candidate tuple and ask
    whether the whole relation-level circuit still relates anything.

    Every pinned network has the same signatures, so one plan serves all
    candidates.  Each table's slice axes are moved to the front once, and
    a candidate pins them by indexing.
    """
    boxes = sorted(circuit.boxes)
    program = _program(circuit, "routes", (), boxes, cut.wires)
    variables, sizes = program.signatures, dict(program.sizes)
    tables = _tables(circuit, program, boxes)
    position = {(w, 0): i for i, w in enumerate(cut.wires)}
    moved, pins, signatures = [], [], []
    for vars_, table in zip(variables, tables):
        pinned = [i for i, v in enumerate(vars_) if v in position]
        free = [i for i, v in enumerate(vars_) if v not in position]
        moved.append(table.transpose(pinned + free))
        pins.append([position[vars_[i]] for i in pinned])
        signatures.append([vars_[i] for i in free])
    plan = _elimination_plan(signatures, (), sizes)
    out = np.zeros([sizes[w] for w in cut.wires], dtype=bool)
    for candidate in np.ndindex(out.shape):
        pinned = [t[(*map(candidate.__getitem__, pin), ...)] for t, pin in zip(moved, pins)]
        out[candidate] = _run_plan(plan, pinned)
    return out
