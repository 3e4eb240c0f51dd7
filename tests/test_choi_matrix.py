"""``choi_matrix`` against the sum of outer products it computes in chunks."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from routedcircuits.routed_cpms import choi_matrix


def choi_by_outer_products(kraus) -> np.ndarray:
    d = kraus[0].size
    out = np.zeros((d, d), dtype=complex)
    for k in kraus:
        v = np.asarray(k, dtype=complex).reshape(d)
        out += np.outer(v, v.conj())
    return out


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 25), st.integers(0, 2**32 - 1))
def test_matches_the_outer_product_sum(rows, cols, count, seed):
    """Counts above ``rows * cols`` take more than one chunk."""
    rng = np.random.default_rng(seed)
    kraus = [
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        for _ in range(count)
    ]
    got = choi_matrix(kraus)
    want = choi_by_outer_products(kraus)
    assert got.shape == want.shape and got.dtype == want.dtype
    # entries are sums of ``count`` products of standard normals
    tolerance = 64 * count * np.finfo(float).eps * max(1.0, float(np.abs(want).max()))
    assert np.abs(got - want).max() <= tolerance


def test_zero_one_operators_give_the_exact_sum():
    kraus = [np.eye(3, dtype=complex)[i : i + 1, :] for i in range(3)] + [np.ones((1, 3))]
    assert np.array_equal(choi_matrix(kraus), choi_by_outer_products(kraus))
