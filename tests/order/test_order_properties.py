"""Property-based tests (hypothesis) for reordering and partitioning."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.order.kway import kway_partition, recursive_bisection
from repro.order.partition import block_row_partition, edge_cut
from repro.order.rcm import matrix_bandwidth, rcm
from repro.sparse.coo import CooMatrix
from repro.sparse.graph import adjacency_structure


@st.composite
def random_matrices(draw):
    n = draw(st.integers(4, 30))
    nnz = draw(st.integers(n, 4 * n))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    rows = np.concatenate([np.arange(n), rng.integers(0, n, nnz)])
    cols = np.concatenate([np.arange(n), rng.integers(0, n, nnz)])
    vals = np.ones(rows.size)
    return CooMatrix((n, n), rows, cols, vals).to_csr()


@settings(max_examples=40, deadline=None)
@given(random_matrices())
def test_rcm_always_a_permutation(matrix):
    perm = rcm(matrix)
    np.testing.assert_array_equal(np.sort(perm), np.arange(matrix.n_rows))


@settings(max_examples=40, deadline=None)
@given(random_matrices())
def test_rcm_preserves_singular_values(matrix):
    """A symmetric permutation is an orthogonal similarity: the singular
    values are exactly preserved (eigenvalues of nonsymmetric matrices can
    be too ill-conditioned to compare numerically)."""
    perm = rcm(matrix)
    permuted = matrix.permute(perm)
    sv_a = np.linalg.svd(matrix.to_dense(), compute_uv=False)
    sv_p = np.linalg.svd(permuted.to_dense(), compute_uv=False)
    np.testing.assert_allclose(sv_a, sv_p, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(random_matrices(), st.integers(1, 4))
def test_kway_partition_invariants(matrix, n_parts):
    part = kway_partition(matrix, n_parts)
    assert part.n_rows == matrix.n_rows
    # Every row assigned to a valid part.
    assert part.assignment.min() >= 0
    assert part.assignment.max() < n_parts
    # Parts cover all rows exactly once.
    total = sum(part.rows_of(d).size for d in range(n_parts))
    assert total == matrix.n_rows


@settings(max_examples=30, deadline=None)
@given(random_matrices(), st.integers(2, 4))
def test_recursive_bisection_invariants(matrix, n_parts):
    part = recursive_bisection(matrix, n_parts)
    total = sum(part.rows_of(d).size for d in range(n_parts))
    assert total == matrix.n_rows


@settings(max_examples=30, deadline=None)
@given(random_matrices(), st.integers(1, 4))
def test_edge_cut_bounded_by_edges(matrix, n_parts):
    graph = adjacency_structure(matrix)
    part = block_row_partition(matrix.n_rows, n_parts)
    cut = edge_cut(graph, part)
    assert 0 <= cut <= graph.nnz // 2


@settings(max_examples=30, deadline=None)
@given(random_matrices())
def test_bandwidth_invariant_under_identity_permutation(matrix):
    ident = np.arange(matrix.n_rows)
    assert matrix_bandwidth(matrix.permute(ident)) == matrix_bandwidth(
        matrix.sort_indices()
    )
