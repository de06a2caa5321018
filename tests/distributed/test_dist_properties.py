"""Property-based tests (hypothesis) for the distributed layer."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dist.matrix import DistributedMatrix
from repro.dist.multivector import DistMultiVector
from repro.gpu.context import MultiGpuContext
from repro.order.partition import Partition, block_row_partition
from repro.sparse.coo import CooMatrix


@st.composite
def distributed_systems(draw):
    n = draw(st.integers(4, 30))
    nnz = draw(st.integers(n, 4 * n))
    seed = draw(st.integers(0, 2**31 - 1))
    n_gpus = draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    rows = np.concatenate([np.arange(n), rng.integers(0, n, nnz)])
    cols = np.concatenate([np.arange(n), rng.integers(0, n, nnz)])
    vals = rng.standard_normal(rows.size)
    matrix = CooMatrix((n, n), rows, cols, vals).to_csr()
    if draw(st.booleans()):
        partition = block_row_partition(n, n_gpus)
    else:
        partition = Partition(rng.integers(0, n_gpus, n), n_gpus)
    return matrix, partition, seed


@settings(max_examples=35, deadline=None)
@given(distributed_systems())
def test_distributed_spmv_matches_host(system):
    """For any matrix and any partition, the halo-exchanged SpMV is exact."""
    matrix, partition, seed = system
    ctx = MultiGpuContext(partition.n_parts)
    dmat = DistributedMatrix(ctx, matrix, partition)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(matrix.n_rows)
    V = DistMultiVector(ctx, partition, 2)
    V.set_column_from_host(0, x)
    dmat.spmv(V, 0, V, 1)
    got = V.gather_column_to_host(1)
    ref = matrix.matvec(x)
    scale = max(np.abs(ref).max(), 1.0)
    np.testing.assert_allclose(got, ref, atol=1e-10 * scale)


@settings(max_examples=35, deadline=None)
@given(distributed_systems(), st.integers(1, 4))
def test_multivector_scatter_gather_roundtrip(system, n_cols):
    _, partition, seed = system
    ctx = MultiGpuContext(partition.n_parts)
    mv = DistMultiVector(ctx, partition, n_cols)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((partition.n_rows, n_cols))
    for j in range(n_cols):
        mv.set_column_from_host(j, data[:, j])
    for j in range(n_cols):
        np.testing.assert_array_equal(mv.gather_column_to_host(j), data[:, j])


@settings(max_examples=25, deadline=None)
@given(distributed_systems())
def test_spmv_message_bound(system):
    """SpMV issues at most one d2h + one h2d message per device."""
    matrix, partition, _ = system
    ctx = MultiGpuContext(partition.n_parts)
    dmat = DistributedMatrix(ctx, matrix, partition)
    V = DistMultiVector(ctx, partition, 2)
    V.set_column_from_host(0, np.ones(matrix.n_rows))
    ctx.reset_clocks()
    dmat.spmv(V, 0, V, 1)
    assert ctx.counters.d2h_messages <= partition.n_parts
    assert ctx.counters.h2d_messages <= partition.n_parts
