"""Property-based tests (hypothesis) for the matrix powers kernel."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dist.multivector import DistMultiVector
from repro.gpu.context import MultiGpuContext
from repro.mpk.dependency import compute_dependencies
from repro.mpk.matrix_powers import MatrixPowersKernel
from repro.mpk.shifts import ShiftOp
from repro.order.partition import Partition, block_row_partition
from repro.sparse.coo import CooMatrix


@st.composite
def sparse_systems(draw):
    """A random square matrix with a random partition."""
    n = draw(st.integers(6, 40))
    nnz = draw(st.integers(n, 5 * n))
    seed = draw(st.integers(0, 2**31 - 1))
    n_parts = draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    rows = np.concatenate([np.arange(n), rng.integers(0, n, nnz)])
    cols = np.concatenate([np.arange(n), rng.integers(0, n, nnz)])
    vals = rng.standard_normal(rows.size) * 0.3
    vals[:n] += 2.0  # keep powers from overflowing immediately
    matrix = CooMatrix((n, n), rows, cols, vals).to_csr()
    kind = draw(st.sampled_from(["block", "random"]))
    if kind == "block":
        partition = block_row_partition(n, n_parts)
    else:
        partition = Partition(rng.integers(0, n_parts, n), n_parts)
    return matrix, partition, seed


@settings(max_examples=30, deadline=None)
@given(sparse_systems(), st.integers(1, 4))
def test_mpk_equals_repeated_spmv(system, s):
    """For ANY matrix/partition/s, MPK output == s sequential SpMVs."""
    matrix, partition, seed = system
    ctx = MultiGpuContext(partition.n_parts)
    mpk = MatrixPowersKernel(ctx, matrix, partition, s)
    V = DistMultiVector(ctx, partition, s + 1)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(matrix.n_rows)
    V.set_column_from_host(0, v0)
    mpk.run(V, 0)
    ref = v0
    for k in range(1, s + 1):
        ref = matrix.matvec(ref)
        got = V.gather_column_to_host(k)
        scale = max(np.abs(ref).max(), 1.0)
        np.testing.assert_allclose(got, ref, atol=1e-9 * scale)


@settings(max_examples=30, deadline=None)
@given(sparse_systems(), st.integers(1, 4))
def test_dependency_invariants(system, s):
    """Structural invariants of the boundary sets for any input."""
    matrix, partition, _ = system
    deps = compute_dependencies(matrix, partition, s)
    n = matrix.n_rows
    covered = np.zeros(n, dtype=int)
    for d, dep in enumerate(deps):
        covered[dep.owned] += 1
        # ext_rows has no duplicates and owned come first.
        assert np.unique(dep.ext_rows).size == dep.ext_rows.size
        np.testing.assert_array_equal(dep.ext_rows[: dep.n_owned], dep.owned)
        # shells are disjoint from owned rows and each other.
        all_shell = np.concatenate([*dep.deltas]) if dep.deltas else np.empty(0)
        assert np.unique(all_shell).size == all_shell.size
        assert not np.isin(all_shell, dep.owned).any()
        # i-sizes are consistent with the shell sizes.
        assert dep.i_size(1) == dep.ext_rows.size
        assert dep.i_size(s + 1) == dep.n_owned
    # Every row is owned by exactly one device.
    np.testing.assert_array_equal(covered, np.ones(n, dtype=int))


@settings(max_examples=20, deadline=None)
@given(sparse_systems(), st.integers(1, 3),
       st.floats(-2.0, 2.0, allow_nan=False))
def test_newton_shift_linearity(system, s, theta):
    """Real-shifted MPK equals MPK of the shifted matrix (monomial)."""
    matrix, partition, seed = system
    shifted = matrix.add_scaled_identity(-theta)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(matrix.n_rows)

    def run(mat, ops):
        ctx = MultiGpuContext(partition.n_parts)
        mpk = MatrixPowersKernel(ctx, mat, partition, s)
        V = DistMultiVector(ctx, partition, s + 1)
        V.set_column_from_host(0, v0)
        mpk.run(V, 0, ops)
        return V.gather_column_to_host(s)

    newton = run(matrix, [ShiftOp("real", re=theta)] * s)
    monomial_shifted = run(shifted, [ShiftOp("none")] * s)
    scale = max(np.abs(monomial_shifted).max(), 1.0)
    np.testing.assert_allclose(newton, monomial_shifted, atol=1e-9 * scale)
