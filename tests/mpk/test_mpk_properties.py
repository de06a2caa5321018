"""Property-based tests (hypothesis) for the matrix powers kernel."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dist.multivector import DistMultiVector
from repro.gpu.context import MultiGpuContext
from repro.mpk.dependency import compute_dependencies, halo_levels
from repro.mpk.matrix_powers import MatrixPowersKernel
from repro.mpk.shifts import ShiftOp
from repro.order.partition import Partition, block_row_partition
from repro.sparse.coo import CooMatrix
from repro.sparse.csr import csr_matvec


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


def _brute_force_independent(matrix, partition, i, k):
    """Whether the k-hop neighbourhood of row ``i`` in the symmetrized
    pattern holds only rows of ``i``'s part (by explicit set closure)."""
    dense = np.zeros(matrix.shape, dtype=bool)
    for r in range(matrix.n_rows):
        dense[r, matrix.indices[matrix.indptr[r] : matrix.indptr[r + 1]]] = True
    adjacent = dense | dense.T
    reached = {i}
    for _ in range(k):
        reached |= {int(j) for r in reached for j in np.flatnonzero(adjacent[r])}
    return all(partition.assignment[j] == partition.assignment[i] for j in reached)


@settings(max_examples=40, deadline=None)
@given(sparse_systems(), st.integers(1, 6))
def test_halo_levels_match_brute_force_closure(system, s):
    """Own row ``i`` is halo-independent at step ``k`` (``levels[i] > k``)
    iff its k-hop neighbourhood in the symmetrized pattern has no
    non-owned row, for nonsymmetric patterns, 1-3 parts and s = 1..6; and
    such a row reads no halo value through the directed pattern either."""
    matrix, partition, _ = system
    levels = halo_levels(matrix, partition, s + 1)
    assert levels.min() >= 1 and levels.max() <= s + 1
    for i in range(matrix.n_rows):
        for k in range(1, s + 1):
            assert (levels[i] > k) == _brute_force_independent(matrix, partition, i, k)
    # Neighbours differ by at most one level (the three MPK buffers rely on it).
    rows = np.repeat(np.arange(matrix.n_rows), np.diff(matrix.indptr))
    assert np.all(np.abs(levels[rows] - levels[matrix.indices]) <= 1)


@settings(max_examples=30, deadline=None)
@given(sparse_systems(), st.integers(1, 6), st.integers(1, 3))
def test_overlapped_mpk_is_bit_identical_to_host_steps(system, s, k):
    """Whatever rows a device launches before its halo lands, every column
    equals the host recurrence (``csr_matvec``, then the shift) bit for bit."""
    matrix, partition, seed = system
    ctx = MultiGpuContext(partition.n_parts)
    mpk = MatrixPowersKernel(ctx, matrix, partition, s)
    rng = np.random.default_rng(seed)
    ops = [ShiftOp("real", re=float(rng.standard_normal())) for _ in range(s)]
    Vs = [DistMultiVector(ctx, partition, s + 1) for _ in range(k)]
    starts = [rng.standard_normal(matrix.n_rows) for _ in range(k)]
    for V, v0 in zip(Vs, starts):
        V.set_column_from_host(0, v0)
    with np.errstate(over="ignore", invalid="ignore"):
        mpk.run(Vs, 0, ops)
        for V, v0 in zip(Vs, starts):
            cur = v0
            for step, op in enumerate(ops, start=1):
                nxt = np.empty(matrix.n_rows)
                csr_matvec(matrix.indptr, matrix.indices, matrix.data, cur, nxt,
                           matrix.n_rows, matrix.n_rows)
                nxt -= op.re * cur
                assert V.gather_column_to_host(step).tobytes() == nxt.tobytes()
                cur = nxt
