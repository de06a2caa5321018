"""Tests for the distributed matrix and its SpMV."""

import numpy as np
import pytest

from repro.dist.matrix import DistributedMatrix, HaloPlan
from repro.dist.multivector import DistMultiVector
from repro.faults import FaultEvent, FaultPlan
from repro.gpu.context import MultiGpuContext
from repro.matrices import poisson2d, g3_circuit
from repro.order import kway_partition
from repro.order.partition import block_row_partition
from repro.matrices.random_sparse import random_sparse


class TestHaloPlan:
    def test_halo_excludes_owned(self):
        A = poisson2d(6)
        part = block_row_partition(A.n_rows, 3)
        plan = HaloPlan(A, part)
        for d in range(3):
            assert not np.any(part.assignment[plan.halo[d]] == d)

    def test_halo_covers_needed_columns(self):
        A = poisson2d(6)
        part = block_row_partition(A.n_rows, 3)
        plan = HaloPlan(A, part)
        for d in range(3):
            local = A.extract_rows(part.rows_of(d))
            needed = np.unique(local.indices)
            foreign = needed[part.assignment[needed] != d]
            np.testing.assert_array_equal(np.sort(plan.halo[d]), foreign)

    def test_single_device_no_halo(self):
        A = poisson2d(4)
        plan = HaloPlan(A, block_row_partition(A.n_rows, 1))
        assert plan.gather_volume() == 0

    def test_requires_square(self):
        from repro.sparse.csr import csr_from_dense

        A = csr_from_dense(np.ones((2, 3)))
        with pytest.raises(ValueError, match="square"):
            HaloPlan(A, block_row_partition(2, 1))


class TestDistributedSpmv:
    @pytest.mark.parametrize("n_gpus", [1, 2, 3])
    def test_matches_host_reference(self, n_gpus, rng):
        A = poisson2d(7)
        ctx = MultiGpuContext(n_gpus)
        part = block_row_partition(A.n_rows, n_gpus)
        dmat = DistributedMatrix(ctx, A, part)
        x = rng.standard_normal(A.n_rows)
        V = DistMultiVector(ctx, part, 2)
        V.set_column_from_host(0, x)
        dmat.spmv(V, 0, V, 1)
        np.testing.assert_allclose(
            V.gather_column_to_host(1), A.matvec(x), atol=1e-13
        )

    def test_kway_partition_spmv(self, rng):
        A = g3_circuit(nx=16, ny=16)
        ctx = MultiGpuContext(3)
        part = kway_partition(A, 3)
        dmat = DistributedMatrix(ctx, A, part)
        x = rng.standard_normal(A.n_rows)
        V = DistMultiVector(ctx, part, 2)
        V.set_column_from_host(0, x)
        dmat.spmv(V, 0, V, 1)
        np.testing.assert_allclose(
            V.gather_column_to_host(1), A.matvec(x), atol=1e-12
        )

    def test_unsymmetric_matrix(self, rng):
        A = random_sparse(40, 5.0, seed=3)
        ctx = MultiGpuContext(2)
        part = block_row_partition(40, 2)
        dmat = DistributedMatrix(ctx, A, part)
        x = rng.standard_normal(40)
        V = DistMultiVector(ctx, part, 2)
        V.set_column_from_host(0, x)
        dmat.spmv(V, 0, V, 1)
        np.testing.assert_allclose(
            V.gather_column_to_host(1), A.matvec(x), atol=1e-12
        )

    def test_message_count_per_spmv(self):
        A = poisson2d(6)
        ctx = MultiGpuContext(3)
        part = block_row_partition(A.n_rows, 3)
        dmat = DistributedMatrix(ctx, A, part)
        V = DistMultiVector(ctx, part, 2)
        V.set_column_from_host(0, np.ones(A.n_rows))
        ctx.reset_clocks()
        dmat.spmv(V, 0, V, 1)
        # Block-row split of a grid: end devices talk to the middle one.
        assert ctx.counters.d2h_messages <= 3
        assert ctx.counters.h2d_messages <= 3
        assert ctx.counters.d2h_messages >= 2

    def test_spmv_advances_clocks(self):
        A = poisson2d(5)
        ctx = MultiGpuContext(2)
        part = block_row_partition(A.n_rows, 2)
        dmat = DistributedMatrix(ctx, A, part)
        V = DistMultiVector(ctx, part, 2)
        V.set_column_from_host(0, np.ones(A.n_rows))
        t0 = ctx.current_time()
        dmat.spmv(V, 0, V, 1)
        assert ctx.current_time() > t0

    def test_partition_mismatch_rejected(self):
        A = poisson2d(4)
        ctx = MultiGpuContext(2)
        with pytest.raises(ValueError):
            DistributedMatrix(ctx, A, block_row_partition(A.n_rows, 3))

    def test_repeated_spmv_consistent(self, rng):
        A = poisson2d(5)
        ctx = MultiGpuContext(2)
        part = block_row_partition(A.n_rows, 2)
        dmat = DistributedMatrix(ctx, A, part)
        V = DistMultiVector(ctx, part, 3)
        x = rng.standard_normal(A.n_rows)
        V.set_column_from_host(0, x)
        dmat.spmv(V, 0, V, 1)
        dmat.spmv(V, 1, V, 2)
        np.testing.assert_allclose(
            V.gather_column_to_host(2), A.matvec(A.matvec(x)), atol=1e-12
        )


class TestSpmvCostAccounting:
    def test_halo_placement_copy_charged(self):
        """spmv charges one own-part copy per device plus one halo copy per
        device with a nonempty halo (plus the exchange's gather copies)."""
        A = poisson2d(8)
        ctx = MultiGpuContext(3)
        part = block_row_partition(A.n_rows, 3)
        dmat = DistributedMatrix(ctx, A, part)
        x = DistMultiVector(ctx, part, 1)
        y = DistMultiVector(ctx, part, 1)
        x.set_column_from_host(0, np.ones(A.n_rows))
        ctx.reset_clocks()
        dmat.spmv(x, 0, y, 0)
        halo_devices = sum(1 for h in dmat.plan.halo if h.size > 0)
        senders = sum(1 for s in dmat.plan.send_local if s.size > 0)
        expected = senders + 3 + halo_devices
        assert halo_devices > 0
        assert ctx.counters.kernel_counts["copy/cublas"] == expected

    @pytest.mark.parametrize("launch", ["own", "halo"])
    def test_poisoned_expand_copy_lands_in_its_slice(self, launch):
        """A poison armed on an expand copy is delivered into the slice of
        the extended vector that copy wrote, not into the next kernel's
        output."""
        A = poisson2d(8)
        part = block_row_partition(A.n_rows, 2)
        # gpu1's launches: the exchange's gather copy, the own-row copy,
        # the interior rows' SpMV (its halo is still on the bus), the halo
        # copy, then the SpMV of the boundary rows.
        trigger = {"own": 1, "halo": 3}[launch]
        plan = FaultPlan.scripted([FaultEvent("gpu1", "poison", trigger=trigger)])
        ctx = MultiGpuContext(2, fault_plan=plan)
        dmat = DistributedMatrix(ctx, A, part)
        x = DistMultiVector(ctx, part, 1)
        y = DistMultiVector(ctx, part, 1)
        x.set_column_from_host(0, np.ones(A.n_rows))
        ctx.reset_clocks()
        with np.errstate(invalid="ignore", over="ignore"):
            dmat.spmv(x, 0, y, 0)
        n_own = dmat.plan.owned[1].size
        z = dmat._z[1].data[: n_own + dmat.plan.halo[1].size]
        written = z[:n_own] if launch == "own" else z[n_own:]
        assert not np.all(np.isfinite(written))
        assert np.all(np.isfinite(x.local[1].data))  # source intact
        assert ctx.devices[1]._poison_pending is None
